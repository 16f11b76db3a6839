type trace_result = {
  index : int;
  seed : int;
  samples : int;
  mean : float;
  max : float;
  final : float;
}

type summary = {
  traces : int;
  bound : float;
  samples : int;
  mean : float;
  max : float;
  ok : bool;
  per_trace : trace_result list;
}

let default_bound = 4.0

let fs = Codec.float_str

let run ?(traces = 20) ?(bound = default_bound) scenario config =
  if traces < 1 then invalid_arg "Competitive.run: traces must be >= 1";
  if not (Float.is_finite bound) || bound < 1. then
    invalid_arg "Competitive.run: bound must be finite and >= 1";
  let per_trace =
    List.init traces (fun i ->
        let sc = { scenario with Soak.seed = scenario.Soak.seed + i } in
        let cf = { config with Soak.offline_baseline = true } in
        match Soak.run sc cf with
        | Soak.Killed _ -> assert false (* no kill was requested *)
        | Soak.Completed r ->
            let final =
              match List.rev r.Soak.baseline_points with
              | (_, online, resolve) :: _
                when resolve > 0. && Float.is_finite online ->
                  online /. resolve
              | _ -> nan
            in
            {
              index = i;
              seed = sc.Soak.seed;
              samples = List.length r.Soak.baseline_points;
              mean = r.Soak.competitive_mean;
              max = r.Soak.competitive_max;
              final;
            })
  in
  let measured =
    List.filter (fun (t : trace_result) -> Float.is_finite t.max) per_trace
  in
  let samples =
    List.fold_left (fun acc (t : trace_result) -> acc + t.samples) 0 per_trace
  in
  let mean =
    match measured with
    | [] -> nan
    | _ ->
        List.fold_left (fun acc (t : trace_result) -> acc +. t.mean) 0. measured
        /. float_of_int (List.length measured)
  in
  let max =
    match measured with
    | [] -> nan
    | (t : trace_result) :: rest ->
        List.fold_left
          (fun acc (t : trace_result) -> Float.max acc t.max)
          t.max rest
  in
  (* A harness that measured nothing proves nothing: [ok] demands at
     least one sampled ratio besides the bound holding everywhere. *)
  let ok = Float.is_finite max && max <= bound in
  { traces; bound; samples; mean; max; ok; per_trace }

let to_csv s =
  let b = Buffer.create 1024 in
  Buffer.add_string b "trace,seed,samples,mean,max,final\n";
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%s,%s,%s\n" t.index t.seed t.samples
           (fs t.mean) (fs t.max) (fs t.final)))
    s.per_trace;
  Buffer.contents b

let render s =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "competitive-ratio harness: %d traces, bound %s" s.traces (fs s.bound);
  List.iter
    (fun t ->
      line "  trace %2d seed %d: samples=%d mean=%s max=%s final=%s" t.index
        t.seed t.samples (fs t.mean) (fs t.max) (fs t.final))
    s.per_trace;
  line "  aggregate: samples=%d mean=%s max=%s" s.samples (fs s.mean) (fs s.max);
  line "  empirical competitive ratio %s %s bound %s: %s" (fs s.max)
    (if s.ok then "<=" else "exceeds")
    (fs s.bound)
    (if s.ok then "OK" else "VIOLATED");
  Buffer.contents b
