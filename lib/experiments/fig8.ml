module Algorithm = Dia_core.Algorithm
module Placement = Dia_placement.Placement
module Cdf = Dia_stats.Cdf
module Pool = Dia_parallel.Pool

type result = {
  dataset : Config.dataset;
  profile : Config.profile;
  servers : int;
  cdfs : (Algorithm.t * Cdf.t) list;
}

let run ?(dataset = Config.Meridian_like) ?(profile = Config.default) ?jobs () =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let matrix = Config.load_dataset dataset profile in
  let k = profile.Config.fixed_servers in
  (* The paper's 1000 independent runs: one seed per run, fanned out to
     the pool and aggregated in seed order (same bits as the sequential
     loop for any [jobs]). *)
  let evaluations =
    Pool.with_pool ~jobs (fun pool ->
        Runner.with_timing ~label:"fig8 seed sweep" ~jobs (fun () ->
            Pool.run_seeds pool ~seeds:profile.Config.runs (fun seed ->
                Runner.place_and_evaluate ~seed matrix
                  ~strategy:Placement.Random_placement ~k)))
  in
  let samples = Hashtbl.create 8 in
  Array.iter
    (fun evaluation ->
      List.iter
        (fun (algorithm, value) ->
          let previous = Option.value ~default:[] (Hashtbl.find_opt samples algorithm) in
          Hashtbl.replace samples algorithm (value :: previous))
        (Runner.normalized evaluation))
    evaluations;
  let cdfs =
    List.map
      (fun algorithm ->
        let values = Option.value ~default:[] (Hashtbl.find_opt samples algorithm) in
        (algorithm, Cdf.of_samples (Array.of_list values)))
      Runner.algorithms
  in
  { dataset; profile; servers = k; cdfs }

let runs_below result threshold =
  List.map
    (fun (algorithm, cdf) -> (algorithm, Cdf.count_below cdf threshold))
    result.cdfs

let tail_heaviness result =
  List.map
    (fun (algorithm, cdf) ->
      let total = Cdf.count cdf in
      ( algorithm,
        total - Cdf.count_below cdf 2.,
        total - Cdf.count_below cdf 3. ))
    result.cdfs

let render result =
  let table =
    Dia_stats.Table.make
      ~columns:[ "algorithm"; "median"; "p90"; "max"; "runs > 2x"; "runs > 3x" ]
  in
  List.iter
    (fun (algorithm, cdf) ->
      let total = Cdf.count cdf in
      Dia_stats.Table.add_row table
        [
          Algorithm.name algorithm;
          Printf.sprintf "%.3f" (Cdf.quantile cdf 0.5);
          Printf.sprintf "%.3f" (Cdf.quantile cdf 0.9);
          Printf.sprintf "%.3f" (Cdf.max_sample cdf);
          string_of_int (total - Cdf.count_below cdf 2.);
          string_of_int (total - Cdf.count_below cdf 3.);
        ])
    result.cdfs;
  let series =
    List.map
      (fun (algorithm, cdf) ->
        ( Algorithm.name algorithm,
          List.map
            (fun (x, fraction) -> (x, fraction *. float_of_int (Cdf.count cdf)))
            (Cdf.curve cdf ~points:48) ))
      result.cdfs
  in
  Printf.sprintf
    "Fig. 8 (CDF over %d random placements, %d servers, %s dataset, %s profile)\n%s\n%s"
    result.profile.Config.runs result.servers
    (Config.dataset_name result.dataset)
    result.profile.Config.label
    (Dia_stats.Table.render table)
    (Dia_stats.Ascii_plot.render ~x_label:"normalized interactivity"
       ~y_label:"runs below" series)

let csv result =
  let rows =
    List.concat_map
      (fun (algorithm, cdf) ->
        List.init (Cdf.count cdf) (fun i ->
            [
              Algorithm.key algorithm;
              string_of_int i;
              Printf.sprintf "%.6f"
                (Cdf.quantile cdf (float_of_int i /. float_of_int (max 1 (Cdf.count cdf - 1))));
            ]))
      result.cdfs
  in
  Dia_stats.Csv.render ~header:[ "algorithm"; "rank"; "normalized" ] rows
