(* Kernel-speedup smoke check.

   Times three kernels — assign/greedy(n=300), lower-bound/pruned(n=300)
   and K-center-B placement, placement/kcenter-greedy(n=300,k=20) — on
   the exact inputs the bechamel suite uses, and compares against the
   committed pre-refactor numbers in bench/BENCH.seed.json. Exits
   non-zero if any kernel's win over the seed drops below the --min
   factor (default 3.0: the refactors target >= 5x on a quiet machine;
   CI runners are noisy, so the gate is deliberately generous).

   Timing is best-of-N wall clock after warmup — the minimum is the right
   statistic for a regression gate because noise only ever adds time.

   Four relative gates follow, each a ratio of two kernels timed
   together in this process, so host speed cancels and no seed row is
   needed: Greedy under an M/M/1 delay model against Greedy under the
   default zero model on the same instance (at most 2x), a session's
   lower-bound rebuild against its from-scratch referee (at least 5x
   faster), a 20-row substrate build against the full 400-node one (at
   most 0.5x), and the write-ahead journal's tax on the churn kernel
   (--journal-max-overhead). *)

module Problem = Dia_core.Problem
module Placement = Dia_placement.Placement

let usage =
  "speedup [--seed-json PATH] [--min FACTOR] [--runs N] [--journal-max-overhead F]"
let seed_json = ref "bench/BENCH.seed.json"
let min_factor = ref 3.0
let runs = ref 12
let journal_max_overhead = ref 0.10

(* Max tolerated cost of Greedy under mm1:40 relative to zero delay. *)
let load_max_ratio = 2.0

(* Min speed-up of a session's lower-bound rebuild over its scratch referee. *)
let lb_rebuild_min = 5.0

(* Max cost of a 20-row substrate build relative to the full 400-node one. *)
let rows_max_ratio = 0.5

let () =
  Arg.parse
    [
      ("--seed-json", Arg.Set_string seed_json, "seed BENCH.json to compare against");
      ("--min", Arg.Set_float min_factor, "minimum acceptable speedup factor");
      ("--runs", Arg.Set_int runs, "timed repetitions (best-of)");
      ( "--journal-max-overhead",
        Arg.Set_float journal_max_overhead,
        "max tolerated write-ahead-journal overhead on the churn kernel \
         (fraction, default 0.10)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let after ~key line =
  let kl = String.length key and ll = String.length line in
  let rec go i =
    if i + kl > ll then None
    else if String.sub line i kl = key then Some (i + kl)
    else go (i + 1)
  in
  go 0

(* Pull "ns_per_run" for a kernel out of the seed JSON by string scanning
   — the file is machine-written with one kernel per line, and a JSON
   dependency is not worth it for a smoke tool. *)
let seed_ns name =
  let needle = Printf.sprintf "\"name\": \"%s\"" name in
  let ic = open_in !seed_json in
  let found = ref None in
  (try
     while !found = None do
       let line = input_line ic in
       if contains ~needle line then
         match after ~key:"\"ns_per_run\": " line with
         | None -> ()
         | Some start ->
             let stop = ref start in
             while
               !stop < String.length line
               && (match line.[!stop] with
                  | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
                  | _ -> false)
             do
               incr stop
             done;
             found := float_of_string_opt (String.sub line start (!stop - start))
     done
   with End_of_file -> ());
  close_in ic;
  match !found with
  | Some ns -> ns
  | None ->
      Printf.eprintf "speedup: kernel %S not found in %s\n" name !seed_json;
      exit 2

let best_of_wall f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let best = ref infinity in
  for _ = 1 to !runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

(* Best-of-[rounds] wall times of two kernels timed in interleaved
   rounds, so frequency drift or a noisy neighbour lands on both mins
   instead of skewing one side of their ratio. *)
let interleaved_best ~rounds f g =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()));
    ignore (Sys.opaque_identity (g ()))
  done;
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (g ()));
    let t2 = Unix.gettimeofday () in
    if t1 -. t0 < !bf then bf := t1 -. t0;
    if t2 -. t1 < !bg then bg := t2 -. t1
  done;
  (!bf *. 1e9, !bg *. 1e9)

(* The exact inputs the bechamel kernels time. *)
let bench_matrix = Dia_latency.Synthetic.internet_like ~seed:3 300

let bench_problem =
  let servers = Placement.random ~seed:3 ~k:20 ~n:300 in
  Problem.all_nodes_clients bench_matrix ~servers

let () =
  let p = bench_problem in
  let kernels =
    [
      ("assign/greedy(n=300,k=20)", fun () -> ignore (Dia_core.Greedy.assign p));
      ("lower-bound/pruned(n=300)", fun () -> ignore (Dia_core.Lower_bound.compute p));
      ( "placement/kcenter-greedy(n=300,k=20)",
        fun () -> ignore (Dia_placement.Kcenter.greedy bench_matrix ~k:20) );
    ]
  in
  let ok = ref true in
  List.iter
    (fun (name, f) ->
      let seed = seed_ns name in
      let now = best_of_wall f in
      let factor = seed /. now in
      let verdict = if factor >= !min_factor then "OK" else "TOO SLOW" in
      if factor < !min_factor then ok := false;
      Printf.printf "%-32s seed %10.0f ns   now %10.0f ns   speedup %5.2fx   [%s]\n"
        name seed now factor verdict)
    kernels;
  if not !ok then begin
    Printf.eprintf
      "speedup: a kernel fell below the %.1fx gate (refactor target: 5x)\n"
      !min_factor;
    exit 1
  end

(* Load-greedy gate: one Greedy kernel under two delay models. Under
   mm1:40 (as in the bechamel suite) it reads different delay-table
   entries than under the default zero model, but walks the same live
   lists, so on the same instance it must stay within [load_max_ratio]
   of the zero-delay run. A regression to per-step re-sorting costs
   tens of times the zero-delay run. *)
let () =
  let delay = Dia_core.Delay.Queueing { mu = 40. } in
  let zero, mm1 =
    interleaved_best ~rounds:!runs
      (fun () -> Dia_core.Greedy.assign bench_problem)
      (fun () -> Dia_core.Greedy.assign ~delay bench_problem)
  in
  let ratio = mm1 /. zero in
  let verdict = if ratio <= load_max_ratio then "OK" else "TOO SLOW" in
  Printf.printf "%-32s zero %9.0f ns   mm1:40 %9.0f ns   ratio %5.2fx   [%s]\n"
    "assign/greedy-load(n=300,k=20)" zero mm1 ratio verdict;
  if ratio > load_max_ratio then begin
    Printf.eprintf
      "speedup: greedy under mm1:40 costs %.2fx the zero-delay run (gate: %.1fx)\n"
      ratio load_max_ratio;
    exit 1
  end

(* Lower-bound rebuild gate: the session of the bechamel
   session/lb-rebuild kernel (300 clients on about 210 of 400 nodes, 20
   servers). A drift toggle invalidates the cached bound and the query
   rebuilds it on the pruned Lower_bound kernel; the unpruned
   O(m²·|S|) pair loop it replaced cost as much as the
   [lower_bound_scratch] referee it is timed against. The toggle is
   charged to the rebuild side. *)
let () =
  let nodes = 400 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:6 nodes in
  let servers = Placement.random ~seed:6 ~k:20 ~n:nodes in
  let session = Dia_core.Dynamic.create matrix ~servers in
  let rng = Random.State.make [| 6 |] in
  for _ = 1 to 300 do
    ignore (Dia_core.Dynamic.join session ~node:(Random.State.int rng nodes))
  done;
  let up = ref false in
  let rebuild, scratch =
    interleaved_best ~rounds:!runs
      (fun () ->
        up := not !up;
        Dia_core.Dynamic.set_drift session ~server:0 ~factor:(if !up then 1.25 else 1.);
        Dia_core.Dynamic.lower_bound session)
      (fun () -> Dia_core.Dynamic.lower_bound_scratch session)
  in
  let factor = scratch /. rebuild in
  let verdict = if factor >= lb_rebuild_min then "OK" else "TOO SLOW" in
  Printf.printf "%-32s rebuild %7.0f ns   scratch %9.0f ns   speedup %5.2fx   [%s]\n"
    "session/lb-rebuild" rebuild scratch factor verdict;
  if factor < lb_rebuild_min then begin
    Printf.eprintf
      "speedup: the session lower-bound rebuild is only %.2fx faster than \
       lower_bound_scratch (gate: %.1fx)\n"
      factor lb_rebuild_min;
    exit 1
  end

(* Substrate gate: a classic-mode soak materialises only its servers'
   rows. On the 400-node, 20-server shape of soak-scale that build must
   cost at most [rows_max_ratio] of the full build; it still draws every
   pair's random numbers, so it cannot approach 20/400. *)
let () =
  let nodes = 400 in
  let rows = Placement.random ~seed:7 ~k:20 ~n:nodes in
  let full, partial =
    interleaved_best ~rounds:(3 * !runs)
      (fun () -> Dia_latency.Synthetic.internet_like ~seed:7 nodes)
      (fun () -> Dia_latency.Synthetic.internet_like ~rows ~seed:7 nodes)
  in
  let ratio = partial /. full in
  let verdict = if ratio <= rows_max_ratio then "OK" else "TOO SLOW" in
  Printf.printf "%-32s full %9.0f ns   rows=20 %9.0f ns   ratio %5.2fx   [%s]\n"
    "substrate/internet_like(n=400)" full partial ratio verdict;
  if ratio > rows_max_ratio then begin
    Printf.eprintf
      "speedup: the 20-row build costs %.2fx the full build (gate: %.1fx)\n"
      ratio rows_max_ratio;
    exit 1
  end

(* Journal-overhead gate: the durability layer's per-event tax on the
   churn/steady-state kernel — the same steady Dynamic session the
   bechamel suite holds, with and without a write-ahead append per
   event. Buffered framing + CRC against the null device, exactly what
   the soak loop pays between flushes; the gate fails if it costs more
   than --journal-max-overhead of the plain batch. *)
let () =
  let nodes = 400 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:6 nodes in
  let servers = Placement.random ~seed:6 ~k:10 ~n:nodes in
  let make_kernel ~journal =
    let session = Dia_core.Dynamic.create matrix ~servers in
    let live = Queue.create () in
    for i = 0 to 999 do
      Queue.add (Dia_core.Dynamic.join session ~node:(i mod nodes)) live
    done;
    let w =
      if journal then
        Some
          (Dia_runtime.Journal.create ~path:Filename.null ~digest:"gate" ())
      else None
    in
    let payload = Buffer.create 64 in
    Buffer.add_string payload "t=12.5 join session=421 client=87 server=3\n";
    let cursor = ref 0 in
    fun () ->
      for _ = 1 to 50 do
        Dia_core.Dynamic.leave session (Queue.pop live);
        let node = !cursor mod nodes in
        incr cursor;
        Queue.add (Dia_core.Dynamic.join session ~node) live;
        match w with
        | Some w ->
            Dia_runtime.Journal.append w ~cursor:!cursor payload
        | None -> ()
      done;
      ignore (Dia_core.Dynamic.rebalance ~max_moves:8 session)
  in
  (* The verdict is a ratio of two close numbers, hence interleaving. *)
  let plain, journaled =
    interleaved_best ~rounds:(3 * !runs) (make_kernel ~journal:false)
      (make_kernel ~journal:true)
  in
  let overhead = (journaled -. plain) /. plain in
  let verdict = if overhead <= !journal_max_overhead then "OK" else "TOO SLOW" in
  Printf.printf
    "%-32s plain %9.0f ns   journaled %9.0f ns   overhead %+5.1f%%   [%s]\n"
    "churn/steady-state+journal" plain journaled (100. *. overhead) verdict;
  if overhead > !journal_max_overhead then begin
    Printf.eprintf
      "speedup: write-ahead journalling costs %.1f%% on the churn kernel \
       (gate: %.0f%%)\n"
      (100. *. overhead)
      (100. *. !journal_max_overhead);
    exit 1
  end
