(* End-to-end benchmark of dia.

   Each workload times public calls into one layer stack from outside:
   the control plane (Soak.run), durability (state dir, kill, restore,
   resume), the incremental session (Dynamic) and the offline solver
   pipeline (Placement, Algorithm, Objective, Lower_bound). A workload is
   a pool of inputs drawn from --seed; a pass runs every input once, and
   passes repeat while the next one fits in --seconds. Throughput is the
   mean over inputs of each input's rate in reference seconds (see
   below), so neither host drift nor one slow input sets it.

   Usage:
     benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--spans FILE]
     benchmark.exe --smoke

   The last stdout line is one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. Correctness checks run
   outside the timed regions; a failed check or a raised call counts in
   "failed" and makes the exit code 1. *)

module Soak = Dia_runtime.Soak
module Recovery = Dia_runtime.Recovery
module Event_log = Dia_runtime.Event_log
module Checkpoint = Dia_runtime.Checkpoint
module Journal = Dia_runtime.Journal
module Generation = Dia_runtime.Generation
module Dynamic = Dia_core.Dynamic
module Algorithm = Dia_core.Algorithm
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Problem = Dia_core.Problem
module Placement = Dia_placement.Placement
module Config = Dia_experiments.Config
module Pool = Dia_parallel.Pool

let since t0 = float_of_int (Spans.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, since t0)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an ascending array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum = Array.fold_left ( +. ) 0.
let mean a = sum a /. float_of_int (Array.length a)

(* -- Host-speed reference ---------------------------------------------- *)

(* On a shared host the speed of a process drifts by up to 1.5x over
   tens of seconds, in CPU time as much as in wall time, so wall-clock
   rates of the same input spread by up to 31% (q3 - q1 over the median)
   across ten runs. Each input is therefore also timed in reference
   seconds: a fixed piece of benchmark-local work runs just before and
   just after it, and a reference second is the time 1000 runs of it
   take at that moment.
   The kernel mixes float arithmetic with pointer chasing in 128 KiB and
   in 8 MiB, which slow down together with the program's hot paths;
   allocation is left out because it slows down far more than they do.
   It does not call the program, so a change to the program cannot move
   the reference. *)

(* i -> 40505 i + 1 mod 2^b visits every slot in one cycle. *)
let cycle bits = Array.init (1 lsl bits) (fun i -> ((i * 40505) + 1) land ((1 lsl bits) - 1))

let chase = lazy (cycle 20)
let chase_small = lazy (cycle 14)

let reference_kernel () =
  let walk a steps =
    let i = ref 0 in
    for _ = 1 to steps do
      i := Array.unsafe_get a !i
    done;
    !i
  in
  let acc = ref 0. in
  for k = 1 to 75_000 do
    acc := !acc +. sqrt (float_of_int k)
  done;
  ignore (Sys.opaque_identity (walk (Lazy.force chase) 7_500));
  ignore (Sys.opaque_identity (walk (Lazy.force chase_small) 75_000));
  ignore (Sys.opaque_identity !acc)

(* The length of a reference second now: 1000 times the median of five
   kernel runs. *)
let reference_now () =
  let t () =
    let t0 = Spans.now_ns () in
    reference_kernel ();
    float_of_int (Spans.now_ns () - t0) *. 1e-9
  in
  1000. *. median (Array.init 5 (fun _ -> t ()))

(* -- Correctness bookkeeping ------------------------------------------ *)

let checks = ref 0
let failed = ref 0

let check what ok =
  incr checks;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Heap bytes reachable from [v]; distance matrices live outside the
   OCaml heap and are not counted. *)
let heap_bytes v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8))

(* -- Workload interface ----------------------------------------------- *)

type outcome = {
  wall : float;  (** timed wall of this input, s *)
  ops : int;  (** operations the input performed *)
  samples : float array;  (** per-step latencies, s, for the percentile lines *)
  quality : float;  (** D/LB *)
  state_bytes : float;  (** what the input leaves for its user, in memory or on disk *)
}

type attribution = {
  stats : Spans.stat list;  (** spans of the traced pass *)
  walls : float array;  (** per-input untraced wall, next to the traced run *)
  traced_wall : float;
  ops : int;  (** operations in one pass *)
}

type workload = {
  setup : unit -> unit;  (** one set-up; [setup_s] is the median of several *)
  build : unit -> unit;  (** the substrate (matrix) build alone *)
  inputs : int;
  run : int -> outcome;  (** runs input [j] and checks its result *)
  mechanism : string;  (** the layer the workload isolates *)
  attribute : attribution -> float * float * int;
      (** the mechanism's busy time in one pass, the wall it is a share
          of, and the calls it served *)
  details : attribution -> string list;  (** layer-specific report lines *)
}

let layer_of label = List.hd (String.split_on_char '.' label)

let span_totals stats layers =
  List.fold_left
    (fun (busy, calls) (s : Spans.stat) ->
      if List.mem (layer_of s.label) layers then (busy +. s.self_s, calls + s.calls)
      else (busy, calls))
    (0., 0) stats

(* -- Soak workloads ---------------------------------------------------- *)

type soak_shape = {
  nodes : int;
  servers : int;
  horizon : float;
  clients : int;  (** base sessions pre-populated before the trace *)
  count : int;  (** scenarios in the pool *)
}

(* The crash windows sit at fixed fractions of the horizon, so every
   horizon crashes servers 2, 5 and 11 in the same phases of the run. *)
let fault_plan horizon =
  let at f = Printf.sprintf "%g" (f *. horizon) in
  let spec =
    Printf.sprintf "loss:0.1+crash:2@%s~%s+crash:5@%s~%s+crash:11@%s~%s" (at 0.1)
      (at 0.3) (at 0.5) (at 0.7) (at (13. /. 15.)) (at 1.)
  in
  match Dia_sim.Fault.of_string spec with Ok p -> p | Error m -> failwith m

let mm1 =
  match Dia_core.Delay.of_string "mm1:200" with Ok d -> d | Error m -> failwith m

let scenario shape ~seed ~delay j =
  {
    Soak.seed = Hashtbl.hash (seed, j);
    nodes = shape.nodes;
    servers = shape.servers;
    capacity = None;
    horizon = shape.horizon;
    join_rate = 5.;
    mean_lifetime = 200.;
    drift_period = 20.;
    drift_amplitude = 0.3;
    fault = fault_plan shape.horizon;
    clients = shape.clients;
    coreset_eps = None;
    delay;
  }

let soak_run_id = Spans.name "control.soak_run"
let restore_id = Spans.name "durability.restore"

let run_soak ?state_dir ?resume_from ?kill_at_event sc config =
  Spans.wrap soak_run_id (fun () ->
      Soak.run ?state_dir ?resume_from ?kill_at_event sc config)

let completed = function
  | Soak.Completed r -> r
  | Soak.Killed _ -> failwith "soak run stopped before the end of its trace"

let report_digest (r : Soak.report) =
  Digest.to_hex (Digest.string (Soak.render r ^ Event_log.render r.Soak.log))

(* Mean of the finite D/LB ratios at the lower-bound refreshes. The
   session sums D and LB in different orders, so when D = LB the ratio
   can read a few ulps below 1. *)
let soak_quality ~check_it (r : Soak.report) =
  let ratios =
    List.filter_map
      (fun (_, _, ratio) -> if Float.is_finite ratio then Some ratio else None)
      r.Soak.trace_points
  in
  if check_it then
    check "every finite soak D/LB is >= 1"
      (List.for_all (fun x -> x >= 1. -. (4. *. epsilon_float)) ratios);
  match ratios with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)

(* Control-plane counts, summed over the pool's first pass. *)
let control_counts (r : Soak.report) =
  let protocol_repairs, protocol_applied =
    List.fold_left
      (fun (n, applied_n) entry ->
        match entry.Event_log.kind with
        | Event_log.Protocol_repair { applied; _ } ->
            (n + 1, if applied then applied_n + 1 else applied_n)
        | _ -> (n, applied_n))
      (0, 0) r.Soak.log
  in
  [
    ("events", r.events); ("admitted", r.admitted); ("queued", r.queued);
    ("shed", r.shed); ("drained", r.drained); ("repairs", r.repairs);
    ("repair_moves", r.repair_moves); ("protocol_epochs", r.protocol_epochs);
    ("protocol_stalls", r.protocol_stalls); ("promotions", r.promotions);
    ("promoted_clients", r.promoted_clients); ("fallback_clients", r.fallback_clients);
    ("lb_refreshes", List.length r.trace_points);
    ("standby_refreshes", r.standby_refreshes); ("checkpoints", r.checkpoints);
    ("log_entries", List.length r.log); ("protocol_repairs", protocol_repairs);
    ("protocol_applied", protocol_applied);
  ]

let add_counts totals r =
  totals :=
    match !totals with
    | [] -> control_counts r
    | t -> List.map2 (fun (n, a) (_, b) -> (n, a + b)) t (control_counts r)

let control_details totals _ =
  let get n = float_of_int (Option.value ~default:0 (List.assoc_opt n !totals)) in
  let ratio a b = if b > 0. then a /. b else nan in
  List.map (fun (n, c) -> Printf.sprintf "control.%s %d" n c) !totals
  @ [
      Printf.sprintf "control.promoted_ratio %.4f"
        (ratio (get "promoted_clients")
           (get "promoted_clients" +. get "fallback_clients"));
      Printf.sprintf "control.protocol_applied_ratio %.4f"
        (ratio (get "protocol_applied") (get "protocol_repairs"));
      Printf.sprintf
        "control.admission_refused_frac %.4f  ((shed + queued - drained) / \
         (admitted + queued + shed))"
        (ratio
           (get "shed" +. get "queued" -. get "drained")
           (get "admitted" +. get "queued" +. get "shed"));
    ]

let soak_setup inputs config () =
  ignore (Soak.run { inputs.(0) with Soak.horizon = 0. } config)

let soak_build (shape : soak_shape) inputs () =
  ignore (Dia_latency.Synthetic.internet_like ~seed:inputs.(0).Soak.seed shape.nodes)

(* soak-chaos, soak-scale and soak-load: one Soak.run per input. With
   [twin], the mechanism is what the run costs over [twin config] (the
   same scenario with the mechanism switched off), attributed only when
   both runs end in the same report and log apart from [normalise]. *)
let plain_soak ?twin shape ~seed ~delay ~config =
  let inputs = Array.init shape.count (scenario shape ~seed ~delay) in
  let seen = Array.make shape.count false in
  let totals = ref [] in
  let baseline = Array.make shape.count 0 in
  let digests = Array.make shape.count "" in
  let run j =
    let r, wall = timed (fun () -> completed (run_soak inputs.(j) config)) in
    let quality = soak_quality ~check_it:(not seen.(j)) r in
    if not seen.(j) then begin
      add_counts totals r;
      baseline.(j) <- List.length r.Soak.baseline_points;
      Option.iter (fun (_, normalise) -> digests.(j) <- report_digest (normalise r)) twin
    end;
    seen.(j) <- true;
    {
      wall;
      ops = r.Soak.events;
      samples = [| wall |];
      quality;
      state_bytes = heap_bytes r;
    }
  in
  let attribute a =
    match twin with
    | None ->
        let busy, _ = span_totals a.stats [ "control" ] in
        (busy, a.traced_wall, a.ops)
    | Some (twin_config, normalise) ->
        let matched = ref true in
        let extra =
          Array.mapi
            (fun j sc ->
              let t, twin_wall = timed (fun () -> completed (Soak.run sc twin_config)) in
              let same = digests.(j) = report_digest (normalise t) in
              check "mechanism twin ends in the same report and log" same;
              matched := !matched && same;
              a.walls.(j) -. twin_wall)
            inputs
        in
        ( (if !matched then sum extra else nan),
          sum a.walls,
          Array.fold_left ( + ) 0 baseline )
  in
  {
    setup = soak_setup inputs config;
    build = soak_build shape inputs;
    inputs = shape.count;
    run;
    mechanism = (match twin with None -> "control" | Some _ -> "solver.baseline_resolve");
    attribute;
    details = control_details totals;
  }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let n = in_channel_length ic in
      close_in ic;
      acc + n)
    0 (Sys.readdir dir)

(* soak-durable: a chaos soak with a state dir, killed mid-trace,
   restored and resumed to the end. The uninterrupted plain run of the
   same scenario is the reference: it fixes the kill point, its report
   and log must match the resumed run's byte for byte, and its wall is
   what the durable run costs without durability. *)
let durable_soak shape ~seed ~state_dir =
  let config = Soak.default_config in
  let inputs = Array.init shape.count (scenario shape ~seed ~delay:None) in
  let plain = Array.make shape.count None in
  let restores = Array.make shape.count [] in
  let checkpoints = Array.make shape.count 0 in
  let totals = ref [] in
  let matched = ref true in
  Generation.ensure_dir (Filename.dirname state_dir);
  let reference j =
    match plain.(j) with
    | Some p -> p
    | None ->
        let r = completed (Soak.run inputs.(j) config) in
        let p = (report_digest r, r.Soak.events) in
        plain.(j) <- Some p;
        p
  in
  let run j =
    let sc = inputs.(j) in
    let digest, events = reference j in
    let first = checkpoints.(j) = 0 in
    remove_tree state_dir;
    let t0 = Spans.now_ns () in
    (match run_soak ~state_dir ~kill_at_event:((100 * (events / 200)) + 50) sc config with
    | Soak.Killed _ -> ()
    | Soak.Completed _ -> failwith "durable soak was not killed");
    let restore, restore_s =
      timed (fun () ->
          Spans.wrap restore_id (fun () ->
              Recovery.restore ~dir:state_dir ~digest:(Soak.digest sc config)))
    in
    let resume_from = Option.map snd restore.Recovery.generation in
    let r = completed (run_soak ?resume_from ~state_dir sc config) in
    let wall = since t0 in
    restores.(j) <- restore_s :: restores.(j);
    if first then begin
      let same = report_digest r = digest in
      check "resumed soak report and log equal the uninterrupted run's" same;
      matched := !matched && same;
      check "Recovery.audit accepts the journal read before resuming"
        (match restore.Recovery.journal with
        | Some journal -> (
            match Recovery.audit ~journal ~restored:resume_from ~final_log:r.Soak.log with
            | Ok _ -> true
            | Error m ->
                prerr_endline m;
                false)
        | None -> false);
      add_counts totals r;
      checkpoints.(j) <- r.Soak.checkpoints
    end;
    {
      wall;
      ops = r.Soak.events;
      samples = [| wall |];
      quality = soak_quality ~check_it:first r;
      state_bytes = float_of_int (dir_bytes state_dir);
    }
  in
  let attribute a =
    let busy =
      Array.mapi
        (fun j sc ->
          let _, plain_wall = timed (fun () -> Soak.run sc config) in
          a.walls.(j) -. plain_wall -. median (Array.of_list restores.(j)))
        inputs
    in
    ((if !matched then sum busy else nan), sum a.walls, Array.fold_left ( + ) 0 checkpoints)
  in
  (* Per-call costs on the last input's own newest generation and journal. *)
  let details a =
    let per_call f = 1e3 *. median (Array.init 5 (fun _ -> snd (timed f))) in
    let newest =
      match Generation.latest ~dir:state_dir with
      | Some g -> Generation.path ~dir:state_dir g
      | None -> failwith "no checkpoint generation left to time"
    in
    let text = In_channel.with_open_bin newest In_channel.input_all in
    let state =
      match Checkpoint.decode text with Ok s -> s | Error m -> failwith m
    in
    let journal_path = Recovery.journal_path state_dir in
    let journal =
      match Journal.read journal_path with Ok j -> j | Error m -> failwith m
    in
    let scratch = Filename.concat (Filename.dirname state_dir) "save" in
    let save_ms =
      per_call (fun () -> ignore (Generation.save ~dir:scratch ~keep:1 state))
    in
    remove_tree scratch;
    let restore_s =
      median (Array.of_list (List.concat (Array.to_list restores)))
    in
    [
      Printf.sprintf "durability.restore_s %.6f" restore_s;
      Printf.sprintf "durability.journal_records %d" (List.length journal.Journal.records);
      Printf.sprintf "durability.journal_bytes %d"
        (In_channel.with_open_bin journal_path In_channel.length |> Int64.to_int);
      Printf.sprintf "durability.ckpt_bytes %d" (String.length text);
      Printf.sprintf "durability.ckpt_encode_ms %.4f"
        (per_call (fun () -> ignore (Checkpoint.encode state)));
      Printf.sprintf "durability.ckpt_decode_ms %.4f"
        (per_call (fun () -> ignore (Checkpoint.decode text)));
      Printf.sprintf "durability.generation_save_ms %.4f" save_ms;
      Printf.sprintf "durability.journal_read_ms %.4f"
        (per_call (fun () -> ignore (Journal.read journal_path)));
    ]
    @ control_details totals a
  in
  {
    setup = soak_setup inputs config;
    build = soak_build shape inputs;
    inputs = shape.count;
    run;
    mechanism = "durability";
    attribute;
    details;
  }

(* -- session-churn ----------------------------------------------------- *)

type churn_shape = {
  c_nodes : int;
  c_servers : int;
  c_clients : int;  (** sessions joined before the ticks *)
  ticks : int;
  c_count : int;  (** independent sessions in the pool *)
}

let tick_id = Spans.name "bench.tick"
let join_id = Spans.name "session.join"
let leave_id = Spans.name "session.leave"
let objective_id = Spans.name "session.objective"
let lower_bound_id = Spans.name "session.lower_bound"
let rebalance_id = Spans.name "session.rebalance"

(* A closed loop: each tick the 50 oldest sessions leave and 50 new ones
   join at random nodes, then the caller reads D and LB and allows a
   rebalance of at most 8 moves before the next tick. *)
let session_churn shape ~seed =
  let make j =
    let s = Hashtbl.hash (seed, j) in
    let matrix = Dia_latency.Synthetic.internet_like ~seed:s shape.c_nodes in
    let servers = Placement.random ~seed:s ~k:shape.c_servers ~n:shape.c_nodes in
    let session = Dynamic.create matrix ~servers in
    let rng = Random.State.make [| s |] in
    let live = Queue.create () in
    for _ = 1 to shape.c_clients do
      Queue.add (Dynamic.join session ~node:(Random.State.int rng shape.c_nodes)) live
    done;
    (session, live, rng)
  in
  let moves = ref 0 and rebalances = ref 0 in
  let run j =
    let session, live, rng = make j in
    let samples = Array.make shape.ticks 0. in
    let ratios = Array.make shape.ticks 0. in
    let start = Spans.now_ns () in
    for t = 0 to shape.ticks - 1 do
      let t0 = Spans.now_ns () in
      Spans.wrap tick_id (fun () ->
          for _ = 1 to 50 do
            let id = Queue.pop live in
            Spans.wrap leave_id (fun () -> Dynamic.leave session id)
          done;
          for _ = 1 to 50 do
            let node = Random.State.int rng shape.c_nodes in
            Queue.add (Spans.wrap join_id (fun () -> Dynamic.join session ~node)) live
          done;
          let d = Spans.wrap objective_id (fun () -> Dynamic.objective session) in
          let lb = Spans.wrap lower_bound_id (fun () -> Dynamic.lower_bound session) in
          ratios.(t) <- d /. lb;
          incr rebalances;
          moves :=
            !moves
            + Spans.wrap rebalance_id (fun () -> Dynamic.rebalance ~max_moves:8 session));
      samples.(t) <- since t0
    done;
    let wall = since start in
    check "session objective equals objective_scratch bit for bit"
      (same_bits (Dynamic.objective session) (Dynamic.objective_scratch session));
    check "session lower_bound equals lower_bound_scratch bit for bit"
      (same_bits (Dynamic.lower_bound session) (Dynamic.lower_bound_scratch session));
    {
      wall;
      ops = 100 * shape.ticks;
      samples;
      quality = sum ratios /. float_of_int shape.ticks;
      state_bytes = heap_bytes session;
    }
  in
  let details _ =
    [
      Printf.sprintf "session.rebalance.moves_per_call %.4f"
        (float_of_int !moves /. float_of_int (max 1 !rebalances));
    ]
  in
  {
    setup = (fun () -> ignore (make 0));
    build =
      (fun () ->
        ignore
          (Dia_latency.Synthetic.internet_like ~seed:(Hashtbl.hash (seed, 0)) shape.c_nodes));
    inputs = shape.c_count;
    run;
    mechanism = "session";
    attribute =
      (fun a ->
        let busy, calls = span_totals a.stats [ "session" ] in
        (busy, a.traced_wall, calls));
    details;
  }

(* -- offline-fig7 ------------------------------------------------------ *)

type cell = { strategy : Placement.strategy; k : int; placement_seed : int }

let place_id =
  List.map
    (fun s ->
      let key = String.map (function '-' -> '_' | c -> c) (Placement.strategy_name s) in
      (s, Spans.name ("placement." ^ key)))
    Placement.all_strategies

let problem_id = Spans.name "solver.problem"
let algorithm_id = List.map (fun a -> (a, Spans.name ("solver." ^ Algorithm.key a))) Algorithm.heuristics
let d_id = Spans.name "solver.objective"
let lb_id = Spans.name "solver.lower_bound"

(* Fig. 7's evaluation of one (placement, k) point, in Runner.evaluate's
   order: the instance, each heuristic's assignment and D(A), and the
   instance's lower bound. *)
let evaluate_cell matrix c =
  let servers =
    Spans.wrap (List.assoc c.strategy place_id) (fun () ->
        Placement.place c.strategy ~seed:c.placement_seed matrix ~k:c.k)
  in
  let p = Spans.wrap problem_id (fun () -> Problem.all_nodes_clients matrix ~servers) in
  let results =
    List.map
      (fun alg ->
        let a = Spans.wrap (List.assoc alg algorithm_id) (fun () -> Algorithm.run alg p) in
        (alg, a, Spans.wrap d_id (fun () -> Objective.max_interaction_path p a)))
      Algorithm.heuristics
  in
  (p, results, Spans.wrap lb_id (fun () -> Lower_bound.compute p))

let fig7_cells profile =
  List.concat_map
    (fun strategy ->
      let seeds =
        match strategy with
        | Placement.Random_placement -> List.init profile.Config.runs Fun.id
        | Placement.K_center_a | Placement.K_center_b -> [ 0 ]
      in
      List.concat_map
        (fun k -> List.map (fun placement_seed -> { strategy; k; placement_seed }) seeds)
        profile.Config.server_counts)
    Placement.all_strategies
  |> Array.of_list

(* One input is the whole sweep over one subsample: the rate of a single
   cell depends mostly on which cell it is, while whole sweeps over
   different subsamples differ little. The pool holds [sweeps]
   subsamples. *)
let offline_fig7 profile ~seed ~sweeps =
  let load j = Config.load_dataset ~seed:(Hashtbl.hash (seed, j)) Config.Meridian_like profile in
  let matrices = Array.make sweeps None in
  let matrix j =
    match matrices.(j) with
    | Some m -> m
    | None ->
        let m = load j in
        matrices.(j) <- Some m;
        m
  in
  let cells = fig7_cells profile in
  let state = Array.make sweeps nan in
  let run j =
    let m = matrix j in
    let first = Float.is_nan state.(j) in
    let cell_bytes = ref [] and ratios = ref [] in
    let samples =
      Array.map
        (fun c ->
          let (p, results, lb), wall = timed (fun () -> evaluate_cell m c) in
          if first then begin
            check "every offline D >= LB" (List.for_all (fun (_, _, d) -> d >= lb) results);
            cell_bytes := heap_bytes (p, results) :: !cell_bytes
          end;
          List.iter (fun (_, _, d) -> ratios := (d /. lb) :: !ratios) results;
          wall)
        cells
    in
    if first then state.(j) <- median (Array.of_list !cell_bytes);
    {
      wall = sum samples;
      ops = List.length !ratios;
      samples;
      quality = mean (Array.of_list !ratios);
      state_bytes = state.(j);
    }
  in
  (* The first subsample's cells fanned out over two domains, untraced. *)
  let details a =
    let m = matrix 0 in
    let _, jobs2 =
      timed (fun () ->
          Pool.with_pool ~jobs:2 (fun pool ->
              ignore (Pool.map_array pool (evaluate_cell m) cells)))
    in
    [ Printf.sprintf "parallel.jobs2_speedup %.4f" (a.walls.(0) /. jobs2) ]
  in
  {
    setup = (fun () -> ignore (load 0));
    build = (fun () -> ignore (load 0));
    inputs = sweeps;
    run;
    mechanism = "placement+solver";
    attribute =
      (fun a ->
        let busy, calls = span_totals a.stats [ "placement"; "solver" ] in
        (busy, a.traced_wall, calls));
    details;
  }

(* -- Workload table ---------------------------------------------------- *)

let state_dir = "_bench_state"

let smoke_profile = { Config.quick with nodes = Some 60; runs = 2; server_counts = [ 4; 8 ] }

let soak_shape ~smoke ~horizon ~clients ~count =
  if smoke then { nodes = 60; servers = 6; horizon = 60.; clients = min clients 60; count = 1 }
  else { nodes = 400; servers = 20; horizon; clients; count }

let workloads =
  [ "soak-chaos"; "soak-scale"; "soak-durable"; "soak-load"; "session-churn"; "offline-fig7" ]

let make_workload ~smoke ~seed name =
  let config = Soak.default_config in
  match name with
  | "soak-chaos" ->
      plain_soak
        (soak_shape ~smoke ~horizon:500. ~clients:0 ~count:176)
        ~seed ~delay:None ~config
  | "soak-scale" ->
      plain_soak
        (soak_shape ~smoke ~horizon:150. ~clients:300 ~count:64)
        ~seed ~delay:None ~config
  | "soak-durable" ->
      durable_soak
        (soak_shape ~smoke ~horizon:350. ~clients:0 ~count:40)
        ~seed
        ~state_dir:(Filename.concat state_dir "soak")
  | "soak-load" ->
      let normalise (r : Soak.report) =
        {
          r with
          Soak.digest = "";
          baseline_points = [];
          competitive_mean = nan;
          competitive_max = nan;
        }
      in
      plain_soak
        ~twin:({ config with Soak.offline_baseline = false }, normalise)
        (soak_shape ~smoke ~horizon:150. ~clients:50 ~count:64)
        ~seed ~delay:(Some mm1)
        ~config:{ config with Soak.offline_baseline = true }
  | "session-churn" ->
      session_churn ~seed
        (if smoke then
           { c_nodes = 60; c_servers = 6; c_clients = 300; ticks = 20; c_count = 1 }
         else
           { c_nodes = 400; c_servers = 20; c_clients = 10_000; ticks = 100; c_count = 64 })
  | "offline-fig7" ->
      if smoke then offline_fig7 ~seed ~sweeps:1 smoke_profile
      else
        offline_fig7 ~seed ~sweeps:8
          { Config.default with nodes = Some 600; runs = 4; server_counts = [ 20; 40; 60; 80; 100 ] }
  | other -> invalid_arg ("unknown workload " ^ other)

(* -- Measurement ------------------------------------------------------- *)

type result = {
  end_to_end : (string * float * string) list;
  per_layer : (string * float * string) list;
  attempted : int;
  lines : string list;  (** human-readable report *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

(* Set-up is timed at least five times and for at least a second (at
   most 50 times), so that its median is steady even when one set-up
   takes milliseconds. *)
let setup_times w =
  let rec go acc total n =
    if (n >= 5 && total >= 1.) || n >= 50 then Array.of_list acc
    else
      let _, t = timed w.setup in
      Gc.full_major ();
      go (t :: acc) (total +. t) (n + 1)
  in
  go [] 0. 0

let measure ~seconds ~trace w =
  let setups = setup_times w in
  let walls = Array.make w.inputs [] in
  let quality = Array.make w.inputs nan in
  let state = Array.make w.inputs nan in
  let ops = Array.make w.inputs 0 in
  let input_ref_s = Array.make w.inputs nan in
  let samples = ref [] and rates = ref [] and raw_rates = ref [] in
  let attempted = ref 0 in
  (* The reference second taken after one input is the one taken before
     the next. An input's own is the mean of the two around it. *)
  let reference = ref nan and ref_s = ref nan in
  (* Every input starts on a collected heap, so no input pays for the
     garbage of the one before it and peak memory is that of one input. *)
  let run_input j =
    Gc.full_major ();
    if Float.is_nan !reference then reference := reference_now ();
    let before = !reference in
    match w.run j with
    | o ->
        reference := reference_now ();
        ref_s := (before +. !reference) /. 2.;
        attempted := !attempted + o.ops;
        Some o
    | exception e ->
        reference := nan;
        incr attempted;
        incr failed;
        Printf.eprintf "input %d raised %s\n%!" j (Printexc.to_string e);
        None
  in
  let pass () =
    for j = 0 to w.inputs - 1 do
      match run_input j with
      | Some o ->
          walls.(j) <- o.wall :: walls.(j);
          quality.(j) <- o.quality;
          state.(j) <- o.state_bytes;
          ops.(j) <- o.ops;
          samples := o.samples :: !samples;
          input_ref_s.(j) <- !ref_s;
          rates := (float_of_int o.ops /. (o.wall /. !ref_s)) :: !rates;
          raw_rates := (float_of_int o.ops /. o.wall) :: !raw_rates
      | None -> ()
    done
  in
  (* One untimed run of the first input grows the heap and fills the
     caches, so the first timed pass is not the only one that pays for
     that. *)
  ignore (run_input 0);
  (* Allocation counts come from the first pass alone, so they repeat
     exactly for a given seed whatever the run length. *)
  let gc0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  pass ();
  let gc1 = Gc.quick_stat () in
  (* Stop before a pass that would overrun --seconds. A traced run
     spends its time on the traced pass below instead. *)
  let last = ref (since t0) in
  while (not trace) && since t0 +. !last <= seconds do
    let p0 = Spans.now_ns () in
    pass ();
    last := since p0
  done;
  let passes = List.length walls.(0) in
  let medians = Array.map (fun ws -> median (Array.of_list ws)) walls in
  let ok = List.filter (fun j -> walls.(j) <> []) (List.init w.inputs Fun.id) in
  let pass_ops = List.fold_left (fun acc j -> acc + ops.(j)) 0 ok in
  let pass_wall = List.fold_left (fun acc j -> acc +. medians.(j)) 0. ok in
  let all_samples = Array.concat !samples in
  let of_ok a = Array.of_list (List.map (fun j -> a.(j)) ok) in
  let end_to_end =
    [
      ("setup_s", median setups, "s");
      ("ops_per_ref_s", mean (Array.of_list !rates), "1/ref_s");
      ("state_mb", median (of_ok state) /. 1048576., "MiB");
      ("d_over_lb", median (of_ok quality), "ratio");
    ]
  in
  let ascending = sorted all_samples in
  let n = Array.length ascending in
  let lines =
    [
      Printf.sprintf "passes %d, inputs %d, ops per pass %d, pass wall %.3f s" passes
        w.inputs pass_ops pass_wall;
      Printf.sprintf "step p50 %.4f ms, p99 %.4f ms (n=%d, %d beyond p99)"
        (1e3 *. percentile ascending 0.5) (1e3 *. percentile ascending 0.99) n
        (n - int_of_float (Float.ceil (0.99 *. float_of_int n)));
      Printf.sprintf "mean input rate %.6g ops/s on the clock, %.6g ops/ref_s; reference second %.4f s"
        (mean (Array.of_list !raw_rates)) (mean (Array.of_list !rates))
        (median (of_ok input_ref_s));
    ]
  in
  if not trace then { end_to_end; per_layer = []; attempted = !attempted; lines }
  else begin
    let builds = Array.init 5 (fun _ -> snd (timed w.build)) in
    (* Each input runs once more, traced. The overhead compares its
       traced and untraced runs in reference seconds, so host drift
       between the two passes does not count as overhead. *)
    Spans.reset ();
    let pairs =
      List.filter_map
        (fun j ->
          Spans.enabled := true;
          let traced = run_input j in
          Spans.enabled := false;
          Option.map
            (fun t -> (j, t.wall, (t.wall /. !ref_s) /. (medians.(j) /. input_ref_s.(j))))
            traced)
        ok
    in
    let traced_wall = List.fold_left (fun acc (_, t, _) -> acc +. t) 0. pairs in
    let overhead = median (Array.of_list (List.map (fun (_, _, r) -> r -. 1.) pairs)) in
    let walls = Array.make w.inputs nan in
    List.iter (fun (j, _, _) -> walls.(j) <- medians.(j)) pairs;
    let a = { stats = Spans.stats (); walls; traced_wall; ops = pass_ops } in
    let busy, base, calls = w.attribute a in
    let covered =
      List.fold_left
        (fun acc (s : Spans.stat) ->
          if layer_of s.label = "bench" || s.label = "control.soak_run" then acc
          else acc +. s.self_s)
        0. a.stats
    in
    let words f = (f gc1 -. f gc0) /. float_of_int (max 1 pass_ops) in
    let per_layer =
      [
        ("runtime.peak_rss_mb", peak_rss_mb (), "MiB");
        ("substrate.build_s", median builds, "s");
        ("mechanism.busy_s", busy, "s");
        ("mechanism.share", busy /. base, "share");
        ("mechanism.calls", float_of_int calls, "count");
        ("mechanism.call_us", 1e6 *. busy /. float_of_int (max 1 calls), "us");
        ("trace.overhead", overhead, "share");
        ("runtime.minor_words_per_op", words (fun g -> g.Gc.minor_words), "words");
        ("runtime.promoted_words_per_op", words (fun g -> g.Gc.promoted_words), "words");
      ]
    in
    let span_lines =
      List.map
        (fun (s : Spans.stat) ->
          let n = Array.length s.durations in
          Printf.sprintf "%-28s calls %8d  self %9.4f s  p50 %10.2f us  p99 %10.2f us (n=%d)"
            s.label s.calls s.self_s (1e6 *. percentile s.durations 0.5)
            (1e6 *. percentile s.durations 0.99) n)
        a.stats
    in
    let layers =
      List.sort_uniq compare (List.map (fun (s : Spans.stat) -> layer_of s.label) a.stats)
    in
    let layer_lines =
      List.map
        (fun l ->
          let b, c = span_totals a.stats [ l ] in
          Printf.sprintf "layer %-10s self %9.4f s  %5.1f%% of traced wall  calls %d" l b
            (100. *. b /. traced_wall) c)
        layers
    in
    {
      end_to_end;
      per_layer;
      attempted = !attempted;
      lines =
        lines @ span_lines @ layer_lines
        @ [
            Printf.sprintf "coverage %.4f (layer self time / traced wall; Soak.run unattributed)"
              (covered /. traced_wall);
            Printf.sprintf
              "tracing overhead %+.4f (median over inputs of traced / untraced time in \
               reference seconds - 1; traced pass %.3f s, %d spans dropped)"
              overhead traced_wall !Spans.dropped;
            (if Float.is_nan busy then
               Printf.sprintf "mechanism: %s not attributed (its twin run differs)" w.mechanism
             else
               Printf.sprintf "mechanism: %s owns %.1f%% of the wall (%.4f of %.4f s, %d calls)"
                 w.mechanism (100. *. busy /. base) busy base calls);
          ]
        @ w.details a;
    }
  end

(* -- Output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    incr failed;
    Printf.eprintf "non-finite metric value\n%!";
    "0"
  end

let print_result ~metrics r =
  List.iter print_endline r.lines;
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %.6g %s\n" name v unit) metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (r.attempted + !checks) !failed (String.concat ", " fields)

(* -- Smoke ------------------------------------------------------------- *)

(* The bench-driven Fig. 7 loop must reproduce Fig7.run's normalised
   values bit for bit: random placement averages over seeds exactly as
   Runner.average_normalized does (values collected newest first). *)
let check_fig7_identity () =
  let open Dia_experiments.Fig7 in
  let profile = smoke_profile in
  let reference = run ~dataset:Config.Meridian_like ~profile ~jobs:1 () in
  let matrix = Config.load_dataset Config.Meridian_like profile in
  let normalized c alg =
    let _, results, lb = evaluate_cell matrix c in
    let _, _, d = List.find (fun (a, _, _) -> a = alg) results in
    d /. lb
  in
  List.iter
    (fun panel ->
      List.iter
        (fun pt ->
          let strategy = panel.strategy and k = pt.servers in
          let ours =
            match strategy with
            | Placement.Random_placement ->
                let values =
                  List.init profile.runs (fun placement_seed ->
                      normalized { strategy; k; placement_seed } pt.algorithm)
                in
                (Dia_stats.Summary.of_list (List.rev values)).Dia_stats.Summary.mean
            | Placement.K_center_a | Placement.K_center_b ->
                normalized { strategy; k; placement_seed = 0 } pt.algorithm
          in
          check
            (Printf.sprintf "fig7 %s k=%d %s matches Fig7.run"
               (Placement.strategy_name strategy) k (Algorithm.key pt.algorithm))
            (same_bits ours pt.normalized))
        panel.points)
    reference.panels

let smoke () =
  check_fig7_identity ();
  List.iter
    (fun name ->
      let before = !failed in
      let r, wall =
        timed (fun () -> measure ~seconds:0. ~trace:true (make_workload ~smoke:true ~seed:7 name))
      in
      Printf.printf "smoke %-14s %s in %.2f s (%d ops)\n%!" name
        (if !failed = before then "ok" else "FAILED")
        wall r.attempted)
    workloads;
  remove_tree state_dir;
  Printf.printf "smoke: %d checks, %d failed\n" !checks !failed;
  exit (if !failed = 0 then 0 else 1)

(* -- Main -------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10. in
  let trace = ref 0 and spans = ref "" and smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics from a traced pass");
      ("--spans", Arg.Set_string spans, "FILE write the traced pass's spans as CSV");
      ("--smoke", Arg.Set smoke_mode, " run every workload at tiny size with all checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "benchmark.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --smoke";
  if !smoke_mode then smoke ();
  if not (List.mem !workload workloads) then begin
    prerr_endline ("benchmark: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let trace = !trace = 1 in
  let r =
    measure ~seconds:!seconds ~trace (make_workload ~smoke:false ~seed:!seed !workload)
  in
  remove_tree state_dir;
  if trace && !spans <> "" then Spans.write !spans;
  Printf.printf "workload %s seed %d\n" !workload !seed;
  print_result ~metrics:(if trace then r.per_layer else r.end_to_end) r;
  exit (if !failed = 0 then 0 else 1)
