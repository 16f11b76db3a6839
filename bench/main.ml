(* Benchmark and reproduction harness.

   Two halves:

   1. Figure regeneration — prints the rows/series of every figure in the
      paper's evaluation (Figs. 7, 8, 9, 10), at the profile named by the
      DIA_PROFILE environment variable (quick | default | full; default
      "quick" so `dune exec bench/main.exe` completes in minutes on one
      core — `full` is the paper's exact scale).

   2. Bechamel micro-benchmarks — one Test.make per experiment kernel and
      per ablation called out in DESIGN.md: fast vs naive objective
      evaluation, pruned vs naive lower bound, the four assignment
      algorithms, and the two K-center placements. Plus a quality (not
      time) ablation: Distributed-Greedy initialised from Nearest-Server
      vs from a random assignment. *)

open Bechamel

module Algorithm = Dia_core.Algorithm
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Placement = Dia_placement.Placement
module Config = Dia_experiments.Config
module Pool = Dia_parallel.Pool

let profile =
  match Sys.getenv_opt "DIA_PROFILE" with
  | None -> Config.quick
  | Some name -> (
      match Config.profile_of_string name with
      | Some p -> p
      | None ->
          Printf.eprintf "unknown DIA_PROFILE %S; using quick\n" name;
          Config.quick)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* -- Part 1: figure regeneration ---------------------------------------- *)

let regenerate_figures () =
  section "Fig. 7 — normalized interactivity vs number of servers";
  print_endline (Dia_experiments.Fig7.render (Dia_experiments.Fig7.run ~profile ()));
  section "Fig. 8 — CDF of normalized interactivity (random placement)";
  print_endline (Dia_experiments.Fig8.render (Dia_experiments.Fig8.run ~profile ()));
  section "Fig. 9 — Distributed-Greedy convergence";
  print_endline (Dia_experiments.Fig9.render (Dia_experiments.Fig9.run ~profile ()));
  section "Fig. 9 (extension) — convergence vs server count";
  print_endline
    (Dia_experiments.Fig9.render_sweep (Dia_experiments.Fig9.sweep ~profile ()));
  section "Fig. 10 — impact of server capacity";
  print_endline (Dia_experiments.Fig10.render (Dia_experiments.Fig10.run ~profile ()))

(* -- Quality ablation: Distributed-Greedy initialisation ----------------- *)

let dgreedy_init_ablation () =
  section "Ablation — Distributed-Greedy initial assignment (quality, not time)";
  let matrix = Config.load_dataset Config.Meridian_like Config.quick in
  let table =
    Dia_stats.Table.make
      ~columns:[ "k"; "init=nearest D/LB"; "init=random D/LB"; "nearest mods"; "random mods" ]
  in
  List.iter
    (fun k ->
      let servers = Placement.random ~seed:1 ~k ~n:(Dia_latency.Matrix.dim matrix) in
      let p = Problem.all_nodes_clients matrix ~servers in
      let lb = Lower_bound.compute p in
      let from_nearest = Dia_core.Distributed_greedy.run p in
      let from_random =
        Dia_core.Distributed_greedy.run ~initial:(Assignment.random p ~seed:7) p
      in
      let score (r : Dia_core.Distributed_greedy.result) =
        Objective.max_interaction_path p r.assignment /. lb
      in
      Dia_stats.Table.add_row table
        [
          string_of_int k;
          Printf.sprintf "%.3f" (score from_nearest);
          Printf.sprintf "%.3f" (score from_random);
          string_of_int from_nearest.stats.modifications;
          string_of_int from_random.stats.modifications;
        ])
    [ 10; 20; 40; 80 ];
  Dia_stats.Table.print table

(* -- Related-work baseline: client-server-latency-only assignment ------- *)

let related_work_comparison () =
  section "Extension — related-work baseline (client-server latency only)";
  print_endline
    "(Section VI: prior work optimises only client-to-server latency; the\n\
     zone-based two-phase strategy implements it — and pays on the paper's\n\
     objective)";
  let matrix = Config.load_dataset Config.Meridian_like Config.quick in
  let table =
    Dia_stats.Table.make
      ~columns:[ "k"; "Zone-Based"; "Nearest-Server"; "Greedy"; "Distributed-Greedy" ]
  in
  List.iter
    (fun k ->
      let servers = Placement.random ~seed:2 ~k ~n:(Dia_latency.Matrix.dim matrix) in
      let p = Problem.all_nodes_clients matrix ~servers in
      let lb = Lower_bound.compute p in
      let score a = Objective.max_interaction_path p a /. lb in
      Dia_stats.Table.add_row table
        [
          string_of_int k;
          Printf.sprintf "%.3f" (score (Dia_core.Zone_based.assign p));
          Printf.sprintf "%.3f" (score (Dia_core.Nearest.assign p));
          Printf.sprintf "%.3f" (score (Dia_core.Greedy.assign p));
          Printf.sprintf "%.3f" (score (Dia_core.Distributed_greedy.assign p));
        ])
    [ 10; 20; 40; 80 ];
  Dia_stats.Table.print table

(* -- Robustness: protocol cost vs message loss rate ----------------------- *)

let fault_sweep () =
  section "Extension — Distributed-Greedy protocol under message loss";
  print_endline
    "(seeded fault injection; same instance at every loss rate — message\n\
     count and simulated wall-clock grow with loss while the reliable\n\
     transport keeps the final objective pinned to the fault-free run)";
  let n = 60 and k = 5 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:21 n in
  let servers = Placement.random ~seed:21 ~k ~n in
  let p = Problem.all_nodes_clients matrix ~servers in
  let table =
    Dia_stats.Table.make
      ~columns:
        [ "loss rate"; "final D"; "messages"; "retransmissions"; "dropped";
          "sim wall-clock (ms)" ]
  in
  List.iter
    (fun rate ->
      let fault =
        if rate = 0. then None
        else Some (Dia_sim.Fault.instantiate ~seed:21 (Dia_sim.Fault.loss ~rate ()))
      in
      let r = Dia_sim.Dgreedy_protocol.run ?fault p in
      Dia_stats.Table.add_row table
        [
          Printf.sprintf "%.2f" rate;
          Printf.sprintf "%.1f" r.Dia_sim.Dgreedy_protocol.objective;
          string_of_int r.Dia_sim.Dgreedy_protocol.messages;
          string_of_int r.Dia_sim.Dgreedy_protocol.faults.retransmissions;
          string_of_int r.Dia_sim.Dgreedy_protocol.faults.dropped;
          Printf.sprintf "%.0f" r.Dia_sim.Dgreedy_protocol.wall_duration;
        ])
    [ 0.; 0.05; 0.1; 0.2; 0.3 ];
  Dia_stats.Table.print table

(* -- Runtime scaling: one timed run per (n, algorithm) ------------------- *)

let scaling_table () =
  section "Extension — runtime scaling (one run each, CPU milliseconds)";
  let table =
    Dia_stats.Table.make
      ~columns:[ "n (k = n/20)"; "NSA"; "LFB"; "Greedy"; "D-Greedy"; "lower bound" ]
  in
  List.iter
    (fun n ->
      let k = max 2 (n / 20) in
      let matrix = Dia_latency.Synthetic.internet_like ~seed:9 n in
      let servers = Placement.random ~seed:9 ~k ~n in
      let p = Problem.all_nodes_clients matrix ~servers in
      let time f =
        let t0 = Sys.time () in
        ignore (f ());
        Printf.sprintf "%.1f" ((Sys.time () -. t0) *. 1000.)
      in
      Dia_stats.Table.add_row table
        [
          Printf.sprintf "%d" n;
          time (fun () -> Dia_core.Nearest.assign p);
          time (fun () -> Dia_core.Longest_first_batch.assign p);
          time (fun () -> Dia_core.Greedy.assign p);
          time (fun () -> Dia_core.Distributed_greedy.assign p);
          time (fun () -> Lower_bound.compute p);
        ])
    [ 100; 200; 400; 800; 1600 ];
  Dia_stats.Table.print table

(* -- Part 2: bechamel micro-benchmarks ----------------------------------- *)

(* A mid-sized instance so each timed kernel runs in well under a second. *)
let bench_matrix = Dia_latency.Synthetic.internet_like ~seed:3 300
let bench_servers = Placement.random ~seed:3 ~k:20 ~n:300
let bench_problem = Problem.all_nodes_clients bench_matrix ~servers:bench_servers
let bench_assignment = Dia_core.Nearest.assign bench_problem

(* Small instance for the naive-vs-fast comparisons (naive is O(n^2) /
   O(n^2 k^2) and would dominate the run otherwise). *)
let small_matrix = Dia_latency.Synthetic.internet_like ~seed:4 120
let small_servers = Placement.random ~seed:4 ~k:8 ~n:120
let small_problem = Problem.all_nodes_clients small_matrix ~servers:small_servers
let small_assignment = Dia_core.Nearest.assign small_problem

(* Churn-throughput kernels: a live Dynamic session held at a steady
   population while each run replays a balanced batch of leaves and
   joins plus one budgeted rebalance — the control plane's steady-state
   work. Clients share the 400 nodes of the matrix (many clients per
   node, as in a real deployment), so the population — not the matrix —
   is what scales. The id queue persists across runs: every run leaves
   the oldest [batch] clients and admits [batch] fresh ones, keeping
   the session size constant no matter how many times bechamel calls
   the kernel. *)
let churn_nodes = 400
let churn_matrix = Dia_latency.Synthetic.internet_like ~seed:6 churn_nodes
let churn_servers = Placement.random ~seed:6 ~k:10 ~n:churn_nodes

let make_churn_kernel ~clients =
  let session = Dia_core.Dynamic.create churn_matrix ~servers:churn_servers in
  let live = Queue.create () in
  for i = 0 to clients - 1 do
    Queue.add (Dia_core.Dynamic.join session ~node:(i mod churn_nodes)) live
  done;
  let batch = 50 in
  let cursor = ref 0 in
  fun () ->
    for _ = 1 to batch do
      Dia_core.Dynamic.leave session (Queue.pop live);
      let node = !cursor mod churn_nodes in
      incr cursor;
      Queue.add (Dia_core.Dynamic.join session ~node) live
    done;
    Dia_core.Dynamic.rebalance ~max_moves:8 session

(* Weighted-churn kernel: the same steady-state batch, but the million
   sessions sit behind a coreset bucket layer, so the Dynamic only ever
   holds one member per occupied cell and each leave/join is a counter
   bump. The objective and lower bound are queried every batch — the
   incremental caches are the other half of what keeps this flat in the
   session count. *)
let make_weighted_churn_kernel ~clients ~eps =
  let w =
    Dia_coreset.Weighted.create ~seed:6 ~eps churn_matrix
      ~servers:churn_servers
  in
  let live = Queue.create () in
  for i = 0 to clients - 1 do
    let node = i mod churn_nodes in
    Dia_coreset.Weighted.add w ~node;
    Queue.add node live
  done;
  let batch = 50 in
  let cursor = ref 0 in
  fun () ->
    for _ = 1 to batch do
      Dia_coreset.Weighted.remove w ~node:(Queue.pop live);
      let node = !cursor mod churn_nodes in
      incr cursor;
      Dia_coreset.Weighted.add w ~node;
      Queue.add node live
    done;
    Dia_coreset.Weighted.objective w +. Dia_coreset.Weighted.lower_bound w

(* Coreset construction: bucket a 10k-client population (round-robin
   over the 400 nodes) and certify the radius — the O(|C|·|S|) offline
   path `dia assign --coreset-eps` pays once per instance. *)
let coreset_build_clients =
  Array.init 10_000 (fun i -> i mod churn_nodes)

(* Durability kernels. journal/append measures the write-ahead hot path
   the soak loop pays per event batch — record framing, CRC-32 and the
   batched flush — against the null device, so the number is the
   journalling cost itself, not the disk. recovery/replay measures the
   read side: parsing and CRC-verifying a 10k-record journal, the work
   `--resume --state-dir` does before the deterministic re-execution. *)
let journal_payload =
  let b = Buffer.create 96 in
  Buffer.add_string b
    "t=12.5 join session=421 client=87 server=3\nt=12.5 drained session=17 \
     client=88 server=1\n";
  b

let make_journal_append_kernel ~batch =
  let w =
    Dia_runtime.Journal.create ~path:Filename.null ~digest:"bench" ()
  in
  let cursor = ref 0 in
  fun () ->
    for _ = 1 to batch do
      Dia_runtime.Journal.append w ~cursor:!cursor journal_payload;
      incr cursor
    done

(* journal/event: one soak event's history rendered and appended, as
   the soak's journal step does — the event's log entries into one
   reusable buffer, its sampled points into another, then one record.
   The event is a join at a full-precision event time that also moved
   the SLO, with the trace point its lower-bound refresh sampled. *)
let make_journal_event_kernel () =
  let module Event_log = Dia_runtime.Event_log in
  let w = Dia_runtime.Journal.create ~path:Filename.null ~digest:"bench" () in
  let time = 211.83960574710393 and ratio = 1.2403508771929825 in
  let entries =
    [
      { Event_log.time; kind = Event_log.Join { session = 1021; client = 87; server = 3 } };
      {
        Event_log.time;
        kind =
          Event_log.Transition
            { from_ = Dia_runtime.Slo.Healthy; to_ = Dia_runtime.Slo.Degraded; ratio;
              objective = "d" };
      };
    ]
  in
  let trace = [ (time, 243.07414659520735, ratio) ] in
  let lines = Buffer.create 256 and points = Buffer.create 256 in
  let cursor = ref 0 in
  fun () ->
    Buffer.clear lines;
    List.iter (Event_log.add_line lines) entries;
    Buffer.clear points;
    Dia_runtime.Checkpoint.add_points points ~trace ~baseline:[];
    Dia_runtime.Journal.append w ~cursor:!cursor ~points lines;
    incr cursor

let replay_journal_path =
  let path = Filename.temp_file "dia_bench_journal" ".wal" in
  let w = Dia_runtime.Journal.create ~path ~digest:"bench" () in
  for cursor = 0 to 9_999 do
    Dia_runtime.Journal.append w ~cursor journal_payload
  done;
  Dia_runtime.Journal.close w;
  path

(* checkpoint/generation-save: write one checkpoint generation (encode,
   tmp write, rename, prune) of a state captured at the last event of a
   soak of the end-to-end benchmark's soak-durable shape — 400 nodes, 20
   servers, 5 joins per time unit, three crash windows, about 2 700
   events. The state is the in-memory one a kill hands back, history
   attached, so the kernel measures whatever the checkpoint format
   chooses to write of it. *)
let generation_save_kernel () =
  let module Soak = Dia_runtime.Soak in
  let scenario =
    {
      Soak.default_scenario with
      Soak.seed = 7;
      nodes = 400;
      servers = 20;
      horizon = 350.;
      join_rate = 5.;
      mean_lifetime = 200.;
      fault =
        (match
           Dia_sim.Fault.of_string
             "loss:0.1+crash:2@35~105+crash:5@175~245+crash:11@303.333~350"
         with
        | Ok p -> p
        | Error m -> failwith m);
    }
  in
  let st =
    match Soak.run scenario Soak.default_config with
    | Soak.Killed _ -> assert false
    | Soak.Completed r -> (
        match
          Soak.run ~kill_at_event:(r.Soak.events - 1) scenario Soak.default_config
        with
        | Soak.Killed st -> st
        | Soak.Completed _ -> assert false)
  in
  let dir = Filename.temp_dir "dia_bench_ckpt" "" in
  fun () -> Dia_runtime.Generation.save ~dir ~keep:1 st

(* soak/load-baseline: one soak of the end-to-end benchmark's soak-load
   shape — 400 nodes, 20 servers, 50 base sessions, horizon 150, 5 joins
   per time unit, three crash windows, the M/M/1 delay model mm1:200 —
   with the offline-baseline stream on, so every lower-bound refresh
   samples a Greedy re-solve of the survivor problem under the delay
   model. *)
let load_baseline_kernel () =
  let module Soak = Dia_runtime.Soak in
  let parse = function Ok v -> v | Error m -> failwith m in
  let scenario =
    {
      Soak.default_scenario with
      Soak.seed = 7;
      nodes = 400;
      servers = 20;
      horizon = 150.;
      join_rate = 5.;
      mean_lifetime = 200.;
      clients = 50;
      fault =
        parse (Dia_sim.Fault.of_string "loss:0.1+crash:2@15~45+crash:5@75~105+crash:11@130~150");
      delay = Some (parse (Dia_core.Delay.of_string "mm1:200"));
    }
  in
  let config = { Soak.default_config with Soak.offline_baseline = true } in
  fun () -> Soak.run scenario config

(* Failover kernel: the same steady session, but each run takes down
   the currently most-loaded server (so the victim always carries a
   real population, whatever the redistribution dynamics did) and
   brings it back up. Each orphan is re-homed by the join rule, an
   objective scan per orphan — what the control plane pays on every
   crash. *)
let make_failover_kernel ~clients =
  let session = Dia_core.Dynamic.create churn_matrix ~servers:churn_servers in
  for i = 0 to clients - 1 do
    ignore (Dia_core.Dynamic.join session ~node:(i mod churn_nodes))
  done;
  let k = Array.length churn_servers in
  fun () ->
    let victim = ref 0 in
    for s = 1 to k - 1 do
      if Dia_core.Dynamic.load session s > Dia_core.Dynamic.load session !victim
      then victim := s
    done;
    ignore (Dia_core.Dynamic.fail_server session !victim);
    Dia_core.Dynamic.recover_server session !victim

(* Lower-bound rebuild: a session shaped like the end-to-end
   benchmark's soak-scale sessions — 300 clients on random nodes of the
   400-node churn matrix, about 210 of them occupied, 20 servers. Each
   run toggles server 0's drift between 1 and 1.25, which invalidates
   the cached bound as a crash, recovery or drift does in a soak, and
   queries it, so the query pays a full rebuild. The toggle also
   rescales a matrix row and re-files server 0's members;
   session/drift-toggle times that alone on a twin session, so the
   rebuild is the difference of the two rows. *)
let make_lb_rebuild_kernel ~query =
  let servers = Placement.random ~seed:6 ~k:20 ~n:churn_nodes in
  let session = Dia_core.Dynamic.create churn_matrix ~servers in
  let rng = Random.State.make [| 6 |] in
  for _ = 1 to 300 do
    ignore (Dia_core.Dynamic.join session ~node:(Random.State.int rng churn_nodes))
  done;
  let up = ref false in
  fun () ->
    up := not !up;
    Dia_core.Dynamic.set_drift session ~server:0 ~factor:(if !up then 1.25 else 1.);
    if query then Dia_core.Dynamic.lower_bound session else nan

(* Pre-population: 300 joins at seeded random nodes on a fresh session
   over the 400-node churn matrix with 20 servers — the base sessions a
   soak-scale soak joins before its trace. About 210 nodes end up
   occupied, so most joins extend the cached lower bound. *)
let make_populate_kernel () =
  let servers = Placement.random ~seed:6 ~k:20 ~n:churn_nodes in
  let rng = Random.State.make [| 6 |] in
  let nodes = Array.init 300 (fun _ -> Random.State.int rng churn_nodes) in
  fun () ->
    let session = Dia_core.Dynamic.create churn_matrix ~servers in
    Array.iter (fun node -> ignore (Dia_core.Dynamic.join session ~node)) nodes;
    session

(* Each kernel is [(calls, make)]. [make] builds the kernel's state
   just before it is timed, so only that kernel's state is live while it
   runs: bechamel compacts the heap before every sample, and the quota
   counts the compactions, so state left over from earlier kernels
   (a million-session coreset, 10k-client sessions, a soak's end state)
   used to cost each later kernel most of its samples. A kernel under
   about a millisecond runs [calls] calls per bechamel run, enough for a
   run to last a few milliseconds, so host noise on short samples does
   not swamp the fit; [measure_benchmarks] divides the estimate back
   down to one call. *)
let kernel ?(calls = 1) name make =
  ( calls,
    fun () ->
      let f = make () in
      Test.make ~name
        (Staged.stage (fun () ->
             for _ = 1 to calls do
               ignore (Sys.opaque_identity (f ()))
             done)) )

(* Repair-epoch plan: the survivor problem of a soak-scale Critical
   escalation — 310 sessions on random nodes of the 400-node churn
   matrix, 20 live servers — planned by Distributed-Greedy, as the soak
   control plane's protocol epoch does. *)
let make_epoch_plan_kernel () =
  let servers = Placement.random ~seed:6 ~k:20 ~n:churn_nodes in
  let rng = Random.State.make [| 6 |] in
  let clients = Array.init 310 (fun _ -> Random.State.int rng churn_nodes) in
  let p = Problem.make ~latency:churn_matrix ~servers ~clients () in
  fun () -> Dia_core.Distributed_greedy.run p

(* Substrate kernels: the 400-node matrix a soak-scale or soak-chaos run
   generates, in full and with only its 20 server rows, as a classic-mode
   soak builds it. *)
let substrate_servers = Placement.random ~seed:7 ~k:20 ~n:churn_nodes

(* A soak's first drift: a fresh session over the 20-row matrix, then
   one [set_drift], which copies the pristine matrix before patching
   the drifted server's row. Each run creates its session, because only
   a session's first drift copies. *)
let make_first_drift_kernel () =
  let matrix =
    Dia_latency.Synthetic.internet_like ~rows:substrate_servers ~seed:7 churn_nodes
  in
  fun () ->
    let session = Dia_core.Dynamic.create matrix ~servers:substrate_servers in
    Dia_core.Dynamic.set_drift session ~server:0 ~factor:1.25;
    session

let tests =
  [
    kernel "substrate/internet_like(n=400)" (fun () () ->
        Dia_latency.Synthetic.internet_like ~seed:7 churn_nodes);
    kernel "substrate/internet_like(n=400,rows=20)" (fun () () ->
        Dia_latency.Synthetic.internet_like ~rows:substrate_servers ~seed:7 churn_nodes);
    kernel ~calls:10 "session/first-drift(n=400,k=20)" make_first_drift_kernel;
    kernel ~calls:1000 "objective/fast(n=120)" (fun () () ->
        Objective.max_interaction_path small_problem small_assignment);
    kernel ~calls:5 "objective/naive(n=120)" (fun () () ->
        Dia_oracle.Reference.max_interaction_path small_problem small_assignment);
    kernel ~calls:50 "lower-bound/pruned(n=120)" (fun () () -> Lower_bound.compute small_problem);
    kernel "lower-bound/naive(n=120)" (fun () () -> Dia_oracle.Reference.lower_bound small_problem);
    kernel ~calls:15 "assign/nearest(n=300,k=20)" (fun () () ->
        Dia_core.Nearest.assign bench_problem);
    kernel ~calls:7 "assign/lfb(n=300,k=20)" (fun () () ->
        Dia_core.Longest_first_batch.assign bench_problem);
    kernel ~calls:3 "assign/greedy(n=300,k=20)" (fun () () -> Dia_core.Greedy.assign bench_problem);
    kernel "assign/greedy-load(n=300,k=20)" (fun () () ->
        Dia_core.Greedy.assign ~delay:(Dia_core.Delay.Queueing { mu = 40. })
          bench_problem);
    kernel "assign/greedy-reference(n=300,k=20)" (fun () () ->
        Dia_oracle.Reference.greedy bench_problem);
    kernel "assign/dgreedy(n=300,k=20)" (fun () () ->
        Dia_core.Distributed_greedy.assign bench_problem);
    kernel ~calls:300 "objective/fast(n=300)" (fun () () ->
        Objective.max_interaction_path bench_problem bench_assignment);
    kernel ~calls:300 "delay/objective(n=300)" (fun () () ->
        Objective.max_interaction_path ~delay:(Dia_core.Delay.Queueing { mu = 40. })
          bench_problem bench_assignment);
    kernel ~calls:5 "lower-bound/pruned(n=300)" (fun () () -> Lower_bound.compute bench_problem);
    kernel ~calls:15 "placement/kcenter-2approx(n=300,k=20)" (fun () () ->
        Dia_placement.Kcenter.two_approx bench_matrix ~k:20);
    kernel ~calls:5 "placement/kcenter-greedy(n=300,k=20)" (fun () () ->
        Dia_placement.Kcenter.greedy bench_matrix ~k:20);
    (* One Fig. 7 K-center-B placement: a 600-node Meridian-like
       subsample, as the offline-fig7 benchmark sweeps, at k = 60. *)
    kernel ~calls:2 "placement/kcenter-greedy(n=600,k=60)" (fun () ->
        let m =
          Config.load_dataset ~seed:3 Config.Meridian_like
            { Config.default with nodes = Some 600 }
        in
        fun () -> Dia_placement.Kcenter.greedy m ~k:60);
    kernel ~calls:100 "clock/synthesize(n=300,k=20)" (fun () () ->
        Dia_core.Clock.synthesize bench_problem bench_assignment);
    kernel "search/hill-climb(n=120,k=8)" (fun () () ->
        Dia_core.Local_search.hill_climb small_problem small_assignment);
    kernel "vivaldi/embed(n=120,r=15)" (fun () () ->
        Dia_latency.Vivaldi.embed_matrix ~rounds:15 small_matrix);
    kernel ~calls:10 "topology/transit-stub(n=400)" (fun () () ->
        Dia_latency.Topology.generate ~seed:1 ());
    kernel "sim/protocol-round(n=120,k=8)" (fun () () ->
        let clock = Dia_core.Clock.synthesize small_problem small_assignment in
        let workload = Dia_sim.Workload.burst ~clients:120 ~at:0. in
        Dia_sim.Protocol.run small_problem small_assignment clock workload);
    kernel "sim/dgreedy-protocol(n=120,k=8)" (fun () () ->
        Dia_sim.Dgreedy_protocol.run small_problem);
    kernel ~calls:20 "churn/steady-state(clients=1000)" (fun () ->
        make_churn_kernel ~clients:1_000);
    kernel ~calls:4 "churn/steady-state(clients=10000)" (fun () ->
        make_churn_kernel ~clients:10_000);
    kernel ~calls:500 "churn/steady-state(weighted n=1M)" (fun () ->
        make_weighted_churn_kernel ~clients:1_000_000 ~eps:0.1);
    kernel "coreset/build(clients=10000,k=10)" (fun () () ->
        Dia_coreset.Coreset.build ~seed:6 ~eps:0.1 churn_matrix ~servers:churn_servers
          ~clients:coreset_build_clients);
    kernel ~calls:100 "journal/append(batch=50)" (fun () -> make_journal_append_kernel ~batch:50);
    kernel ~calls:1000 "journal/event" make_journal_event_kernel;
    kernel "recovery/replay(n=10k)" (fun () () ->
        match Dia_runtime.Journal.read replay_journal_path with
        | Ok j -> List.length j.Dia_runtime.Journal.records
        | Error m -> failwith m);
    kernel ~calls:30 "checkpoint/generation-save(events=2700)" generation_save_kernel;
    kernel "failover/rehome(clients=1000)" (fun () ->
        make_failover_kernel ~clients:1_000);
    kernel "failover/rehome(clients=10000)" (fun () ->
        make_failover_kernel ~clients:10_000);
    kernel ~calls:5 "session/lb-rebuild(occupied≈210,k=20)" (fun () ->
        make_lb_rebuild_kernel ~query:true);
    kernel ~calls:50 "session/drift-toggle(occupied≈210,k=20)" (fun () ->
        make_lb_rebuild_kernel ~query:false);
    kernel "session/populate(clients=300,k=20)" make_populate_kernel;
    kernel ~calls:10 "soak/epoch-plan(survivors=310,k=20)" make_epoch_plan_kernel;
    kernel "soak/load-baseline(clients=50,horizon=150)" load_baseline_kernel;
  ]

(* -- Quality ablation: achievable optimum (annealing) vs the lower bound -- *)

let achievable_gap_ablation () =
  section "Ablation — how loose is the super-optimal lower bound?";
  print_endline
    "(the paper normalises against an unachievable bound; simulated annealing\n\
     gives an achievable reference, so gap-to-annealed isolates real\n\
     suboptimality from bound looseness)";
  let table =
    Dia_stats.Table.make
      ~columns:[ "instance"; "LB"; "annealed D"; "greedy D"; "dgreedy D";
                 "annealed/LB"; "greedy/annealed" ]
  in
  List.iter
    (fun (seed, n, k) ->
      let matrix = Dia_latency.Synthetic.internet_like ~seed n in
      let servers = Placement.random ~seed ~k ~n in
      let p = Problem.all_nodes_clients matrix ~servers in
      let lb = Lower_bound.compute p in
      let greedy = Objective.max_interaction_path p (Dia_core.Greedy.assign p) in
      let dgreedy =
        Objective.max_interaction_path p (Dia_core.Distributed_greedy.assign p)
      in
      (* Anneal from the best heuristic start: best-ever tracking makes
         the result an upper bound on both, i.e. a true achievable
         reference. *)
      let start =
        if greedy <= dgreedy then Dia_core.Greedy.assign p
        else Dia_core.Distributed_greedy.assign p
      in
      (* Restarts fan out over the DIA_JOBS pool; the selected result is
         identical for any pool size. *)
      let _, annealed =
        Pool.with_pool (fun pool ->
            Dia_core.Local_search.anneal_restarts ~pool ~restarts:4 p start)
      in
      Dia_stats.Table.add_row table
        [
          Printf.sprintf "n=%d k=%d seed=%d" n k seed;
          Printf.sprintf "%.1f" lb;
          Printf.sprintf "%.1f" annealed;
          Printf.sprintf "%.1f" greedy;
          Printf.sprintf "%.1f" dgreedy;
          Printf.sprintf "%.3f" (annealed /. lb);
          Printf.sprintf "%.3f" (greedy /. annealed);
        ])
    [ (1, 150, 10); (2, 150, 10); (3, 200, 15); (4, 250, 20) ];
  Dia_stats.Table.print table

(* Each kernel is timed three times, each time on freshly built state;
   its row reports the median estimate and the median r². *)
let measure_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let once (calls, make) =
    let results = Benchmark.all cfg instances (make ()) in
    let analyzed = Analyze.all ols (List.hd instances) results in
    Hashtbl.fold
      (fun name ols_result _ ->
        let time_ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> est /. float_of_int calls
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        (name, time_ns, r2))
      analyzed ("", nan, nan)
  in
  List.map
    (fun kernel ->
      let reps = List.init 3 (fun _ -> once kernel) in
      let median f = List.nth (List.sort compare (List.map f reps)) 1 in
      let name, _, _ = List.hd reps in
      (name, median (fun (_, t, _) -> t), median (fun (_, _, r) -> r)))
    tests

let run_benchmarks measurements =
  section "Micro-benchmarks (bechamel; time per run, OLS on monotonic clock)";
  let table = Dia_stats.Table.make ~columns:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun (name, time_ns, r2) ->
      let pretty =
        if time_ns >= 1e9 then Printf.sprintf "%.3f s" (time_ns /. 1e9)
        else if time_ns >= 1e6 then Printf.sprintf "%.3f ms" (time_ns /. 1e6)
        else if time_ns >= 1e3 then Printf.sprintf "%.3f us" (time_ns /. 1e3)
        else Printf.sprintf "%.1f ns" time_ns
      in
      Dia_stats.Table.add_row table [ name; pretty; Printf.sprintf "%.4f" r2 ])
    measurements;
  Dia_stats.Table.print table

(* -- Parallel scaling: the lib/parallel ablation -------------------------- *)

(* Wall-clock (not CPU) time: the whole point is the fan-out across
   domains. Best of [reps] to shave scheduler noise. *)
let wall_best ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type scaling_row = {
  kernel : string;
  sjobs : int;
  wall_s : float;
  speedup : float;  (* vs the jobs = 1 row of the same kernel *)
  contended : bool; (* jobs > usable cores: domains time-slice one CPU,
                       so the "speedup" measures scheduling overhead,
                       not parallelism. Tagged so downstream tooling
                       never reads these rows as a scaling regression. *)
}

let scaling_jobs = [ 1; 2; 4 ]

(* The pool's kernels that win at jobs 2 on a 2-core host: the pruned
   lower bound on a 600-node instance, and four annealing restarts on
   the bechamel bench problem. *)
let measure_scaling () =
  let n = 600 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:11 n in
  let servers = Placement.random ~seed:11 ~k:30 ~n in
  let p = Problem.all_nodes_clients matrix ~servers in
  let kernels =
    [
      ("lower-bound(n=600,k=30)",
       fun pool -> ignore (Lower_bound.compute ~pool p));
      ("anneal-restarts(n=300,k=20,restarts=4)",
       fun pool ->
         ignore
           (Dia_core.Local_search.anneal_restarts ~pool ~restarts:4 bench_problem
              bench_assignment));
    ]
  in
  let cores = Domain.recommended_domain_count () in
  List.concat_map
    (fun (kernel, f) ->
      let base = ref nan in
      List.map
        (fun jobs ->
          let wall = Pool.with_pool ~jobs (fun pool -> wall_best (fun () -> f pool)) in
          if jobs = 1 then base := wall;
          { kernel; sjobs = jobs; wall_s = wall; speedup = !base /. wall;
            contended = jobs > cores })
        scaling_jobs)
    kernels

let print_scaling rows =
  section "Extension — lib/parallel scaling (wall seconds, best of 3)";
  Printf.printf "(host reports %d usable core(s))\n"
    (Domain.recommended_domain_count ());
  let table =
    Dia_stats.Table.make ~columns:[ "kernel"; "jobs"; "wall (s)"; "speedup" ]
  in
  List.iter
    (fun r ->
      Dia_stats.Table.add_row table
        [ r.kernel; string_of_int r.sjobs; Printf.sprintf "%.3f" r.wall_s;
          Printf.sprintf "%.2f%s" r.speedup (if r.contended then "*" else "") ])
    rows;
  Dia_stats.Table.print table;
  if List.exists (fun r -> r.contended) rows then
    Printf.printf
      "(* = contended: more jobs than cores; the row measures scheduling \
       overhead, not parallel speedup)\n"

(* -- Machine-readable output: BENCH.json ---------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_bench_json ~path measurements scaling =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  (* schema 2: parallel_scaling rows carry a "contended" flag — true
     when the row ran more jobs than the host has cores, in which case
     its "speedup" is a scheduling-overhead measurement and must not be
     compared against genuinely parallel runs. *)
  out "  \"schema\": 2,\n";
  out "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
        (json_escape name) (json_float ns) (json_float r2)
        (if i = List.length measurements - 1 then "" else ","))
    measurements;
  out "  ],\n";
  out "  \"parallel_scaling\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"kernel\": \"%s\", \"jobs\": %d, \"wall_s\": %s, \"speedup\": %s, \
         \"contended\": %b}%s\n"
        (json_escape r.kernel) r.sjobs (json_float r.wall_s) (json_float r.speedup)
        r.contended
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s (%d kernels, %d scaling rows)\n" path
    (List.length measurements) (List.length scaling)

let () =
  let json_mode = Array.exists (( = ) "json") Sys.argv in
  if json_mode then begin
    (* Machine-readable mode: skip figure regeneration, emit BENCH.json
       for the PR-over-PR perf trajectory. *)
    Printf.printf "dia bench harness (json mode)\n%!";
    let measurements = measure_benchmarks () in
    let scaling = measure_scaling () in
    print_scaling scaling;
    write_bench_json ~path:"BENCH.json" measurements scaling
  end
  else begin
    Printf.printf "dia bench harness (profile: %s)\n" profile.Config.label;
    regenerate_figures ();
    dgreedy_init_ablation ();
    achievable_gap_ablation ();
    related_work_comparison ();
    fault_sweep ();
    scaling_table ();
    print_scaling (measure_scaling ());
    run_benchmarks (measure_benchmarks ())
  end
