(* The conformance suite: drive the oracle over thousands of generated
   instances and pin the harness's own behaviour (generators, per-event
   simulation checker, pool determinism). Instance count comes from
   DIA_CONFORMANCE_COUNT (default 2000) so quick local iterations can
   shrink it; the instance seeds are absolute, so any failure printed
   here replays with `dia oracle --seed N --count 1`. *)

module Gen = Dia_oracle.Gen
module Invariant = Dia_oracle.Invariant
module Differential = Dia_oracle.Differential
module Sim_invariant = Dia_oracle.Sim_invariant
module Oracle = Dia_oracle.Oracle
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Algorithm = Dia_core.Algorithm
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Brute_force = Dia_core.Brute_force
module Clock = Dia_core.Clock
module Workload = Dia_sim.Workload
module Pool = Dia_parallel.Pool

let conformance_count =
  match Sys.getenv_opt "DIA_CONFORMANCE_COUNT" with
  | Some value -> (
      match int_of_string_opt (String.trim value) with
      | Some count when count >= 1 -> count
      | _ -> failwith "DIA_CONFORMANCE_COUNT must be a positive integer")
  | None -> 2000

let base_seed = 1

(* The oracle itself: every algorithm, every theorem, thousands of
   instances, at whatever DIA_JOBS is in effect. *)
let test_oracle_suite () =
  let report = Oracle.run ~count:conformance_count ~seed:base_seed () in
  if not (Oracle.ok report) then Alcotest.fail (Oracle.render report);
  Alcotest.(check int) "instances" conformance_count report.Oracle.instances;
  (* A quarter of the seed line is brute-force sized by construction;
     leave slack for sampling noise. *)
  Alcotest.(check bool) "enough brute-force cross-checks" true
    (report.Oracle.brute_checked * 5 >= conformance_count);
  Alcotest.(check bool) "simulation slice ran" true
    (report.Oracle.sim_checked > 0);
  Alcotest.(check bool) "lossy-transport slice ran" true
    (conformance_count < 500 || report.Oracle.transport_checked > 0)

let test_report_jobs_identity () =
  let r1 = Oracle.run ~jobs:1 ~count:120 ~seed:9000 () in
  let r4 = Oracle.run ~jobs:4 ~count:120 ~seed:9000 () in
  Alcotest.(check bool) "identical reports for jobs 1 and 4" true (r1 = r4)

let test_outcome_pure () =
  let a = Differential.check_instance ~seed:base_seed in
  let b = Differential.check_instance ~seed:base_seed in
  Alcotest.(check bool) "check_instance is a pure function of the seed" true
    (a = b)

(* Generator sanity, over the qcheck-driven descriptor space (which
   includes shapes the seed line never emits, e.g. hand-shrunk ones). *)

let qcheck_cases = 150

let to_alcotest = QCheck_alcotest.to_alcotest

let prop_instantiate_valid =
  QCheck.Test.make ~count:qcheck_cases ~name:"generated instances are well-formed"
    Gen.arbitrary (fun d ->
      let p = Gen.instantiate d in
      let n = Problem.num_clients p and k = Problem.num_servers p in
      n >= 1 && k >= 1
      && (match Problem.capacity p with
         | None -> not (Gen.brute_sized d) || true
         | Some c -> c * k >= n))

let prop_nearest_valid_and_dominates_lb =
  QCheck.Test.make ~count:qcheck_cases
    ~name:"nearest-server is valid and dominates LB on any instance"
    Gen.arbitrary (fun d ->
      let p = Gen.instantiate d in
      let a = Algorithm.run Algorithm.Nearest_server p in
      let lb = Lower_bound.compute p in
      Invariant.assignment_valid p a = Ok ()
      && Invariant.dominates_lb ~lb ~label:"nearest"
           (Objective.max_interaction_path p a)
         = Ok ())

let prop_evaluator_metamorphic =
  QCheck.Test.make ~count:qcheck_cases
    ~name:"D and LB invariant under relabeling, linear under scaling"
    Gen.arbitrary (fun d ->
      let p = Gen.instantiate d in
      let a = Algorithm.run Algorithm.Nearest_server p in
      Invariant.evaluator_relabel_invariant ~seed:d.Gen.seed p a = Ok ()
      && Invariant.evaluator_scale_invariant p a = Ok ())

let prop_clock_tight =
  QCheck.Test.make ~count:qcheck_cases
    ~name:"synthesized clock is feasible and tight on any instance"
    Gen.arbitrary (fun d ->
      let p = Gen.instantiate d in
      let a = Algorithm.run Algorithm.Nearest_server p in
      Invariant.clock_tight p a = Ok ())

let prop_brute_bounds =
  QCheck.Test.make ~count:40
    ~name:"LB <= OPT <= every heuristic on brute-force-sized instances"
    Gen.arbitrary (fun d ->
      let d = { d with Gen.nodes = min d.Gen.nodes 9; servers = min d.Gen.servers 3 } in
      QCheck.assume (Gen.brute_sized d);
      let p = Gen.instantiate d in
      let opt = Brute_force.optimal_value p in
      let lb = Lower_bound.compute p in
      let nearest =
        Objective.max_interaction_path p (Algorithm.run Algorithm.Nearest_server p)
      in
      Invariant.lb_at_most_opt ~lb ~opt = Ok ()
      && Invariant.at_least_opt ~opt ~label:"nearest" nearest = Ok ())

(* The per-event simulation checker: a clean run is silent, and each
   class of breach is actually detected (negative controls). *)

let small_problem () =
  let matrix = Dia_latency.Synthetic.euclidean ~seed:5 ~n:8 ~side:200. in
  Problem.all_nodes_clients matrix ~servers:[| 0; 3 |]

let test_sim_clean_run () =
  let p = small_problem () in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let workload =
    Workload.rounds ~clients:(Problem.num_clients p) ~rounds:3
      ~period:(0.6 *. clock.Clock.delta)
  in
  Alcotest.(check (list string)) "no violations" []
    (Sim_invariant.check_run p a clock workload)

let test_sim_detects_infeasible_clock () =
  let p = small_problem () in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let starved = { clock with Clock.delta = 0.5 *. clock.Clock.delta } in
  let workload = Workload.rounds ~clients:(Problem.num_clients p) ~rounds:2 ~period:50. in
  let violations = Sim_invariant.check_run p a starved workload in
  Alcotest.(check bool) "late events detected" true (violations <> []);
  Alcotest.(check (list string)) "structural invariants still hold" []
    (Sim_invariant.check_run ~expect_feasible:false p a starved workload)

let test_sim_finalize_completeness () =
  let checker = Sim_invariant.create ~delta:100. () in
  Sim_invariant.monitor checker
    (Dia_sim.Protocol.Issued { Workload.op_id = 0; issuer = 0; issue_time = 0. });
  Sim_invariant.finalize checker ~servers:2 ~clients:3;
  match Sim_invariant.violations checker with
  | [] -> Alcotest.fail "an unexecuted operation went unreported"
  | _ -> ()

let test_sim_detects_wrong_delta () =
  let p = small_problem () in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let checker =
    Sim_invariant.create ~delta:(clock.Clock.delta +. 7.) ~expect_feasible:true ()
  in
  let workload = Workload.rounds ~clients:(Problem.num_clients p) ~rounds:1 ~period:40. in
  let report =
    Dia_sim.Protocol.run ~monitor:(Sim_invariant.monitor checker) p a clock workload
  in
  Sim_invariant.finalize checker ~servers:report.Dia_sim.Protocol.servers
    ~clients:report.Dia_sim.Protocol.clients;
  Alcotest.(check bool) "interaction-time mismatch detected" true
    (not (Sim_invariant.ok checker))

(* Generator pins. *)

let test_descriptor_deterministic () =
  for seed = 0 to 50 do
    let a = Gen.descriptor_of_seed seed and b = Gen.descriptor_of_seed seed in
    if a <> b then Alcotest.fail "descriptor_of_seed is not deterministic"
  done

let test_instantiate_deterministic () =
  let d = Gen.descriptor_of_seed 17 in
  let p = Gen.instantiate d and q = Gen.instantiate d in
  Alcotest.(check bool) "same latency matrix" true
    (Dia_latency.Matrix.equal (Problem.latency p) (Problem.latency q));
  Alcotest.(check bool) "same clients" true
    (Problem.clients p = Problem.clients q);
  Alcotest.(check bool) "same capacity" true
    (Problem.capacity p = Problem.capacity q)

let test_every_kind_reachable () =
  let seen = Hashtbl.create 8 in
  for seed = 0 to 400 do
    let d = Gen.descriptor_of_seed seed in
    Hashtbl.replace seen d.Gen.kind ()
  done;
  Alcotest.(check int) "all instance kinds appear in the seed line"
    (List.length Gen.kinds) (Hashtbl.length seen)

let test_capacity_always_feasible () =
  for seed = 0 to 300 do
    let d = Gen.descriptor_of_seed seed in
    let p = Gen.instantiate d in
    match Problem.capacity p with
    | None -> ()
    | Some c ->
        if c * Problem.num_servers p < Problem.num_clients p then
          Alcotest.failf "seed %d: capacity %d infeasible" seed c
  done

let () =
  let seed =
    match Sys.getenv_opt "DIA_QCHECK_SEED" with
    | Some value -> (
        match int_of_string_opt (String.trim value) with
        | Some seed -> seed
        | None -> failwith "DIA_QCHECK_SEED must be an integer")
    | None ->
        Random.self_init ();
        Random.int 1_000_000_000
  in
  Unix.putenv "QCHECK_SEED" (string_of_int seed);
  let run () =
    Alcotest.run ~and_exit:false "conformance"
      [
        ( "oracle",
          [
            Alcotest.test_case "full suite" `Slow test_oracle_suite;
            Alcotest.test_case "report identical across jobs" `Slow
              test_report_jobs_identity;
            Alcotest.test_case "outcome pure in the seed" `Quick
              test_outcome_pure;
          ] );
        ( "generators",
          [
            Alcotest.test_case "descriptor deterministic" `Quick
              test_descriptor_deterministic;
            Alcotest.test_case "instantiate deterministic" `Quick
              test_instantiate_deterministic;
            Alcotest.test_case "every kind reachable" `Quick
              test_every_kind_reachable;
            Alcotest.test_case "capacities feasible" `Quick
              test_capacity_always_feasible;
            to_alcotest prop_instantiate_valid;
          ] );
        ( "properties",
          [
            to_alcotest prop_nearest_valid_and_dominates_lb;
            to_alcotest prop_evaluator_metamorphic;
            to_alcotest prop_clock_tight;
            to_alcotest prop_brute_bounds;
          ] );
        ( "sim-invariant",
          [
            Alcotest.test_case "clean run is silent" `Quick test_sim_clean_run;
            Alcotest.test_case "detects an infeasible clock" `Quick
              test_sim_detects_infeasible_clock;
            Alcotest.test_case "finalize reports missing executions" `Quick
              test_sim_finalize_completeness;
            Alcotest.test_case "detects a wrong interaction time" `Quick
              test_sim_detects_wrong_delta;
          ] );
      ]
  in
  try run ()
  with exn ->
    Printf.eprintf
      "\nconformance ran with qcheck seed %d — rerun with DIA_QCHECK_SEED=%d to reproduce\n"
      seed seed;
    raise exn
