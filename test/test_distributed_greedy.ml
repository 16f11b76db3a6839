(* Tests for Dia_core.Distributed_greedy beyond what test_algorithms
   covers: trace shape, stats, custom initial assignments. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Distributed_greedy = Dia_core.Distributed_greedy
module Nearest = Dia_core.Nearest

let random_instance ?capacity seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity m ~servers

let test_trace_starts_at_initial_objective () =
  let p = random_instance 5 ~n:60 ~k:6 in
  let result = Distributed_greedy.run p in
  Alcotest.(check (float 1e-9)) "trace head"
    (Objective.max_interaction_path p result.initial)
    result.trace.(0)

let test_trace_strictly_decreasing () =
  let p = random_instance 6 ~n:80 ~k:8 in
  let result = Distributed_greedy.run p in
  for i = 1 to Array.length result.trace - 1 do
    Alcotest.(check bool) "strictly decreasing" true
      (result.trace.(i) < result.trace.(i - 1))
  done

let test_trace_ends_at_final_objective () =
  let p = random_instance 7 ~n:70 ~k:5 in
  let result = Distributed_greedy.run p in
  Alcotest.(check (float 1e-9)) "trace tail"
    (Objective.max_interaction_path p result.assignment)
    result.trace.(Array.length result.trace - 1)

let test_stats_consistent () =
  let p = random_instance 8 ~n:60 ~k:6 in
  let result = Distributed_greedy.run p in
  Alcotest.(check int) "modifications = trace steps"
    (Array.length result.trace - 1)
    result.stats.modifications;
  Alcotest.(check bool) "examined >= modifications" true
    (result.stats.examined >= result.stats.modifications);
  Alcotest.(check bool) "some communication happened" true
    (result.stats.broadcasts > 0 && result.stats.probes > 0)

let test_converged_state_has_no_improving_single_move () =
  (* At termination, moving any client on a longest path to any other
     server must not reduce D. *)
  let p = random_instance 9 ~n:40 ~k:4 in
  let result = Distributed_greedy.run p in
  let a = Assignment.to_array result.assignment in
  let d = Objective.max_interaction_path p result.assignment in
  let improvable = ref false in
  for c = 0 to Problem.num_clients p - 1 do
    let original = a.(c) in
    for s = 0 to Problem.num_servers p - 1 do
      if s <> original then begin
        a.(c) <- s;
        let d' = Objective.max_interaction_path p (Assignment.unsafe_of_array a) in
        if d' < d -. 1e-9 then improvable := true;
        a.(c) <- original
      end
    done
  done;
  Alcotest.(check bool) "no single move improves D" false !improvable

let test_custom_initial_assignment () =
  let p = random_instance 10 ~n:50 ~k:5 in
  let initial = Assignment.constant p 0 in
  let result = Distributed_greedy.run ~initial p in
  Alcotest.(check bool) "initial recorded" true
    (Assignment.equal initial result.initial);
  Alcotest.(check bool) "no regression" true
    (Objective.max_interaction_path p result.assignment
    <= Objective.max_interaction_path p initial +. 1e-9)

let test_rejects_infeasible_initial () =
  let p = random_instance 11 ~n:20 ~k:4 in
  let p = Problem.with_capacity p (Some 8) in
  let overloaded = Assignment.constant p 0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Distributed_greedy.run ~initial:overloaded p);
       false
     with Invalid_argument _ -> true)

let test_capacitated_moves_stay_feasible () =
  let p = random_instance ~capacity:12 12 ~n:48 ~k:6 in
  let result = Distributed_greedy.run p in
  Alcotest.(check bool) "feasible" true
    (Assignment.respects_capacity p result.assignment)

let test_improves_over_nearest_when_possible () =
  (* On clustered internet-like data with random servers, NSA is usually
     improvable; check D-greedy actually commits modifications on at
     least one of a few seeds. *)
  let improved = ref false in
  for seed = 0 to 4 do
    let p = random_instance seed ~n:100 ~k:10 in
    let result = Distributed_greedy.run p in
    if result.stats.modifications > 0 then improved := true
  done;
  Alcotest.(check bool) "at least one run improves" true !improved

(* Integer distances in 1..5 tie targets and longest pairs constantly:
   the bounded target scan must still keep the first minimum, and the
   pair scan's row skip every qualifying pair. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"run equals the full-scan reference on tied distances"
    ~count:200
    QCheck.(quad (int_bound 1_000_000) (int_range 2 30) (int_range 1 8) bool)
    (fun (seed, n, kdraw, capacitated) ->
      let rng = Random.State.make [| seed |] in
      let m = Dia_latency.Matrix.init n (fun _ _ -> float_of_int (1 + Random.State.int rng 5)) in
      let k = 1 + (kdraw mod n) in
      let servers = Dia_placement.Placement.random ~seed ~k ~n in
      let capacity = if capacitated then Some ((n + k - 1) / k) else None in
      let p = Problem.all_nodes_clients ?capacity m ~servers in
      let fast = Distributed_greedy.run p and reference = Dia_oracle.Reference.distributed_greedy p in
      Assignment.equal fast.assignment reference.assignment
      && fast.trace = reference.trace && fast.stats = reference.stats)

let suite =
  [
    Alcotest.test_case "trace starts at initial objective" `Quick
      test_trace_starts_at_initial_objective;
    Alcotest.test_case "trace strictly decreasing" `Quick test_trace_strictly_decreasing;
    Alcotest.test_case "trace ends at final objective" `Quick test_trace_ends_at_final_objective;
    Alcotest.test_case "stats consistent" `Quick test_stats_consistent;
    Alcotest.test_case "no improving single move at convergence" `Quick
      test_converged_state_has_no_improving_single_move;
    Alcotest.test_case "custom initial assignment" `Quick test_custom_initial_assignment;
    Alcotest.test_case "infeasible initial rejected" `Quick test_rejects_infeasible_initial;
    Alcotest.test_case "capacitated moves stay feasible" `Quick
      test_capacitated_moves_stay_feasible;
    Alcotest.test_case "improves over NSA on clustered data" `Quick
      test_improves_over_nearest_when_possible;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
