(* Tests for Dia_oracle.Local_search. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Algorithm = Dia_core.Algorithm
module Local_search = Dia_oracle.Local_search
module Brute_force = Dia_core.Brute_force

let instance ?capacity seed ~n ~k =
  let matrix = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity matrix ~servers

let test_hill_climb_never_worse () =
  for seed = 0 to 9 do
    let p = instance seed ~n:25 ~k:4 in
    let start = Dia_core.Nearest.assign p in
    let d0 = Objective.max_interaction_path p start in
    let final, d = Local_search.hill_climb p start in
    Alcotest.(check bool) "improved or equal" true (d <= d0 +. 1e-9);
    Alcotest.(check (float 1e-9)) "returned objective correct"
      (Objective.max_interaction_path p final)
      d
  done

let test_hill_climb_local_optimality () =
  let p = instance 4 ~n:20 ~k:4 in
  let final, d = Local_search.hill_climb p (Dia_core.Nearest.assign p) in
  let arr = Assignment.to_array final in
  let improvable = ref false in
  for c = 0 to Problem.num_clients p - 1 do
    let original = arr.(c) in
    for s = 0 to Problem.num_servers p - 1 do
      if s <> original then begin
        arr.(c) <- s;
        if Objective.max_interaction_path p (Assignment.unsafe_of_array arr)
           < d -. 1e-9
        then improvable := true;
        arr.(c) <- original
      end
    done
  done;
  Alcotest.(check bool) "no improving single move" false !improvable

let test_hill_climb_round_budget () =
  let p = instance 5 ~n:30 ~k:5 in
  let start = Assignment.constant p 0 in
  let _, unlimited = Local_search.hill_climb p start in
  let _, budget0 = Local_search.hill_climb ~max_rounds:0 p start in
  Alcotest.(check (float 1e-9)) "0 rounds = unchanged"
    (Objective.max_interaction_path p start)
    budget0;
  Alcotest.(check bool) "unlimited at least as good" true (unlimited <= budget0 +. 1e-9)

let test_anneal_reaches_optimum_on_small_instances () =
  for seed = 0 to 4 do
    let p = instance seed ~n:9 ~k:3 in
    let optimum = Brute_force.optimal_value p in
    let _, annealed =
      Local_search.anneal ~seed p (Assignment.random p ~seed)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: annealed %.2f vs optimum %.2f" seed annealed optimum)
      true
      (annealed <= optimum *. 1.02 +. 1e-9)
  done

let test_anneal_deterministic_per_seed () =
  let p = instance 6 ~n:20 ~k:4 in
  let start = Dia_core.Nearest.assign p in
  let a1, d1 = Local_search.anneal ~seed:9 p start in
  let a2, d2 = Local_search.anneal ~seed:9 p start in
  Alcotest.(check bool) "same assignment" true (Assignment.equal a1 a2);
  Alcotest.(check (float 0.)) "same objective" d1 d2

let test_anneal_capacity_respected () =
  let p = instance ~capacity:6 7 ~n:24 ~k:5 in
  let start = Dia_core.Nearest.assign p in
  let final, _ = Local_search.anneal ~seed:1 p start in
  Alcotest.(check bool) "capacitated" true (Assignment.respects_capacity p final)

let test_anneal_no_worse_than_greedy_typically () =
  (* Annealing from the greedy solution must not lose ground (it keeps
     the best-ever assignment). *)
  for seed = 10 to 14 do
    let p = instance seed ~n:30 ~k:5 in
    let greedy = Dia_core.Greedy.assign p in
    let d_greedy = Objective.max_interaction_path p greedy in
    let _, annealed = Local_search.anneal ~seed p greedy in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true (annealed <= d_greedy +. 1e-9)
  done

let test_anneal_validates_params () =
  let p = instance 1 ~n:5 ~k:2 in
  let start = Dia_core.Nearest.assign p in
  let bad params =
    try
      ignore (Local_search.anneal ~params p start);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "temperature" true
    (bad { Local_search.default_annealing with Local_search.initial_temperature = 0. });
  Alcotest.(check bool) "cooling" true
    (bad { Local_search.default_annealing with Local_search.cooling = 1.5 })

let suite =
  [
    Alcotest.test_case "hill climb never worsens" `Quick test_hill_climb_never_worse;
    Alcotest.test_case "hill climb reaches local optimum" `Quick
      test_hill_climb_local_optimality;
    Alcotest.test_case "hill climb round budget" `Quick test_hill_climb_round_budget;
    Alcotest.test_case "annealing reaches optimum on small instances" `Slow
      test_anneal_reaches_optimum_on_small_instances;
    Alcotest.test_case "annealing deterministic per seed" `Quick
      test_anneal_deterministic_per_seed;
    Alcotest.test_case "annealing respects capacity" `Quick test_anneal_capacity_respected;
    Alcotest.test_case "annealing keeps the best-ever state" `Quick
      test_anneal_no_worse_than_greedy_typically;
    Alcotest.test_case "annealing validates parameters" `Quick test_anneal_validates_params;
  ]
