(* Tests for Dia_oracle.Zone_based — the related-work baseline. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Zone_based = Dia_oracle.Zone_based
module Greedy = Dia_core.Greedy

let instance ?capacity seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity m ~servers

let test_assigns_everyone () =
  let p = instance 1 ~n:50 ~k:6 in
  let a = Zone_based.assign p in
  Alcotest.(check bool) "all assigned" true
    (Array.for_all (fun s -> s >= 0) (Assignment.to_array a))

let test_deterministic () =
  let p = instance 2 ~n:40 ~k:5 in
  Alcotest.(check bool) "same output" true
    (Assignment.equal (Zone_based.assign p) (Zone_based.assign p))

let test_respects_capacity () =
  let p = instance ~capacity:6 3 ~n:30 ~k:6 in
  let a = Zone_based.assign p in
  Alcotest.(check bool) "capacitated" true (Assignment.respects_capacity p a)

let test_zone_count_validated () =
  let p = instance 4 ~n:10 ~k:3 in
  Alcotest.(check bool) "raises" true
    (try ignore (Zone_based.assign ~zones:0 p); false
     with Invalid_argument _ -> true)

let test_fewer_zones_than_clients () =
  let p = instance 5 ~n:25 ~k:4 in
  let a = Zone_based.assign ~zones:2 p in
  (* At most two servers end up used (one per zone, absent capacity
     pressure). *)
  Alcotest.(check bool) "at most 2 used servers" true
    (Array.length (Assignment.used_servers p a) <= 2)

let test_generally_beaten_by_greedy () =
  (* Section VI's claim, measured: optimising client-server latency alone
     loses to the paper's objective-aware Greedy on most instances. *)
  let greedy_wins = ref 0 in
  let total = 12 in
  for seed = 0 to total - 1 do
    let p = instance seed ~n:80 ~k:8 in
    let zone = Objective.max_interaction_path p (Zone_based.assign p) in
    let greedy = Objective.max_interaction_path p (Greedy.assign p) in
    if greedy <= zone +. 1e-9 then incr greedy_wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "greedy wins %d/%d" !greedy_wins total)
    true
    (!greedy_wins >= total - 2)

let test_single_client_single_zone () =
  let p = instance 6 ~n:12 ~k:4 in
  let p =
    Problem.make
      ~latency:(Problem.latency p)
      ~servers:(Problem.servers p)
      ~clients:[| 0 |] ()
  in
  let a = Zone_based.assign p in
  Alcotest.(check int) "one client assigned somewhere" 1 (Assignment.num_clients a)

let suite =
  [
    Alcotest.test_case "assigns everyone" `Quick test_assigns_everyone;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "respects capacity" `Quick test_respects_capacity;
    Alcotest.test_case "zone count validated" `Quick test_zone_count_validated;
    Alcotest.test_case "fewer zones than clients" `Quick test_fewer_zones_than_clients;
    Alcotest.test_case "generally beaten by greedy" `Quick test_generally_beaten_by_greedy;
    Alcotest.test_case "single client" `Quick test_single_client_single_zone;
  ]
