(* Tests for the four heuristic assignment algorithms, including the
   paper's worked examples (Fig. 4 and Fig. 5) and the approximation
   guarantees of Section IV. *)

module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Metric = Dia_latency.Metric
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Algorithm = Dia_core.Algorithm
module Nearest = Dia_core.Nearest
module Longest_first_batch = Dia_core.Longest_first_batch
module Greedy = Dia_core.Greedy
module Distributed_greedy = Dia_core.Distributed_greedy
module Brute_force = Dia_core.Brute_force

let objective = Objective.max_interaction_path

(* The paper's Fig. 4: servers s, s1, s2; clients c1, c2.
   d(c1, s) = d(c2, s) = a; d(c1, s1) = d(c2, s2) = a - eps; the remaining
   distances follow from shortest-path routing on the line
   s1 - c1 - s - c2 - s2. Nearest-Server yields 6a - 4eps; the optimum
   (both on s) yields 2a: ratio -> 3 as eps -> 0. *)
let fig4_instance ~a ~eps =
  let m = Matrix.create 5 in
  (* nodes: s=0, s1=1, s2=2, c1=3, c2=4 *)
  let set = Matrix.set m in
  set 3 0 a;
  set 4 0 a;
  set 3 1 (a -. eps);
  set 4 2 (a -. eps);
  set 3 4 (2. *. a);
  set 1 0 ((2. *. a) -. eps);
  set 2 0 ((2. *. a) -. eps);
  set 1 2 ((4. *. a) -. (2. *. eps));
  set 1 4 ((3. *. a) -. eps);
  set 2 3 ((3. *. a) -. eps);
  Problem.make ~latency:m ~servers:[| 0; 1; 2 |] ~clients:[| 3; 4 |] ()

let test_fig4_nearest_ratio_approaches_3 () =
  let a = 10. and eps = 0.01 in
  let p = fig4_instance ~a ~eps in
  let nsa = Nearest.assign p in
  Alcotest.(check (float 1e-9)) "NSA objective" ((6. *. a) -. (4. *. eps))
    (objective p nsa);
  let _, opt = Brute_force.optimal p in
  Alcotest.(check (float 1e-9)) "optimum" (2. *. a) opt;
  let ratio = objective p nsa /. opt in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.4f close to 3" ratio)
    true
    (ratio > 2.99 && ratio <= 3.)

(* The paper's Fig. 5: nearest-server gives D = 12, Longest-First-Batch
   groups both clients on s1 for D = 9.
   Nodes: c1=0, c2=1, s1=2, s2=3; d(c1,s1)=5, d(c2,s1)=4, d(c2,s2)=3,
   d(s1,s2)=4, d(c1,c2)=7, d(c1,s2)=7 (via c2). *)
let fig5_instance () =
  let m = Matrix.create 4 in
  let set = Matrix.set m in
  set 0 2 5.;
  set 1 2 4.;
  set 1 3 3.;
  set 2 3 4.;
  set 0 1 7.;
  set 0 3 7.;
  Problem.make ~latency:m ~servers:[| 2; 3 |] ~clients:[| 0; 1 |] ()

let test_fig5_lfb_beats_nearest () =
  let p = fig5_instance () in
  let nsa = Nearest.assign p in
  let lfb = Longest_first_batch.assign p in
  Alcotest.(check (float 1e-9)) "NSA objective is 12" 12. (objective p nsa);
  (* The paper's prose quotes 9 (= 5 + 4) for LFB, ignoring c1's own round
     trip of 2 x 5 = 10. Constraints (i) + (ii) of Section II-C force
     delta >= 2 d(c, sA(c)) — and the paper's own Greedy pseudocode
     includes the 2d(c, s) term — so the achievable minimum here is 10. *)
  Alcotest.(check (float 1e-9)) "LFB objective is 10" 10. (objective p lfb);
  (* LFB batches c2 onto c1's nearest server. *)
  Alcotest.(check int) "c1 on s1" 0 (Assignment.server_of lfb 0);
  Alcotest.(check int) "c2 on s1" 0 (Assignment.server_of lfb 1)

let random_instance ?capacity seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity m ~servers

let all_assigned p a =
  Array.for_all
    (fun s -> s >= 0 && s < Problem.num_servers p)
    (Assignment.to_array a)

let prop_every_algorithm_produces_valid_assignment =
  QCheck.Test.make ~name:"every algorithm assigns every client" ~count:50
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 0 40))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      List.for_all
        (fun algorithm -> all_assigned p (Algorithm.run ~seed algorithm p))
        Algorithm.all)

let prop_nearest_assigns_nearest =
  QCheck.Test.make ~name:"uncapacitated NSA picks the nearest server" ~count:50
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, k) ->
      let p = random_instance seed ~n:(k + 20) ~k in
      let a = Nearest.assign p in
      let ok = ref true in
      for c = 0 to Problem.num_clients p - 1 do
        if Problem.d_cs p c (Assignment.server_of a c)
           > Problem.d_cs p c (Problem.nearest_server p c) +. 1e-12
        then ok := false
      done;
      !ok)

let prop_lfb_no_worse_than_nearest =
  (* Section IV-B: the maximum interaction path length of LFB cannot
     exceed Nearest-Server Assignment's. *)
  QCheck.Test.make ~name:"LFB <= NSA on the objective" ~count:100
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 0 40))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      objective p (Longest_first_batch.assign p)
      <= objective p (Nearest.assign p) +. 1e-9)

let prop_dgreedy_no_worse_than_nearest =
  (* Distributed-Greedy starts from NSA and only commits improving moves. *)
  QCheck.Test.make ~name:"Distributed-Greedy <= NSA on the objective" ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 0 30))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      objective p (Distributed_greedy.assign p)
      <= objective p (Nearest.assign p) +. 1e-9)

let prop_nearest_3_approx_on_metric_data =
  (* Theorem 2 requires the triangle inequality, so use Euclidean data. *)
  QCheck.Test.make ~name:"NSA is a 3-approximation on metric data" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let m = Synthetic.euclidean ~seed ~n:(k + 7) ~side:100. in
      let servers = Dia_placement.Placement.random ~seed ~k ~n:(k + 7) in
      let p = Problem.all_nodes_clients m ~servers in
      let opt = Brute_force.optimal_value p in
      objective p (Nearest.assign p) <= (3. *. opt) +. 1e-9)

let prop_heuristics_above_optimum =
  QCheck.Test.make ~name:"heuristics never beat the optimum" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let p = random_instance seed ~n:(k + 7) ~k in
      let opt = Brute_force.optimal_value p in
      List.for_all
        (fun algorithm ->
          objective p (Algorithm.run ~seed algorithm p) >= opt -. 1e-9)
        Algorithm.heuristics)

let prop_capacitated_respects_capacity =
  QCheck.Test.make ~name:"capacitated variants respect capacity" ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_range 2 6) (int_range 1 5))
    (fun (seed, k, cap_slack) ->
      let n = k * 4 in
      let capacity = 4 + cap_slack in
      let p = random_instance ~capacity seed ~n ~k in
      List.for_all
        (fun algorithm ->
          let a = Algorithm.run ~seed algorithm p in
          Assignment.respects_capacity p a)
        [ Algorithm.Nearest_server; Algorithm.Longest_first_batch;
          Algorithm.Greedy; Algorithm.Distributed_greedy ])

let test_capacity_one_forces_perfect_spread () =
  (* With capacity 1 and |C| = |S| every server gets exactly one client. *)
  let n = 6 in
  let m = Synthetic.euclidean ~seed:5 ~n ~side:100. in
  let p =
    Problem.all_nodes_clients ~capacity:1 m ~servers:(Array.init n Fun.id)
  in
  List.iter
    (fun algorithm ->
      let a = Algorithm.run algorithm p in
      let loads = Assignment.loads p a in
      Alcotest.(check bool)
        (Algorithm.name algorithm ^ " spreads clients")
        true
        (Array.for_all (( = ) 1) loads))
    [ Algorithm.Nearest_server; Algorithm.Longest_first_batch;
      Algorithm.Greedy; Algorithm.Distributed_greedy ]

let test_greedy_single_cluster_uses_one_server () =
  (* All clients in one tight cluster near server 0, other servers far:
     greedy should put everyone on one server (inter-server latency would
     dominate otherwise). *)
  let m = Matrix.create 8 in
  let set = Matrix.set m in
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      if i < 2 then set i j 500. else set i j 1.
    done
  done;
  (* servers 0 (far) and 1 (far from everything); clients 2..7 mutually
     close. Re-do: make server 1 close to the cluster. *)
  for j = 2 to 7 do
    set 1 j 2.
  done;
  let p =
    Problem.make ~latency:m ~servers:[| 0; 1 |] ~clients:[| 2; 3; 4; 5; 6; 7 |] ()
  in
  let a = Greedy.assign p in
  Alcotest.(check (array int)) "single used server" [| 1 |]
    (Assignment.used_servers p a)

let test_deterministic_algorithms () =
  let p = random_instance 77 ~n:40 ~k:5 in
  List.iter
    (fun algorithm ->
      let a = Algorithm.run algorithm p in
      let b = Algorithm.run algorithm p in
      Alcotest.(check bool)
        (Algorithm.name algorithm ^ " deterministic")
        true (Assignment.equal a b))
    Algorithm.heuristics

let test_single_client () =
  let p = random_instance 9 ~n:5 ~k:4 in
  let p =
    Problem.make
      ~latency:(Problem.latency p)
      ~servers:(Problem.servers p)
      ~clients:[| 0 |] ()
  in
  List.iter
    (fun algorithm ->
      let a = Algorithm.run algorithm p in
      Alcotest.(check bool)
        (Algorithm.name algorithm ^ " handles one client")
        true
        (objective p a = 2. *. Problem.d_cs p 0 (Assignment.server_of a 0)))
    Algorithm.heuristics

let test_greedy_near_optimal_on_random_instances () =
  (* The paper's headline: greedy is generally close to optimal. Checked
     loosely on small random instances. *)
  let worst = ref 1. in
  for seed = 0 to 19 do
    let p = random_instance seed ~n:10 ~k:3 in
    let opt = Brute_force.optimal_value p in
    let ratio = objective p (Greedy.assign p) /. opt in
    if ratio > !worst then worst := ratio
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst greedy/optimal ratio %.3f below 1.6" !worst)
    true (!worst < 1.6)

(* Greedy under its default zero-delay model runs against
   the oracle's [Reference.greedy] on every instance. A drawn delay model also
   runs Greedy under that model against the oracle's re-sorting
   reference — constant, linear, unsaturated M/M/1 and M/M/1 with mu
   below the population, so saturation drives the choice. *)
let reference_delay ~n = function
  | 0 -> None
  | 1 -> Some (Dia_core.Delay.Constant 3.)
  | 2 -> Some (Dia_core.Delay.Linear { base = 0.5; coeff = 0.3 })
  | 3 -> Some (Dia_core.Delay.Queueing { mu = float_of_int (n + 5) })
  | _ -> Some (Dia_core.Delay.Queueing { mu = float_of_int (max 1 (n / 3)) })

let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"optimized greedy equals reference greedy" ~count:150
    QCheck.(
      pair
        (quad (int_bound 1_000_000) (int_range 1 7) (int_range 0 30) bool)
        (int_bound 4))
    (fun ((seed, k, extra, capacitated), delay) ->
      let n = k + extra in
      let capacity = if capacitated then Some (max 1 ((n + k - 1) / k)) else None in
      let p = random_instance ?capacity seed ~n ~k in
      Assignment.equal (Greedy.assign p) (Dia_oracle.Reference.greedy p)
      &&
      match reference_delay ~n delay with
      | None -> true
      | Some delay ->
          Assignment.equal (Greedy.assign ~delay p)
            (Dia_oracle.Reference.greedy_load ~delay p))

let test_key_roundtrip () =
  List.iter
    (fun algorithm ->
      match Algorithm.of_key (Algorithm.key algorithm) with
      | Some a ->
          Alcotest.(check string) "roundtrip" (Algorithm.name algorithm) (Algorithm.name a)
      | None -> Alcotest.fail "key did not roundtrip")
    Algorithm.all;
  Alcotest.(check bool) "unknown key" true (Algorithm.of_key "nope" = None)

let suite =
  [
    Alcotest.test_case "Fig. 4: NSA ratio approaches 3" `Quick
      test_fig4_nearest_ratio_approaches_3;
    Alcotest.test_case "Fig. 5: LFB beats NSA" `Quick test_fig5_lfb_beats_nearest;
    QCheck_alcotest.to_alcotest prop_every_algorithm_produces_valid_assignment;
    QCheck_alcotest.to_alcotest prop_nearest_assigns_nearest;
    QCheck_alcotest.to_alcotest prop_lfb_no_worse_than_nearest;
    QCheck_alcotest.to_alcotest prop_dgreedy_no_worse_than_nearest;
    QCheck_alcotest.to_alcotest prop_nearest_3_approx_on_metric_data;
    QCheck_alcotest.to_alcotest prop_heuristics_above_optimum;
    QCheck_alcotest.to_alcotest prop_capacitated_respects_capacity;
    Alcotest.test_case "capacity 1 forces a perfect spread" `Quick
      test_capacity_one_forces_perfect_spread;
    Alcotest.test_case "greedy collapses a tight cluster onto one server" `Quick
      test_greedy_single_cluster_uses_one_server;
    Alcotest.test_case "heuristics are deterministic" `Quick test_deterministic_algorithms;
    Alcotest.test_case "single-client instances" `Quick test_single_client;
    Alcotest.test_case "greedy near optimal on random instances" `Slow
      test_greedy_near_optimal_on_random_instances;
    QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
    Alcotest.test_case "algorithm keys roundtrip" `Quick test_key_roundtrip;
  ]
