(* Tests for Dia_core.Lower_bound. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Algorithm = Dia_core.Algorithm

let random_instance seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients m ~servers

let test_hand_computed_bound () =
  (* Two clients, two servers; every client pair picks its best server
     pair independently. *)
  let m = Dia_latency.Matrix.create 4 in
  let set = Dia_latency.Matrix.set m in
  (* servers: nodes 0,1; clients: nodes 2,3 *)
  set 0 1 2.;
  set 2 0 1.;
  set 2 1 10.;
  set 3 0 10.;
  set 3 1 1.;
  set 2 3 100.;
  let p = Problem.make ~latency:m ~servers:[| 0; 1 |] ~clients:[| 2; 3 |] () in
  (* Pair (c1, c2): best is s0 then s1: 1 + 2 + 1 = 4.
     Pair (c1, c1): min over s,s' of d+d(s,s')+d = 1+0+1 = 2. Same for c2.
     LB = 4. *)
  Alcotest.(check (float 1e-9)) "LB" 4. (Lower_bound.compute p);
  Alcotest.(check (float 1e-9)) "naive agrees" 4. (Dia_oracle.Reference.lower_bound p)

let prop_pruned_equals_naive =
  QCheck.Test.make ~name:"pruned lower bound equals naive" ~count:100
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 1 20))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      (* Both sides sum (d(c,s) + d(s,s')) + d(c',s') for c <= c', and
         rounding is monotone, so min_s' of min_s commutes with the last
         addition: the two values are the same double. *)
      Int64.equal
        (Int64.bits_of_float (Lower_bound.compute p))
        (Int64.bits_of_float (Dia_oracle.Reference.lower_bound p)))

let prop_bound_below_every_algorithm =
  QCheck.Test.make ~name:"LB <= D(A) for every algorithm" ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_range 1 5) (int_range 1 15))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      let lb = Lower_bound.compute p in
      List.for_all
        (fun algorithm ->
          let a = Algorithm.run ~seed algorithm p in
          Objective.max_interaction_path p a >= lb -. 1e-9)
        Algorithm.all)

let prop_bound_below_optimum =
  QCheck.Test.make ~name:"LB <= optimal D" ~count:30
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let p = random_instance seed ~n:(k + 6) ~k in
      Lower_bound.compute p <= Dia_core.Brute_force.optimal_value p +. 1e-9)

let test_single_server_bound_is_tight () =
  (* With one server every interaction path is forced, so LB = D. *)
  let p = random_instance 3 ~n:12 ~k:1 in
  let a = Algorithm.run Algorithm.Nearest_server p in
  Alcotest.(check (float 1e-6)) "LB equals D"
    (Objective.max_interaction_path p a)
    (Lower_bound.compute p)

let test_normalized () =
  let p = random_instance 4 ~n:15 ~k:3 in
  let a = Algorithm.run Algorithm.Greedy p in
  let norm = Lower_bound.normalized p a in
  Alcotest.(check bool) "normalized >= 1" true (norm >= 1. -. 1e-9);
  Alcotest.(check (float 1e-9)) "normalized is the ratio"
    (Objective.max_interaction_path p a /. Lower_bound.compute p)
    norm

let test_no_clients () =
  let m = Synthetic.euclidean ~seed:1 ~n:4 ~side:10. in
  let p = Problem.make ~latency:m ~servers:[| 0 |] ~clients:[||] () in
  Alcotest.(check bool) "neg_infinity" true (Lower_bound.compute p = neg_infinity)

let suite =
  [
    Alcotest.test_case "hand-computed bound" `Quick test_hand_computed_bound;
    QCheck_alcotest.to_alcotest prop_pruned_equals_naive;
    QCheck_alcotest.to_alcotest prop_bound_below_every_algorithm;
    QCheck_alcotest.to_alcotest prop_bound_below_optimum;
    Alcotest.test_case "bound tight with a single server" `Quick
      test_single_server_bound_is_tight;
    Alcotest.test_case "normalized interactivity" `Quick test_normalized;
    Alcotest.test_case "no clients" `Quick test_no_clients;
  ]
