(* Tests for Dia_core.Objective, including the property that the fast
   eccentricity-based evaluator agrees with the naive O(|C|^2) one. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Ecc = Dia_core.Ecc

(* Fig. 2-style hand instance: 2 servers, 3 clients, known distances.
   Node layout: s1=0, s2=1, c1=2, c2=3, c3=4. *)
let hand_instance () =
  let m = Dia_latency.Matrix.create 5 in
  let set = Dia_latency.Matrix.set m in
  set 0 1 10.;
  (* client-server distances *)
  set 2 0 3.;
  set 3 0 4.;
  set 4 0 12.;
  set 2 1 11.;
  set 3 1 13.;
  set 4 1 5.;
  (* client-client direct links, irrelevant to the objective *)
  set 2 3 6.;
  set 2 4 14.;
  set 3 4 15.;
  Problem.make ~latency:m ~servers:[| 0; 1 |] ~clients:[| 2; 3; 4 |] ()

let test_hand_computed_objective () =
  let p = hand_instance () in
  (* c1, c2 -> s1; c3 -> s2. Paths: c1-c2 = 3+0+4 = 7; c1-c3 = 3+10+5 = 18;
     c2-c3 = 4+10+5 = 19; self paths 6, 8, 10. D = 19. *)
  let a = Assignment.of_array p [| 0; 0; 1 |] in
  Alcotest.(check (float 1e-9)) "D" 19. (Objective.max_interaction_path p a);
  Alcotest.(check (float 1e-9)) "same by naive" 19.
    (Dia_oracle.Reference.max_interaction_path p a)

let test_single_server_objective_is_double_ecc () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 0 |] in
  (* All on s1: D = 2 * max(3,4,12) = 24. *)
  Alcotest.(check (float 1e-9)) "D" 24. (Objective.max_interaction_path p a)

let test_path_length_and_self_path () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 1 |] in
  Alcotest.(check (float 1e-9)) "cross path" 18. (Objective.path_length p a 0 2);
  Alcotest.(check (float 1e-9)) "self path is round trip" 6.
    (Objective.path_length p a 0 0)

let test_eccentricities () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 1 |] in
  let ecc = Objective.eccentricities p a in
  Alcotest.(check (float 1e-9)) "ecc s1" 4. ecc.(0);
  Alcotest.(check (float 1e-9)) "ecc s2" 5. ecc.(1)

let test_unused_server_ignored () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 0 |] in
  let ecc = Objective.eccentricities p a in
  Alcotest.(check bool) "unused server has -inf ecc" true (ecc.(1) = neg_infinity)

(* Pins the empty-configuration normalisation: [Ecc.objective] over an
   all-unused eccentricity array is [0.] (the identity of the max-plus
   objective), NOT [neg_infinity] — while [Dynamic.objective] keeps its
   pinned [neg_infinity]-on-empty protocol (see test_dynamic). *)
let test_ecc_objective_empty_is_zero () =
  let p = hand_instance () in
  let empty = Array.make (Problem.num_servers p) neg_infinity in
  Alcotest.(check (float 0.)) "empty D = 0" 0. (Ecc.objective p empty);
  (* One used server: back to the round-trip term immediately. *)
  let one = Array.copy empty in
  one.(0) <- 4.;
  Alcotest.(check (float 1e-9)) "one server" 8. (Ecc.objective p one)

let test_longest_pair_witness () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 1 |] in
  let ci, cj, len = Objective.longest_pair p a in
  Alcotest.(check (float 1e-9)) "witness length" 19. len;
  Alcotest.(check (float 1e-9)) "witness pair realises D" 19.
    (Objective.path_length p a ci cj)

(* Property: fast and naive evaluators agree on random instances and
   random assignments. *)
let prop_fast_equals_naive =
  QCheck.Test.make ~name:"fast objective equals naive objective" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 1 25))
    (fun (seed, k, extra_clients) ->
      let n = k + extra_clients in
      let m = Synthetic.internet_like ~seed n in
      let servers = Array.init k Fun.id in
      let p = Problem.all_nodes_clients m ~servers in
      let a = Assignment.random p ~seed:(seed + 1) in
      let fast = Objective.max_interaction_path p a in
      let naive = Dia_oracle.Reference.max_interaction_path p a in
      Float.abs (fast -. naive) <= 1e-9 *. Float.max 1. (Float.abs naive))

let suite =
  [
    Alcotest.test_case "hand-computed objective" `Quick test_hand_computed_objective;
    Alcotest.test_case "single-server objective" `Quick test_single_server_objective_is_double_ecc;
    Alcotest.test_case "path lengths including self" `Quick test_path_length_and_self_path;
    Alcotest.test_case "eccentricities" `Quick test_eccentricities;
    Alcotest.test_case "unused servers ignored" `Quick test_unused_server_ignored;
    Alcotest.test_case "empty configuration normalises to 0" `Quick
      test_ecc_objective_empty_is_zero;
    Alcotest.test_case "longest pair witness" `Quick test_longest_pair_witness;
    QCheck_alcotest.to_alcotest prop_fast_equals_naive;
  ]
