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
  Alcotest.(check (float 0.)) "empty D = 0" 0. (Ecc.objective ~ss:(Problem.ss_table p) empty);
  (* One used server: back to the round-trip term immediately. *)
  let one = Array.copy empty in
  one.(0) <- 4.;
  Alcotest.(check (float 1e-9)) "one server" 8. (Ecc.objective ~ss:(Problem.ss_table p) one)

let test_longest_pair_witness () =
  let p = hand_instance () in
  let a = Assignment.of_array p [| 0; 0; 1 |] in
  let ci, cj, len = Objective.longest_pair p a in
  Alcotest.(check (float 1e-9)) "witness length" 19. len;
  Alcotest.(check (float 1e-9)) "witness pair realises D" 19.
    (Objective.path_length p a ci cj)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The server-level scans against naive loops over [Problem.d_ss], on an
   eccentricity array with [neg_infinity] holes: the longest pair's
   length is the naive maximum; after one entry rises, folding in its
   {!Ecc.through} pair gives the naive rescan; the longest-pair flags
   are the naive ones; and an {!Ecc.attach} result below its bound is
   the full scan's, bit for bit. *)
let scans_match_naive p ~seed =
  let k = Problem.num_servers p in
  let rng = Random.State.make [| seed; 0xecc |] in
  let draw () = if Random.State.int rng 3 = 0 then neg_infinity else Random.State.float rng 200. in
  let e = Array.init k (fun _ -> draw ()) in
  let ss = Problem.ss_table p in
  let naive e =
    let best = ref neg_infinity in
    for a = 0 to k - 1 do
      for b = a to k - 1 do
        if e.(a) > neg_infinity && e.(b) > neg_infinity then
          best := Float.max !best (e.(a) +. Problem.d_ss p a b +. e.(b))
      done
    done;
    !best
  in
  let d = naive e in
  let longest_ok =
    match Ecc.longest ~ss e with
    | -1 -> d = neg_infinity && Ecc.objective ~ss e = 0.
    | pair -> same_bits d (Ecc.length ~ss e (pair / k) (pair mod k))
  in
  let flags_ok =
    let flags = Ecc.on_longest ~ss ~rowmax:(Ecc.rowmax ~ss k) e d in
    List.for_all
      (fun a ->
        flags.(a)
        = List.exists
            (fun b ->
              e.(a) > neg_infinity && e.(b) > neg_infinity
              && e.(min a b) +. Problem.d_ss p (min a b) (max a b) +. e.(max a b) >= d -. 1e-9)
            (List.init k Fun.id))
      (List.init k Fun.id)
  in
  let s = Random.State.int rng k in
  let risen = Array.copy e in
  risen.(s) <- Float.max e.(s) 0. +. Random.State.float rng 100.;
  let through_ok =
    same_bits (naive risen)
      (Float.max d (Ecc.length ~ss risen s (Ecc.through ~ss risen s)))
  in
  let hops = Array.init k (fun _ -> Random.State.float rng 100.) in
  let full = Array.copy hops in
  Array.iteri (fun s _ -> Ecc.attach ~ss e ~hop:full ~best:(-1) s) full;
  let attach_ok =
    List.for_all
      (fun s ->
        let h = hops.(s) in
        let worst = ref (2. *. h) in
        Array.iteri
          (fun s'' x -> if x > neg_infinity then worst := Float.max !worst (h +. Problem.d_ss p s s'' +. x))
          e;
        same_bits !worst full.(s)
        && List.for_all
             (fun b ->
               b = s
               ||
               let hop = Array.copy hops in
               hop.(b) <- full.(b);
               Ecc.attach ~ss e ~hop ~best:b s;
               if hop.(s) < full.(b) then same_bits hop.(s) full.(s) else full.(s) >= full.(b))
             (List.init k Fun.id))
      (List.init k Fun.id)
  in
  longest_ok && flags_ok && through_ok && attach_ok

(* Property: fast and naive evaluators agree on random instances and
   random assignments, and the eccentricity scans on random
   eccentricity arrays. *)
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
      Float.abs (fast -. naive) <= 1e-9 *. Float.max 1. (Float.abs naive)
      && scans_match_naive p ~seed)

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
