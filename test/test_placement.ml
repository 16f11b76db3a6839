(* Tests for Dia_placement. *)

module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Placement = Dia_placement.Placement
module Kcenter = Dia_placement.Kcenter

let distinct a =
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let ok = ref true in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then ok := false
  done;
  !ok

let test_random_distinct_and_in_range () =
  let servers = Placement.random ~seed:1 ~k:10 ~n:50 in
  Alcotest.(check int) "count" 10 (Array.length servers);
  Alcotest.(check bool) "distinct" true (distinct servers);
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun s -> s >= 0 && s < 50) servers)

let test_random_deterministic () =
  Alcotest.(check (array int)) "same seed same placement"
    (Placement.random ~seed:9 ~k:5 ~n:30)
    (Placement.random ~seed:9 ~k:5 ~n:30)

let test_random_k_equals_n () =
  let servers = Placement.random ~seed:1 ~k:7 ~n:7 in
  Alcotest.(check (array int)) "all nodes" [| 0; 1; 2; 3; 4; 5; 6 |] servers

let test_random_rejects_bad_k () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Placement.random ~seed:1 ~k:5 ~n:3);
       false
     with Invalid_argument _ -> true)

let test_two_approx_guarantee () =
  (* Against the library's exact optimum. *)
  let m = Synthetic.euclidean ~seed:3 ~n:12 ~side:100. in
  let k = 3 in
  let centers = Kcenter.two_approx ~seed:0 m ~k in
  Alcotest.(check int) "k centers" k (Array.length centers);
  Alcotest.(check bool) "distinct" true (distinct centers);
  let radius = Kcenter.radius m centers in
  let best = Kcenter.radius m (Kcenter.optimal m ~k) in
  Alcotest.(check bool)
    (Printf.sprintf "radius %.2f within 2x optimum %.2f" radius best)
    true
    (radius <= (2. *. best) +. 1e-9)

let test_exact_kcenter_matches_enumeration () =
  let m = Synthetic.internet_like ~seed:6 11 in
  let k = 3 in
  (* Exhaustive optimum over all C(11,3) = 165 center sets. *)
  let best = ref infinity in
  for a = 0 to 10 do
    for b = a + 1 to 10 do
      for c = b + 1 to 10 do
        best := Float.min !best (Kcenter.radius m [| a; b; c |])
      done
    done
  done;
  Alcotest.(check (float 1e-9)) "optimal matches enumeration" !best
    (Kcenter.radius m (Kcenter.optimal m ~k))

let test_exact_kcenter_no_worse_than_heuristics () =
  for seed = 0 to 4 do
    let m = Synthetic.internet_like ~seed 12 in
    let opt = Kcenter.radius m (Kcenter.optimal m ~k:3) in
    Alcotest.(check bool) "beats greedy" true
      (opt <= Kcenter.radius m (Kcenter.greedy m ~k:3) +. 1e-9);
    Alcotest.(check bool) "beats 2-approx" true
      (opt <= Kcenter.radius m (Kcenter.two_approx m ~k:3) +. 1e-9)
  done

let test_exact_kcenter_node_limit () =
  let m = Synthetic.internet_like ~seed:1 40 in
  Alcotest.(check bool) "limit enforced" true
    (try ignore (Kcenter.optimal ~node_limit:5 m ~k:8); false
     with Failure _ -> true)

let test_greedy_no_worse_than_double_optimum_here () =
  let m = Synthetic.euclidean ~seed:4 ~n:12 ~side:100. in
  let k = 3 in
  let centers = Kcenter.greedy m ~k in
  Alcotest.(check int) "k centers" k (Array.length centers);
  Alcotest.(check bool) "distinct" true (distinct centers);
  Alcotest.(check bool) "radius finite" true
    (Float.is_finite (Kcenter.radius m centers))

let test_greedy_deterministic () =
  let m = Synthetic.internet_like ~seed:8 60 in
  Alcotest.(check (array int)) "same output" (Kcenter.greedy m ~k:6) (Kcenter.greedy m ~k:6)

let test_kcenter_improves_over_random () =
  let m = Synthetic.internet_like ~seed:12 150 in
  let k = 8 in
  let random_radius =
    (* Average a few random placements for a stable comparison. *)
    let total = ref 0. in
    for seed = 0 to 9 do
      total := !total +. Kcenter.radius m (Placement.random ~seed ~k ~n:150)
    done;
    !total /. 10.
  in
  let greedy_radius = Kcenter.radius m (Kcenter.greedy m ~k) in
  let approx_radius = Kcenter.radius m (Kcenter.two_approx m ~k) in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f < random %.1f" greedy_radius random_radius)
    true (greedy_radius < random_radius);
  Alcotest.(check bool)
    (Printf.sprintf "2-approx %.1f < random %.1f" approx_radius random_radius)
    true (approx_radius < random_radius)

let test_k_equals_zero () =
  Alcotest.(check int) "empty placement" 0 (Array.length (Kcenter.two_approx (Matrix.create 5) ~k:0))

let test_place_dispatch () =
  let m = Synthetic.internet_like ~seed:1 40 in
  List.iter
    (fun strategy ->
      let servers = Placement.place strategy m ~k:5 in
      Alcotest.(check int)
        (Placement.strategy_name strategy)
        5 (Array.length servers);
      Alcotest.(check bool) "distinct" true (distinct servers))
    Placement.all_strategies

let test_strategy_names_roundtrip () =
  List.iter
    (fun strategy ->
      match Placement.strategy_of_string (Placement.strategy_name strategy) with
      | Some s ->
          Alcotest.(check string) "roundtrip" (Placement.strategy_name strategy)
            (Placement.strategy_name s)
      | None -> Alcotest.fail "name did not roundtrip")
    Placement.all_strategies;
  Alcotest.(check bool) "unknown name" true (Placement.strategy_of_string "bogus" = None)

let test_coverage_radius_of_full_placement () =
  let m = Synthetic.internet_like ~seed:2 20 in
  let all = Array.init 20 Fun.id in
  Alcotest.(check (float 1e-9)) "radius zero when all nodes are centers" 0.
    (Kcenter.radius m all)

(* Distances drawn from 1..5: radii tie constantly, which is where an
   early exit could slip past the strict [<] lowest-index tie-break. *)
let integer_matrix ~seed n =
  let rng = Random.State.make [| seed |] in
  Matrix.init n (fun _ _ -> float_of_int (1 + Random.State.int rng 5))

let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"greedy k-center equals the full-scan reference on tied radii"
    ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_range 1 40) (int_bound 1_000))
    (fun (seed, n, kdraw) ->
      let m = integer_matrix ~seed n in
      let k = kdraw mod (n + 1) in
      Kcenter.greedy m ~k = Dia_oracle.Reference.kcenter_greedy m ~k)

let suite =
  [
    Alcotest.test_case "random placement distinct and in range" `Quick
      test_random_distinct_and_in_range;
    Alcotest.test_case "random placement deterministic" `Quick test_random_deterministic;
    Alcotest.test_case "random placement with k = n" `Quick test_random_k_equals_n;
    Alcotest.test_case "random placement validates k" `Quick test_random_rejects_bad_k;
    Alcotest.test_case "2-approx guarantee holds on metric data" `Quick test_two_approx_guarantee;
    Alcotest.test_case "exact k-center matches enumeration" `Quick
      test_exact_kcenter_matches_enumeration;
    Alcotest.test_case "exact k-center beats the heuristics" `Quick
      test_exact_kcenter_no_worse_than_heuristics;
    Alcotest.test_case "exact k-center node limit" `Quick test_exact_kcenter_node_limit;
    Alcotest.test_case "greedy k-center basic shape" `Quick
      test_greedy_no_worse_than_double_optimum_here;
    Alcotest.test_case "greedy k-center deterministic" `Quick test_greedy_deterministic;
    Alcotest.test_case "k-center beats random placement" `Quick test_kcenter_improves_over_random;
    Alcotest.test_case "k = 0 placements" `Quick test_k_equals_zero;
    Alcotest.test_case "place dispatches every strategy" `Quick test_place_dispatch;
    Alcotest.test_case "strategy names roundtrip" `Quick test_strategy_names_roundtrip;
    Alcotest.test_case "coverage radius with all nodes as centers" `Quick
      test_coverage_radius_of_full_placement;
    QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
  ]
