(* Tests for Dia_core.Interaction. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Interaction = Dia_core.Interaction

let instance seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients m ~servers

let assignment p = Dia_core.Greedy.assign p

let test_path_decomposition_sums () =
  let p = instance 1 ~n:30 ~k:4 in
  let a = assignment p in
  for ci = 0 to 5 do
    for cj = 0 to 5 do
      let path = Interaction.path p a ci cj in
      Alcotest.(check (float 1e-9)) "legs sum to length"
        (path.Interaction.client_leg +. path.Interaction.server_leg
        +. path.Interaction.exit_leg)
        path.Interaction.length;
      Alcotest.(check (float 1e-9)) "matches objective's path"
        (Objective.path_length p a ci cj)
        path.Interaction.length
    done
  done

let test_worst_pair_is_objective () =
  let p = instance 2 ~n:40 ~k:5 in
  let a = assignment p in
  match Interaction.worst_pairs ~count:3 p a with
  | worst :: rest ->
      Alcotest.(check (float 1e-9)) "head is D(A)"
        (Objective.max_interaction_path p a)
        worst.Interaction.length;
      List.iter
        (fun next ->
          Alcotest.(check bool) "descending" true
            (next.Interaction.length <= worst.Interaction.length +. 1e-9))
        rest
  | [] -> Alcotest.fail "no pairs"

let test_breakdown_sums_to_objective () =
  let p = instance 6 ~n:30 ~k:4 in
  let a = assignment p in
  let client_legs, server_leg = Interaction.breakdown p a in
  Alcotest.(check (float 1e-9)) "sums to D"
    (Objective.max_interaction_path p a)
    (client_legs +. server_leg)

let test_nearest_server_has_larger_server_share () =
  (* The paper's critique, measured through the breakdown: NSA's worst
     path is dominated by the inter-server leg more than Greedy's. *)
  let shares algorithm =
    let total_share = ref 0. in
    for seed = 0 to 4 do
      let p = instance seed ~n:60 ~k:8 in
      let a = Dia_core.Algorithm.run algorithm p in
      let client_legs, server_leg = Interaction.breakdown p a in
      total_share := !total_share +. (server_leg /. (client_legs +. server_leg))
    done;
    !total_share /. 5.
  in
  let nsa = shares Dia_core.Algorithm.Nearest_server in
  let greedy = shares Dia_core.Algorithm.Greedy in
  Alcotest.(check bool)
    (Printf.sprintf "NSA server share %.2f > greedy %.2f" nsa greedy)
    true (nsa > greedy)

(* Cross-checks against exhaustive O(|C|^2) path enumeration:
   [worst_pairs] takes eccentricity shortcuts (only per-server worst clients
   are ranked), so verify it against the definition on instances small
   enough to enumerate. *)

let all_pair_lengths p a =
  let n = Problem.num_clients p in
  let paths = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      paths := (i, j, Objective.path_length p a i j) :: !paths
    done
  done;
  !paths

let enumeration_instances () =
  List.map
    (fun (seed, n, k, capacity, algo) ->
      let m = Synthetic.internet_like ~seed n in
      let servers = Dia_placement.Placement.random ~seed ~k ~n in
      let p = Problem.all_nodes_clients ?capacity m ~servers in
      (p, Dia_core.Algorithm.run ~seed algo p))
    [
      (3, 18, 4, None, Dia_core.Algorithm.Greedy);
      (4, 25, 6, None, Dia_core.Algorithm.Random_assignment);
      (5, 20, 5, Some 5, Dia_core.Algorithm.Nearest_server);
      (6, 12, 3, None, Dia_core.Algorithm.Single_server);
    ]

let test_worst_pairs_vs_enumeration () =
  List.iter
    (fun (p, a) ->
      let count = 7 in
      (* The documented candidate set: for every unordered pair of used
         servers, the longest path between clients of those two servers
         (a client's round trip to itself included). Build it from the
         full O(|C|^2) enumeration and rank. *)
      let per_server_pair = Hashtbl.create 16 in
      List.iter
        (fun (i, j, len) ->
          let si = Assignment.server_of a i and sj = Assignment.server_of a j in
          let key = (min si sj, max si sj) in
          match Hashtbl.find_opt per_server_pair key with
          | Some best when best >= len -> ()
          | _ -> Hashtbl.replace per_server_pair key len)
        (all_pair_lengths p a);
      let expected =
        Hashtbl.fold (fun _ len acc -> len :: acc) per_server_pair []
        |> List.sort (fun x y -> Float.compare y x)
        |> List.filteri (fun i _ -> i < count)
      in
      let got = Interaction.worst_pairs ~count p a in
      Alcotest.(check int) "one path per used server pair, capped"
        (List.length expected) (List.length got);
      List.iter2
        (fun e pa ->
          Alcotest.(check (float 1e-9)) "ranked path length" e
            pa.Interaction.length;
          Alcotest.(check (float 1e-9)) "reported pair reproduces its length"
            (Objective.path_length p a pa.Interaction.from_client
               pa.Interaction.to_client)
            pa.Interaction.length)
        expected got)
    (enumeration_instances ())

let suite =
  [
    Alcotest.test_case "path decomposition sums" `Quick test_path_decomposition_sums;
    Alcotest.test_case "worst pair equals the objective" `Quick test_worst_pair_is_objective;
    Alcotest.test_case "breakdown sums to the objective" `Quick
      test_breakdown_sums_to_objective;
    Alcotest.test_case "NSA pays in the inter-server leg" `Quick
      test_nearest_server_has_larger_server_share;
    Alcotest.test_case "worst_pairs matches pair enumeration" `Quick
      test_worst_pairs_vs_enumeration;
  ]
