(* Tests for Dia_core.Problem and Dia_core.Assignment. *)

module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment

let small_instance () =
  let m = Synthetic.euclidean ~seed:1 ~n:10 ~side:100. in
  Problem.make ~latency:m ~servers:[| 0; 3; 7 |] ~clients:[| 1; 2; 4; 5; 6; 8; 9 |] ()

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_make_valid () =
  let p = small_instance () in
  Alcotest.(check int) "servers" 3 (Problem.num_servers p);
  Alcotest.(check int) "clients" 7 (Problem.num_clients p);
  Alcotest.(check bool) "uncapacitated" true (Problem.capacity p = None)

let test_make_rejects_duplicates () =
  let m = Matrix.create 5 in
  Alcotest.(check bool) "duplicate servers" true
    (raises_invalid (fun () ->
         Problem.make ~latency:m ~servers:[| 1; 1 |] ~clients:[| 0 |] ()))

let test_make_rejects_out_of_range () =
  let m = Matrix.create 5 in
  Alcotest.(check bool) "server oob" true
    (raises_invalid (fun () ->
         Problem.make ~latency:m ~servers:[| 5 |] ~clients:[| 0 |] ()));
  Alcotest.(check bool) "client oob" true
    (raises_invalid (fun () ->
         Problem.make ~latency:m ~servers:[| 0 |] ~clients:[| -1 |] ()))

let test_make_rejects_no_servers () =
  let m = Matrix.create 5 in
  Alcotest.(check bool) "no servers" true
    (raises_invalid (fun () ->
         Problem.make ~latency:m ~servers:[||] ~clients:[| 0 |] ()))

let test_make_rejects_infeasible_capacity () =
  let m = Matrix.create 5 in
  Alcotest.(check bool) "capacity too small" true
    (raises_invalid (fun () ->
         Problem.make ~capacity:1 ~latency:m ~servers:[| 0; 1 |]
           ~clients:[| 2; 3; 4 |] ()))

let test_clients_may_repeat_and_sit_on_servers () =
  let m = Matrix.create 5 in
  let p = Problem.make ~latency:m ~servers:[| 0; 1 |] ~clients:[| 0; 0; 1 |] () in
  Alcotest.(check int) "clients" 3 (Problem.num_clients p)

let test_all_nodes_clients () =
  let m = Synthetic.euclidean ~seed:1 ~n:8 ~side:10. in
  let p = Problem.all_nodes_clients m ~servers:[| 2; 5 |] in
  Alcotest.(check int) "every node is a client" 8 (Problem.num_clients p)

let test_distance_accessors () =
  let p = small_instance () in
  let m = Problem.latency p in
  Alcotest.(check (float 1e-9)) "d_cs"
    (Matrix.get m (Problem.clients p).(2) (Problem.servers p).(1))
    (Problem.d_cs p 2 1);
  Alcotest.(check (float 1e-9)) "d_ss"
    (Matrix.get m (Problem.servers p).(0) (Problem.servers p).(2))
    (Problem.d_ss p 0 2);
  Alcotest.(check (float 1e-9)) "d_cc"
    (Matrix.get m (Problem.clients p).(0) (Problem.clients p).(3))
    (Problem.d_cc p 0 3)

let test_nearest_server_is_minimal () =
  let p = small_instance () in
  for c = 0 to Problem.num_clients p - 1 do
    let nearest = Problem.nearest_server p c in
    for s = 0 to Problem.num_servers p - 1 do
      Alcotest.(check bool) "no closer server" true
        (Problem.d_cs p c nearest <= Problem.d_cs p c s)
    done
  done

let test_with_capacity () =
  let p = small_instance () in
  let p' = Problem.with_capacity p (Some 3) in
  Alcotest.(check bool) "capacity set" true (Problem.capacity p' = Some 3);
  Alcotest.(check bool) "original untouched" true (Problem.capacity p = None);
  Alcotest.(check bool) "infeasible rejected" true
    (raises_invalid (fun () -> Problem.with_capacity p (Some 2)))

let test_assignment_validation () =
  let p = small_instance () in
  Alcotest.(check bool) "wrong length" true
    (raises_invalid (fun () -> Assignment.of_array p [| 0; 1 |]));
  Alcotest.(check bool) "bad server" true
    (raises_invalid (fun () -> Assignment.of_array p (Array.make 7 3)))

let test_assignment_loads_and_used () =
  let p = small_instance () in
  let a = Assignment.of_array p [| 0; 0; 1; 1; 1; 0; 0 |] in
  Alcotest.(check (array int)) "loads" [| 4; 3; 0 |] (Assignment.loads p a);
  Alcotest.(check (array int)) "used servers" [| 0; 1 |] (Assignment.used_servers p a)

let test_assignment_capacity_check () =
  let p = Problem.with_capacity (small_instance ()) (Some 4) in
  let ok = Assignment.of_array p [| 0; 0; 1; 1; 1; 0; 0 |] in
  let over = Assignment.of_array p [| 0; 0; 0; 0; 0; 1; 1 |] in
  Alcotest.(check bool) "within capacity" true (Assignment.respects_capacity p ok);
  Alcotest.(check bool) "over capacity" false (Assignment.respects_capacity p over)

let test_assignment_constant_and_random () =
  let p = small_instance () in
  let const = Assignment.constant p 2 in
  Alcotest.(check bool) "all on server 2" true
    (Array.for_all (( = ) 2) (Assignment.to_array const));
  let r = Assignment.random p ~seed:3 in
  Alcotest.(check int) "random covers all clients" 7 (Assignment.num_clients r)

let test_of_array_copies () =
  let p = small_instance () in
  let arr = [| 0; 0; 1; 1; 1; 0; 0 |] in
  let a = Assignment.of_array p arr in
  arr.(0) <- 2;
  Alcotest.(check int) "copy taken" 0 (Assignment.server_of a 0)

let suite =
  [
    Alcotest.test_case "make valid instance" `Quick test_make_valid;
    Alcotest.test_case "reject duplicate servers" `Quick test_make_rejects_duplicates;
    Alcotest.test_case "reject out-of-range nodes" `Quick test_make_rejects_out_of_range;
    Alcotest.test_case "reject empty server set" `Quick test_make_rejects_no_servers;
    Alcotest.test_case "reject infeasible capacity" `Quick test_make_rejects_infeasible_capacity;
    Alcotest.test_case "clients may repeat and share server nodes" `Quick
      test_clients_may_repeat_and_sit_on_servers;
    Alcotest.test_case "all_nodes_clients covers every node" `Quick test_all_nodes_clients;
    Alcotest.test_case "distance accessors agree with the matrix" `Quick test_distance_accessors;
    Alcotest.test_case "nearest_server is minimal" `Quick test_nearest_server_is_minimal;
    Alcotest.test_case "with_capacity" `Quick test_with_capacity;
    Alcotest.test_case "assignment validation" `Quick test_assignment_validation;
    Alcotest.test_case "assignment loads and used servers" `Quick test_assignment_loads_and_used;
    Alcotest.test_case "assignment capacity check" `Quick test_assignment_capacity_check;
    Alcotest.test_case "constant and random assignments" `Quick
      test_assignment_constant_and_random;
    Alcotest.test_case "of_array copies its input" `Quick test_of_array_copies;
  ]
