(* Tests for Dia_parallel.Pool: pool lifecycle, and the determinism
   contract — bit-identical results between jobs = 1 and jobs ∈ {2, 3, 8}
   for every parallelized entry point. *)

module Pool = Dia_parallel.Pool
module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Lower_bound = Dia_core.Lower_bound
module Local_search = Dia_core.Local_search
module Placement = Dia_placement.Placement
module Runner = Dia_experiments.Runner

(* Shared pools: spawning domains per qcheck case would dominate the
   suite's runtime. The last test of the suite shuts them down. *)
let pools = List.map (fun jobs -> Pool.create ~jobs ()) [ 2; 3; 8 ]

let random_instance seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Placement.random ~seed ~k ~n in
  (m, Problem.all_nodes_clients m ~servers)

(* -- Lifecycle ----------------------------------------------------------- *)

let test_jobs_one_is_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      let r = Pool.init pool 10 (fun i -> i * i) in
      Alcotest.(check (array int)) "init" (Array.init 10 (fun i -> i * i)) r;
      Alcotest.(check int) "no worker batches" 0 (Pool.exercised pool))

let test_reuse_many_submissions () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 200 do
        let r = Pool.init pool 64 (fun i -> (i * round) land 1023) in
        let expected = Array.init 64 (fun i -> (i * round) land 1023) in
        if r <> expected then
          Alcotest.failf "round %d: wrong result after reuse" round
      done;
      Alcotest.(check bool) "worker path exercised" true (Pool.exercised pool > 0))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  ignore (Pool.init pool 8 Fun.id);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* and again via with_pool's finally after an explicit shutdown *)
  Pool.with_pool ~jobs:2 (fun p -> Pool.shutdown p);
  Alcotest.check_raises "submission after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      ignore (Pool.init pool 8 Fun.id))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* The lowest-index failure is the one reported, as sequentially. *)
      Alcotest.check_raises "worker exception surfaces" (Boom 17) (fun () ->
          ignore
            (Pool.init pool 100 (fun i -> if i >= 17 then raise (Boom i) else i)));
      (* The pool survives a failed batch. *)
      let r = Pool.init pool 32 succ in
      Alcotest.(check (array int)) "usable after exception"
        (Array.init 32 succ) r)

let test_nested_submission_runs_inline () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* A task running on the pool may call back into the same pool;
         the nested batch must run inline instead of deadlocking. *)
      let r =
        Pool.init pool 16 (fun i ->
            Array.fold_left ( + ) 0 (Pool.init pool (i + 4) Fun.id))
      in
      let expected = Array.init 16 (fun i -> (i + 4) * (i + 3) / 2) in
      Alcotest.(check (array int)) "nested" expected r)

let test_run_seeds_order () =
  Pool.with_pool ~jobs:8 (fun pool ->
      let r = Pool.run_seeds pool ~seeds:100 (fun s -> s * 7) in
      Alcotest.(check (array int)) "seed order" (Array.init 100 (fun s -> s * 7)) r)

let test_default_jobs_env () =
  Unix.putenv "DIA_JOBS" "5";
  Alcotest.(check int) "DIA_JOBS=5" 5 (Pool.default_jobs ());
  Unix.putenv "DIA_JOBS" "not-a-number";
  Alcotest.(check int) "garbage" 1 (Pool.default_jobs ());
  Unix.putenv "DIA_JOBS" "0";
  Alcotest.(check int) "non-positive" 1 (Pool.default_jobs ());
  Unix.putenv "DIA_JOBS" "129";
  Alcotest.(check int) "above the domain limit" 1 (Pool.default_jobs ());
  Unix.putenv "DIA_JOBS" ""

let test_create_rejects_out_of_range () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Invalid_argument "Pool.create: jobs must be in 1..128")
        (fun () -> ignore (Pool.create ~jobs ())))
    [ 0; 129 ]

let test_anneal_restarts_deterministic () =
  let _, p = random_instance 5 ~n:40 ~k:5 in
  let start = Dia_core.Nearest.assign p in
  let params =
    { Local_search.default_annealing with Local_search.steps = 2_000 }
  in
  let seq = Local_search.anneal_restarts ~params ~restarts:6 p start in
  List.iter
    (fun pool ->
      let par = Local_search.anneal_restarts ~pool ~params ~restarts:6 p start in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical" (Pool.jobs pool))
        true (par = seq))
    pools

(* Chunk granularity: a small batch must not be oversplit into more
   chunks than workers — per-chunk setup overhead dominated and made
   jobs=4 slower than jobs=1 (the fig8 regression). chunk_map returns
   one value per chunk, so its length is the chunk count. *)
let test_small_batch_not_oversplit () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun n ->
          let parts = Pool.chunk_map pool ~n (fun ~lo ~hi -> hi - lo) in
          if Array.length parts > 4 then
            Alcotest.failf "n=%d split into %d chunks (> jobs=4)" n
              (Array.length parts);
          Alcotest.(check int)
            (Printf.sprintf "n=%d items covered" n)
            n
            (Array.fold_left ( + ) 0 parts))
        [ 2; 4; 8; 12; 24; 63 ];
      (* Large batches still oversplit for balance. *)
      let parts = Pool.chunk_map pool ~n:1024 (fun ~lo ~hi -> hi - lo) in
      Alcotest.(check int) "n=1024 oversplit 4x" 16 (Array.length parts);
      (* A raised grain keeps even big batches coarse. *)
      let parts = Pool.chunk_map ~grain:512 pool ~n:1024 (fun ~lo ~hi -> hi - lo) in
      Alcotest.(check int) "grain=512 caps at jobs" 4 (Array.length parts))

(* -- qcheck determinism properties ---------------------------------------- *)

(* Exact float equality on purpose: the contract is bit-identity. *)
let prop_lower_bound_bit_identical =
  QCheck.Test.make ~name:"Lower_bound.compute identical for jobs in {2,3,8}"
    ~count:25
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 1 40))
    (fun (seed, k, extra) ->
      let _, p = random_instance seed ~n:(k + extra) ~k in
      let seq = Lower_bound.compute p in
      List.for_all (fun pool -> Lower_bound.compute ~pool p = seq) pools)

let prop_average_normalized_bit_identical =
  QCheck.Test.make
    ~name:"Runner.average_normalized identical for jobs in {2,3,8}" ~count:10
    QCheck.(triple (int_bound 1_000_000) (int_range 6 30) (int_range 1 5))
    (fun (seed, n, runs) ->
      let m = Synthetic.internet_like ~seed n in
      let k = max 1 (n / 4) in
      let seq = Runner.average_normalized m ~runs ~k in
      List.for_all
        (fun pool -> Runner.average_normalized ~pool m ~runs ~k = seq)
        pools)

(* Must stay last: later cases would hit "used after shutdown". *)
let test_shutdown_shared_pools () =
  List.iter
    (fun pool ->
      Alcotest.(check bool) "worker path exercised" true (Pool.exercised pool > 0);
      Pool.shutdown pool)
    pools

let suite =
  [
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_is_inline;
    Alcotest.test_case "reuse across 200 submissions" `Quick test_reuse_many_submissions;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "exceptions propagate out of workers" `Quick
      test_exception_propagation;
    Alcotest.test_case "nested submission runs inline" `Quick
      test_nested_submission_runs_inline;
    Alcotest.test_case "run_seeds preserves seed order" `Quick test_run_seeds_order;
    Alcotest.test_case "DIA_JOBS parsing" `Quick test_default_jobs_env;
    Alcotest.test_case "create rejects jobs outside 1..128" `Quick
      test_create_rejects_out_of_range;
    Alcotest.test_case "anneal_restarts deterministic across pools" `Quick
      test_anneal_restarts_deterministic;
    Alcotest.test_case "small batches issue at most jobs chunks" `Quick
      test_small_batch_not_oversplit;
    QCheck_alcotest.to_alcotest prop_lower_bound_bit_identical;
    QCheck_alcotest.to_alcotest prop_average_normalized_bit_identical;
    Alcotest.test_case "shutdown shared pools" `Quick test_shutdown_shared_pools;
  ]
