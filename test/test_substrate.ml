(* The flat-substrate contracts, as properties: every algorithm is a
   pure function of the matrix *entries* (so the boxed reference layout
   and the flat Bigarray store produce bit-identical assignments and
   objectives), the landmark index never changes a query's answer
   (metric or not), and Dynamic's incremental objective/LB caches agree
   bit-for-bit with their from-scratch recomputations across arbitrary
   event sequences and a checkpoint/restore round-trip. *)

module Matrix = Dia_latency.Matrix
module Landmark = Dia_latency.Landmark
module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Nearest = Dia_core.Nearest
module Dynamic = Dia_core.Dynamic
module Boxed = Dia_oracle.Reference.Boxed_matrix
module Kcenter = Dia_placement.Kcenter
module Differential = Dia_oracle.Differential
module Pool = Dia_parallel.Pool

let random_instance ?capacity seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity m ~servers

(* A matrix that genuinely satisfies the verified triangle bounds:
   points on a line with |xi - xj| distances. Exact in floats for small
   integer coordinates, so the landmark verification passes and the
   pruned query path (not the fallback) is what runs. *)
let metric_line_matrix seed n =
  let rng = Random.State.make [| seed |] in
  let xs = Array.init n (fun _ -> float_of_int (Random.State.int rng 1000)) in
  Matrix.init n (fun i j -> Float.abs (xs.(i) -. xs.(j)))

let prop_layout_roundtrip_bit_identical =
  QCheck.Test.make
    ~name:"all nine algorithms bit-identical across matrix layouts" ~count:15
    QCheck.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 4 20))
    (fun (seed, k, extra) ->
      let n = k + extra in
      let capacity = if seed mod 3 = 0 then Some (((n - 1) / k) + 1) else None in
      let p = random_instance ?capacity seed ~n ~k in
      let m = Problem.latency p in
      let boxed = Boxed.of_matrix m in
      if not (Boxed.bit_equal boxed m) then false
      else begin
        let p' =
          Problem.make ?capacity ~latency:(Boxed.to_matrix boxed)
            ~servers:(Problem.servers p) ~clients:(Problem.clients p) ()
        in
        List.for_all
          (fun key ->
            let a = Differential.run_algo ~seed key p in
            let a' = Differential.run_algo ~seed key p' in
            Assignment.equal a a'
            && Objective.max_interaction_path p a
               = Objective.max_interaction_path p' a')
          Differential.algo_keys
        && Lower_bound.compute p = Lower_bound.compute p'
      end)

let prop_lower_bound_jobs_identical =
  QCheck.Test.make ~name:"lower bound bit-identical for any pool size"
    ~count:15
    QCheck.(triple (int_bound 1_000_000) (int_range 2 6) (int_range 5 40))
    (fun (seed, k, extra) ->
      let p = random_instance seed ~n:(k + extra) ~k in
      let seq = Lower_bound.compute p in
      Pool.with_pool ~jobs:3 (fun pool -> Lower_bound.compute ~pool p) = seq)

let prop_landmark_nearest_exact =
  QCheck.Test.make
    ~name:"landmark nearest = exhaustive scan (metric and non-metric)"
    ~count:40
    QCheck.(
      quad (int_bound 1_000_000) (int_range 1 8) (int_range 2 40) bool)
    (fun (seed, k, extra, metric) ->
      let n = k + extra in
      let m =
        if metric then metric_line_matrix seed n
        else Synthetic.internet_like ~seed n
      in
      let servers = Dia_placement.Placement.random ~seed ~k ~n in
      let p = Problem.all_nodes_clients m ~servers in
      let index = Landmark.build m ~candidates:servers in
      let ok = ref true in
      for c = 0 to n - 1 do
        let i, d = Landmark.nearest index ~query:c in
        let s = Problem.nearest_server p c in
        if i <> s || d <> Problem.d_cs p c s then ok := false
      done;
      (* The indexed assignment path must agree too, also under a
         capacity and a load-dependent delay, where the index prunes
         the marginal-cost scan. *)
      let capped = Problem.with_capacity p (Some ((n + k - 1) / k)) in
      let delay = Dia_core.Delay.Queueing { mu = float_of_int (n / k + 1) } in
      !ok
      && Assignment.equal (Nearest.assign p) (Nearest.assign ~index p)
      && Assignment.equal (Nearest.assign ~delay capped)
           (Nearest.assign ~delay ~index capped))

let prop_landmark_bounds_valid =
  QCheck.Test.make ~name:"landmark lower bounds never exceed the distance"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 2 40))
    (fun (seed, k, extra) ->
      let n = k + extra in
      let m =
        if seed mod 2 = 0 then metric_line_matrix seed n
        else Synthetic.internet_like ~seed n
      in
      let servers = Dia_placement.Placement.random ~seed ~k ~n in
      let index = Landmark.build m ~candidates:servers in
      let lb = Array.make k 0. in
      let ok = ref true in
      for q = 0 to n - 1 do
        Landmark.lower_bounds index ~query:q lb;
        for i = 0 to k - 1 do
          if lb.(i) > Matrix.get m q servers.(i) then ok := false
        done
      done;
      !ok)

let prop_kcenter_radius_index_identical =
  QCheck.Test.make ~name:"kcenter radius identical with an index" ~count:30
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 2 30))
    (fun (seed, k, extra) ->
      let n = k + extra in
      let m =
        if seed mod 2 = 0 then metric_line_matrix seed n
        else Synthetic.internet_like ~seed n
      in
      let centers = Kcenter.greedy m ~k in
      let index = Landmark.build m ~candidates:centers in
      Kcenter.radius m centers = Kcenter.radius ~index m centers)

let test_index_mismatch_rejected () =
  let p = random_instance 7 ~n:12 ~k:3 in
  let other = Synthetic.internet_like ~seed:8 12 in
  let index = Landmark.build other ~candidates:(Problem.servers p) in
  Alcotest.check_raises "different matrix"
    (Invalid_argument "Nearest.assign: index built over a different matrix")
    (fun () -> ignore (Nearest.assign ~index p));
  let wrong =
    Landmark.build (Problem.latency p) ~candidates:[| 0; 1 |]
  in
  Alcotest.check_raises "different candidates"
    (Invalid_argument "Nearest.assign: index candidates do not match the servers")
    (fun () -> ignore (Nearest.assign ~index:wrong p))

(* Random event storm over Dynamic; after every burst the incremental
   caches must agree bit-for-bit with the from-scratch recomputation,
   and a restore from the exported state (over a layout-round-tripped
   base matrix) must reproduce objective and LB exactly. *)
let prop_dynamic_incremental_bit_identical =
  QCheck.Test.make ~name:"dynamic caches and restore bit-identical" ~count:20
    QCheck.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 8 24))
    (fun (seed, k, n) ->
      let m = Synthetic.internet_like ~seed n in
      let servers = Dia_placement.Placement.random ~seed ~k ~n in
      let t = Dynamic.create m ~servers in
      let rng = Random.State.make [| seed; 42 |] in
      let live = ref [] in
      let ok = ref true in
      for step = 0 to 59 do
        (match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            let id = Dynamic.join t ~node:(Random.State.int rng n) in
            live := id :: !live
        | 4 | 5 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                Dynamic.leave t id;
                live := rest)
        | 6 | 7 -> (
            match !live with
            | [] -> ()
            | id :: _ -> Dynamic.move t id (Random.State.int rng k))
        | 8 ->
            Dynamic.set_drift t
              ~server:(Random.State.int rng k)
              ~factor:(0.5 +. Random.State.float rng 1.5)
        | _ ->
            if List.length (Dynamic.active_servers t) > 1 then begin
              let s = Random.State.int rng k in
              if not (List.mem s (Dynamic.failed_servers t)) then begin
                ignore (Dynamic.fail_server t s ~greedy:true);
                Dynamic.recover_server t s
              end
            end);
        if step mod 10 = 9 then begin
          if Dynamic.objective t <> Dynamic.objective_scratch t then ok := false;
          if Dynamic.lower_bound t <> Dynamic.lower_bound_scratch t then
            ok := false
        end
      done;
      (* Restore round-trip over the round-tripped base matrix. *)
      let rt = Boxed.to_matrix (Boxed.of_matrix m) in
      let drift =
        List.filter_map
          (fun s ->
            let f = Dynamic.drift t s in
            if f <> 1.0 then Some (s, f) else None)
          (List.init k Fun.id)
      in
      let t' =
        Dynamic.restore rt ~servers
          ~members:(Dynamic.members t)
          ~next_id:(Dynamic.next_id t)
          ~failed:(Dynamic.failed_servers t)
          ~drift
          ~stats:(Dynamic.stats t)
      in
      !ok
      && Dynamic.objective t = Dynamic.objective t'
      && Dynamic.lower_bound t = Dynamic.lower_bound t')

let suite =
  [
    QCheck_alcotest.to_alcotest prop_layout_roundtrip_bit_identical;
    QCheck_alcotest.to_alcotest prop_lower_bound_jobs_identical;
    QCheck_alcotest.to_alcotest prop_landmark_nearest_exact;
    QCheck_alcotest.to_alcotest prop_landmark_bounds_valid;
    QCheck_alcotest.to_alcotest prop_kcenter_radius_index_identical;
    Alcotest.test_case "mismatched index rejected" `Quick
      test_index_mismatch_rejected;
    QCheck_alcotest.to_alcotest prop_dynamic_incremental_bit_identical;
  ]
