(* The flat-substrate contracts, as properties: every algorithm is a
   pure function of the matrix *entries* (so the boxed reference layout
   and the flat Bigarray store produce bit-identical assignments and
   objectives), and Dynamic's incremental objective/LB caches agree
   bit-for-bit with their from-scratch recomputations across arbitrary
   event sequences and a checkpoint/restore round-trip. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Dynamic = Dia_core.Dynamic
module Boxed = Dia_oracle.Reference.Boxed_matrix
module Differential = Dia_oracle.Differential
module Pool = Dia_parallel.Pool

let random_instance ?capacity seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity m ~servers

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
                ignore (Dynamic.fail_server t s);
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
    QCheck_alcotest.to_alcotest prop_dynamic_incremental_bit_identical;
  ]
