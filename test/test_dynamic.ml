(* Tests for Dia_core.Dynamic: online joins/leaves/rebalancing. *)

module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Algorithm = Dia_core.Algorithm

let matrix = Synthetic.internet_like ~seed:21 80
let servers = Dia_placement.Placement.random ~seed:21 ~k:6 ~n:80

let fresh ?capacity () = Dynamic.create ?capacity matrix ~servers

let test_empty_session () =
  let t = fresh () in
  Alcotest.(check int) "no clients" 0 (Dynamic.num_clients t);
  Alcotest.(check bool) "objective -inf" true (Dynamic.objective t = neg_infinity)

let test_join_tracks_objective () =
  let t = fresh () in
  let id = Dynamic.join t ~node:3 in
  Alcotest.(check int) "one client" 1 (Dynamic.num_clients t);
  let s = Dynamic.server_of t id in
  Alcotest.(check (float 1e-9)) "objective is round trip"
    (2. *. Matrix.get matrix 3 servers.(s))
    (Dynamic.objective t)

let test_single_join_picks_nearest () =
  (* With no other clients, minimising the objective = minimising the
     round trip = joining the nearest server. *)
  let t = fresh () in
  let id = Dynamic.join t ~node:7 in
  let s = Dynamic.server_of t id in
  Array.iteri
    (fun s' node ->
      Alcotest.(check bool)
        (Printf.sprintf "server %d not closer" s')
        true
        (Matrix.get matrix 7 servers.(s) <= Matrix.get matrix 7 node +. 1e-12))
    servers

let test_snapshot_matches_incremental_objective () =
  let t = fresh () in
  for node = 0 to 39 do
    ignore (Dynamic.join t ~node)
  done;
  let p, a = Dynamic.snapshot t in
  Alcotest.(check (float 1e-6)) "objectives agree"
    (Objective.max_interaction_path p a)
    (Dynamic.objective t)

let test_leave_restores_state () =
  let t = fresh () in
  let permanent = Dynamic.join t ~node:0 in
  let d_before = Dynamic.objective t in
  let visitor = Dynamic.join t ~node:50 in
  Dynamic.leave t visitor;
  Alcotest.(check int) "one client left" 1 (Dynamic.num_clients t);
  Alcotest.(check (float 1e-9)) "objective restored" d_before (Dynamic.objective t);
  Alcotest.(check bool) "permanent client still assigned" true
    (Dynamic.server_of t permanent >= 0)

let test_leave_twice_rejected () =
  let t = fresh () in
  let id = Dynamic.join t ~node:0 in
  Dynamic.leave t id;
  Alcotest.(check bool) "raises" true
    (try
       Dynamic.leave t id;
       false
     with Invalid_argument _ -> true)

let test_capacity_enforced () =
  let t = fresh ~capacity:1 () in
  (* 6 servers, capacity 1: the 7th join must fail. *)
  for node = 0 to 5 do
    ignore (Dynamic.join t ~node)
  done;
  Alcotest.(check bool) "raises when saturated" true
    (try
       ignore (Dynamic.join t ~node:6);
       false
     with Failure _ -> true)

let test_rebalance_improves_after_churn () =
  let t = fresh () in
  let rng = Random.State.make [| 5 |] in
  let ids = ref [] in
  (* Churn: join everyone, remove a random half, join more. *)
  for node = 0 to 79 do
    ids := Dynamic.join t ~node :: !ids
  done;
  List.iter
    (fun id -> if Random.State.bool rng then Dynamic.leave t id)
    !ids;
  for node = 0 to 19 do
    ignore (Dynamic.join t ~node)
  done;
  let before = Dynamic.objective t in
  let moves = Dynamic.rebalance t in
  let after = Dynamic.objective t in
  Alcotest.(check bool) "not worse" true (after <= before +. 1e-9);
  let stats = Dynamic.stats t in
  Alcotest.(check int) "moves counted" moves stats.Dynamic.moves;
  (* After full rebalance, no single move improves (verified offline). *)
  let p, a = Dynamic.snapshot t in
  let arr = Assignment.to_array a in
  let improvable = ref false in
  let d = Objective.max_interaction_path p a in
  for c = 0 to Problem.num_clients p - 1 do
    let original = arr.(c) in
    for s = 0 to Problem.num_servers p - 1 do
      if s <> original then begin
        arr.(c) <- s;
        if Objective.max_interaction_path p (Assignment.unsafe_of_array arr)
           < d -. 1e-9
        then improvable := true;
        arr.(c) <- original
      end
    done
  done;
  Alcotest.(check bool) "locally optimal" false !improvable

let test_rebalance_respects_move_budget () =
  let t = fresh () in
  for node = 0 to 59 do
    ignore (Dynamic.join t ~node)
  done;
  let moves = Dynamic.rebalance ~max_moves:2 t in
  Alcotest.(check bool) "at most 2 moves" true (moves <= 2)

let test_online_vs_offline_quality () =
  (* Greedy joins + rebalance should land in the same quality region as
     the offline Distributed-Greedy on the same membership. *)
  let t = fresh () in
  for node = 0 to 79 do
    ignore (Dynamic.join t ~node)
  done;
  ignore (Dynamic.rebalance t);
  let p, _ = Dynamic.snapshot t in
  let offline =
    Objective.max_interaction_path p (Algorithm.run Algorithm.Distributed_greedy p)
  in
  let online = Dynamic.objective t in
  Alcotest.(check bool)
    (Printf.sprintf "online %.1f within 30%% of offline %.1f" online offline)
    true
    (online <= offline *. 1.3 +. 1e-9)

let test_stats_accumulate () =
  let t = fresh () in
  let a = Dynamic.join t ~node:1 in
  let _ = Dynamic.join t ~node:2 in
  Dynamic.leave t a;
  let stats = Dynamic.stats t in
  Alcotest.(check int) "joins" 2 stats.Dynamic.joins;
  Alcotest.(check int) "leaves" 1 stats.Dynamic.leaves

let test_fail_server_migrates_clients () =
  let t = fresh () in
  for node = 0 to 59 do
    ignore (Dynamic.join t ~node)
  done;
  (* Fail a server that actually hosts someone. *)
  let victim =
    let _, a = Dynamic.snapshot t in
    Assignment.server_of a 0
  in
  let before = Dynamic.num_clients t in
  let r = Dynamic.fail_server t victim in
  Alcotest.(check int) "population preserved" before (Dynamic.num_clients t);
  Alcotest.(check bool) "someone migrated" true (r.Dynamic.rehomed > 0);
  let p, a = Dynamic.snapshot t in
  Array.iteri
    (fun c s ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d not on failed server" c)
        true (s <> victim))
    (Assignment.to_array a);
  Alcotest.(check (float 1e-6)) "objective still consistent"
    (Objective.max_interaction_path p a)
    (Dynamic.objective t);
  Alcotest.(check int) "one server down" 5
    (List.length (Dynamic.active_servers t))

let test_fail_server_twice_rejected () =
  let t = fresh () in
  ignore (Dynamic.join t ~node:0);
  ignore (Dynamic.fail_server t 1);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dynamic.fail_server t 1);
       false
     with Invalid_argument _ -> true)

let test_fail_server_capacity_exhaustion () =
  (* 6 servers x capacity 1, 6 clients: failing any server leaves nowhere
     to put its client, so it is stranded and the server stays down. *)
  let t = fresh ~capacity:1 () in
  let ids = List.init 6 (fun node -> Dynamic.join t ~node) in
  let loaded = Dynamic.server_of t (List.hd ids) in
  let r = Dynamic.fail_server t loaded in
  Alcotest.(check int) "nobody migrated" 0 r.Dynamic.rehomed;
  Alcotest.(check (list (pair int int))) "the orphan stranded" [ (List.hd ids, 0) ]
    r.Dynamic.stranded;
  Alcotest.(check int) "five servers still active" 5
    (List.length (Dynamic.active_servers t));
  Alcotest.(check int) "the rest stay connected" 5 (Dynamic.num_clients t)

let test_recover_server () =
  let t = fresh () in
  for node = 0 to 29 do
    ignore (Dynamic.join t ~node)
  done;
  ignore (Dynamic.fail_server t 0);
  Dynamic.recover_server t 0;
  Alcotest.(check int) "all active again" 6 (List.length (Dynamic.active_servers t));
  (* Rebalance may move clients back onto the recovered server. *)
  ignore (Dynamic.rebalance t);
  let p, a = Dynamic.snapshot t in
  Alcotest.(check (float 1e-6)) "objective consistent after recovery"
    (Objective.max_interaction_path p a)
    (Dynamic.objective t)

let prop_random_operation_sequences_stay_consistent =
  (* Model-based stress: a random sequence of joins / leaves / rebalances /
     failures / recoveries must keep the incremental objective equal to the
     snapshot-recomputed one, loads within capacity, and no client on a
     failed server. Every failure accounts for each orphan, re-homed or
     stranded, and strands one only once no live server has room: it
     re-homes as many as the other live servers had free slots. One seed
     in three runs at capacity 6, where failures do strand. *)
  QCheck.Test.make ~name:"random op sequences keep invariants" ~count:25
    QCheck.(pair (int_bound 1_000_000) (int_range 10 120))
    (fun (seed, steps) ->
      let rng = Random.State.make [| seed |] in
      let capacity = if seed mod 3 = 0 then 6 else 30 in
      let t = Dynamic.create ~capacity matrix ~servers in
      let live = ref [] in
      let failed = ref [] in
      let accounted = ref true in
      for _ = 1 to steps do
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
            (try live := Dynamic.join t ~node:(Random.State.int rng 80) :: !live
             with Failure _ -> ())
        | 5 | 6 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                Dynamic.leave t id;
                live := rest)
        | 7 -> ignore (Dynamic.rebalance ~max_moves:3 t)
        | 8 ->
            let s = Random.State.int rng 6 in
            if not (List.mem s !failed) && List.length !failed < 4 then (
              let orphans = Dynamic.load t s in
              let free =
                List.fold_left
                  (fun n s' -> if s' = s then n else n + capacity - Dynamic.load t s')
                  0 (Dynamic.active_servers t)
              in
              let r = Dynamic.fail_server t s in
              let stranded = List.length r.Dynamic.stranded in
              if
                r.Dynamic.rehomed + stranded <> orphans
                || r.Dynamic.rehomed <> min orphans free
                || (stranded > 0 && Dynamic.has_room t)
              then accounted := false;
              failed := s :: !failed;
              live :=
                List.filter (fun id -> not (List.mem_assoc id r.Dynamic.stranded)) !live)
        | _ -> (
            match !failed with
            | [] -> ()
            | s :: rest ->
                Dynamic.recover_server t s;
                failed := rest)
      done;
      !accounted
      && (Dynamic.num_clients t = 0
      ||
        let p, a = Dynamic.snapshot t in
        let objective_ok =
          Float.abs
            (Objective.max_interaction_path p a -. Dynamic.objective t)
          < 1e-6
        in
        let capacity_ok = Assignment.respects_capacity p a in
        let no_failed_hosting =
          Array.for_all
            (fun s -> not (List.mem s !failed))
            (Assignment.to_array a)
        in
        objective_ok && capacity_ok && no_failed_hosting))

let delay_of = function
  | 0 -> Dia_core.Delay.Constant 0.
  | 1 -> Dia_core.Delay.Constant 2.
  | 2 -> Dia_core.Delay.Linear { base = 0.5; coeff = 0.25 }
  | 3 -> Dia_core.Delay.Queueing { mu = 40. }
  (* mu = 6 saturates routinely under this churn — the total-order
     convention past the pole is exercised, not just defined. *)
  | _ -> Dia_core.Delay.Queueing { mu = 6. }

(* The same network with only the servers' rows materialised: a session
   over it must be indistinguishable from one over [matrix]. *)
let rows_matrix = Synthetic.internet_like ~rows:servers ~seed:21 80

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Two sessions that received the same ops hold the same state, bit for
   bit, and their snapshots solve to the same offline answers. *)
let sessions_agree ~delay t r =
  let module G = Dia_core.Greedy in
  let module DG = Dia_core.Distributed_greedy in
  let module LB = Dia_core.Lower_bound in
  Dynamic.members t = Dynamic.members r
  && Dynamic.failed_servers t = Dynamic.failed_servers r
  && same_bits (Dynamic.objective t) (Dynamic.objective r)
  && same_bits (Dynamic.lower_bound t) (Dynamic.lower_bound r)
  && (Dynamic.num_clients t = 0
     ||
     let p, a = Dynamic.snapshot t and p', a' = Dynamic.snapshot r in
     let d = DG.run p and d' = DG.run p' in
     Assignment.to_array a = Assignment.to_array a'
     && Assignment.to_array (G.assign ~delay p) = Assignment.to_array (G.assign ~delay p')
     && Assignment.to_array d.DG.assignment = Assignment.to_array d'.DG.assignment
     && Array.for_all2 same_bits d.DG.trace d'.DG.trace
     && same_bits (LB.compute p) (LB.compute p'))

let prop_load_objective_bit_identical_to_scratch =
  (* The incremental objective and bound of a session with a delay
     model (D_load/LB_load): after every operation of a random
     join/leave/move/fail/recover/drift/rebalance sequence, the
     cached values must be bit-identical (=, not within epsilon) to a
     from-scratch recompute over the member table; a restore round-trip
     must reproduce both; and under [Constant 0.] the objective must be
     the network D of the offline evaluator bit-for-bit. A second
     session over [rows_matrix] receives every op too and must agree
     with the first after each one, snapshot solves included. *)
  QCheck.Test.make
    ~name:"incremental D_load/LB_load bit-identical to scratch" ~count:25
    QCheck.(
      triple (int_bound 1_000_000) (int_range 10 120) (int_bound 4))
    (fun (seed, steps, model) ->
      let delay = delay_of model in
      let rng = Random.State.make [| seed; 0x10ad |] in
      let t = Dynamic.create ~capacity:30 ~delay matrix ~servers in
      let r = Dynamic.create ~capacity:30 ~delay rows_matrix ~servers in
      (* [f] on the primary session, then the same call on the rows-only
         one; an exception on the primary skips the twin, one on the
         twin alone leaves the two apart and fails the next check. *)
      let both f =
        let v = f t in
        ignore (f r);
        v
      in
      let live = ref [] in
      let failed = ref [] in
      let consistent () =
        Dynamic.objective t = Dynamic.objective_scratch t
        && Dynamic.lower_bound t = Dynamic.lower_bound_scratch t
        && (model <> 0 || Dynamic.num_clients t = 0
           ||
           let p, a = Dynamic.snapshot t in
           Dynamic.objective t = Objective.max_interaction_path p a)
        && sessions_agree ~delay t r
      in
      let drop_departed () =
        live :=
          List.filter
            (fun id ->
              match Dynamic.server_of t id with
              | _ -> true
              | exception Invalid_argument _ -> false)
            !live
      in
      let ok = ref true in
      for _ = 1 to steps do
        (match Random.State.int rng 13 with
        | 0 | 1 | 2 | 3 ->
            let node = Random.State.int rng 80 in
            (try live := both (fun s -> Dynamic.join s ~node) :: !live
             with Failure _ -> ())
        | 4 | 5 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                both (fun s -> Dynamic.leave s id);
                live := rest)
        | 6 -> (
            match !live with
            | [] -> ()
            | id :: _ -> (
                let s = Random.State.int rng 6 in
                try both (fun x -> Dynamic.move x id s)
                with Invalid_argument _ | Failure _ -> ()))
        | 7 -> ignore (both (Dynamic.rebalance ~max_moves:3))
        | 8 | 9 ->
            let s = Random.State.int rng 6 in
            if not (List.mem s !failed) && List.length !failed < 4 then (
              try
                (* Stranded orphans leave the session silently here —
                   the report already accounts for them. *)
                ignore (both (fun x -> Dynamic.fail_server x s));
                failed := s :: !failed;
                drop_departed ()
              with Invalid_argument _ -> ())
        | 10 -> (
            match !failed with
            | [] -> ()
            | s :: rest ->
                both (fun x -> Dynamic.recover_server x s);
                failed := rest)
        | _ ->
            let s = Random.State.int rng 6 in
            let factor = 0.5 +. Random.State.float rng 1.5 in
            both (fun x -> Dynamic.set_drift x ~server:s ~factor));
        if not (consistent ()) then ok := false
      done;
      (* Restore round-trip: the rebuilt session must reproduce the
         load-aware numbers bit-for-bit, over either matrix. *)
      let drift =
        List.filter_map
          (fun s ->
            let f = Dynamic.drift t s in
            if f <> 1.0 then Some (s, f) else None)
          (List.init 6 Fun.id)
      in
      let restore m =
        Dynamic.restore ~capacity:30 ~delay m ~servers
          ~members:(Dynamic.members t) ~next_id:(Dynamic.next_id t)
          ~failed:(Dynamic.failed_servers t) ~drift ~stats:(Dynamic.stats t)
      in
      let t' = restore matrix and r' = restore rows_matrix in
      !ok
      && Dynamic.objective t' = Dynamic.objective t
      && Dynamic.lower_bound t' = Dynamic.lower_bound t
      && sessions_agree ~delay t' r')

let test_rebalance_zero_budget_noop () =
  let t = fresh () in
  for node = 0 to 29 do
    ignore (Dynamic.join t ~node)
  done;
  let members = Dynamic.members t in
  let objective = Dynamic.objective t in
  Alcotest.(check int) "zero budget is a no-op" 0 (Dynamic.rebalance ~max_moves:0 t);
  Alcotest.(check int) "negative budget is a no-op" 0
    (Dynamic.rebalance ~max_moves:(-3) t);
  Alcotest.(check bool) "membership untouched" true (Dynamic.members t = members);
  Alcotest.(check bool) "objective untouched" true
    (Dynamic.objective t = objective);
  Alcotest.(check int) "no moves counted" 0 (Dynamic.stats t).Dynamic.moves

let test_fail_last_server_rejected () =
  let m = Synthetic.internet_like ~seed:3 10 in
  let t = Dynamic.create m ~servers:[| 1; 4 |] in
  ignore (Dynamic.join t ~node:0);
  ignore (Dynamic.fail_server t 0);
  (match Dynamic.fail_server t 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "failing the last live server must be rejected");
  Alcotest.(check int) "session still serves" 1 (Dynamic.num_clients t)

let test_capacitated_failover_strands () =
  (* Both servers full: the orphans of a failure have nowhere to go, so
     they are stranded — reported, never silently dropped. *)
  let m = Synthetic.internet_like ~seed:4 12 in
  let t = Dynamic.create ~capacity:3 m ~servers:[| 0; 6 |] in
  let ids = List.init 6 (fun node -> Dynamic.join t ~node) in
  let victim = Dynamic.server_of t (List.hd ids) in
  let r = Dynamic.fail_server t victim in
  Alcotest.(check int) "nobody migrated" 0 r.Dynamic.rehomed;
  Alcotest.(check int) "every orphan reported stranded" 3
    (List.length r.Dynamic.stranded);
  List.iter
    (fun (id, _node) ->
      match Dynamic.server_of t id with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "stranded client still connected")
    r.Dynamic.stranded;
  Alcotest.(check int) "survivors stay connected" 3 (Dynamic.num_clients t)

let test_capacitated_failover_partial_stranding () =
  (* Room for some orphans but not all: the ones that fit migrate, the
     rest are stranded, and migrated + stranded accounts for everyone. *)
  let m = Synthetic.internet_like ~seed:5 12 in
  let t = Dynamic.create ~capacity:4 m ~servers:[| 0; 6 |] in
  List.iter (fun node -> ignore (Dynamic.join t ~node)) [ 1; 2; 3; 4; 5; 7 ];
  let load0 = Dynamic.load t 0 and load1 = Dynamic.load t 1 in
  Alcotest.(check int) "six clients placed" 6 (load0 + load1);
  let victim = if load0 >= load1 then 0 else 1 in
  let orphans = Dynamic.load t victim in
  let spare = 4 - Dynamic.load t (1 - victim) in
  let r = Dynamic.fail_server t victim in
  Alcotest.(check int) "those that fit migrated" (min orphans spare) r.Dynamic.rehomed;
  Alcotest.(check int) "the rest stranded" (max 0 (orphans - spare))
    (List.length r.Dynamic.stranded);
  Alcotest.(check int) "everyone accounted for" orphans
    (r.Dynamic.rehomed + List.length r.Dynamic.stranded)

let test_drift_rescales_and_snapshot_consistent () =
  let t = fresh () in
  for node = 0 to 19 do
    ignore (Dynamic.join t ~node)
  done;
  let before = Dynamic.objective t in
  Dynamic.set_drift t ~server:2 ~factor:2.0;
  Alcotest.(check (float 1e-9)) "drift getter" 2.0 (Dynamic.drift t 2);
  let p, a = Dynamic.snapshot t in
  Alcotest.(check (float 1e-6)) "snapshot materialises drifted distances"
    (Objective.max_interaction_path p a)
    (Dynamic.objective t);
  Dynamic.set_drift t ~server:2 ~factor:1.0;
  Alcotest.(check (float 1e-9)) "drift reset restores the objective" before
    (Dynamic.objective t);
  (match Dynamic.set_drift t ~server:99 ~factor:2. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range server accepted");
  match Dynamic.set_drift t ~server:0 ~factor:0. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "non-positive factor accepted"

let test_restore_roundtrip () =
  let t = fresh ~capacity:10 () in
  let ids = List.init 25 (fun node -> Dynamic.join t ~node:(node mod 80)) in
  List.iteri (fun i id -> if i mod 5 = 0 then Dynamic.leave t id) ids;
  ignore (Dynamic.fail_server t 1);
  Dynamic.set_drift t ~server:3 ~factor:1.5;
  ignore (Dynamic.rebalance ~max_moves:4 t);
  let drift =
    List.filter_map
      (fun s ->
        let f = Dynamic.drift t s in
        if f <> 1.0 then Some (s, f) else None)
      (List.init 6 Fun.id)
  in
  let t' =
    Dynamic.restore ~capacity:10 matrix ~servers ~members:(Dynamic.members t)
      ~next_id:(Dynamic.next_id t) ~failed:(Dynamic.failed_servers t) ~drift
      ~stats:(Dynamic.stats t)
  in
  Alcotest.(check bool) "members equal" true (Dynamic.members t' = Dynamic.members t);
  Alcotest.(check bool) "failed equal" true
    (Dynamic.failed_servers t' = Dynamic.failed_servers t);
  Alcotest.(check bool) "objective equal" true
    (Dynamic.objective t' = Dynamic.objective t);
  Alcotest.(check bool) "stats equal" true (Dynamic.stats t' = Dynamic.stats t);
  let a = Dynamic.join t ~node:11 and b = Dynamic.join t' ~node:11 in
  Alcotest.(check int) "id counter preserved" a b;
  Alcotest.(check int) "restored session places joins identically"
    (Dynamic.server_of t a) (Dynamic.server_of t' b)

let test_move_and_load () =
  let t = fresh ~capacity:5 () in
  let id = Dynamic.join t ~node:2 in
  let s = Dynamic.server_of t id in
  let s' = (s + 1) mod 6 in
  Dynamic.move t id s';
  Alcotest.(check int) "moved" s' (Dynamic.server_of t id);
  Alcotest.(check int) "load arrived" 1 (Dynamic.load t s');
  Alcotest.(check int) "load left" 0 (Dynamic.load t s);
  Alcotest.(check int) "move counted" 1 (Dynamic.stats t).Dynamic.moves;
  Dynamic.move t id s';
  Alcotest.(check int) "same-server move is a free no-op" 1
    (Dynamic.stats t).Dynamic.moves;
  ignore (Dynamic.fail_server t s);
  match Dynamic.move t id s with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "move onto a failed server accepted"

(* --- the session bound on the shared Lower_bound kernel ---------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The offline instance Dynamic's bound is defined on: the occupied
   nodes in ascending order as clients, the live servers, and the
   session's current (drifted) matrix. *)
let occupied_bound ~servers t =
  if Dynamic.num_clients t = 0 then neg_infinity
  else
    let p, _ = Dynamic.snapshot t in
    let nodes = List.map (fun (_, node, _) -> node) (Dynamic.members t) in
    Dia_core.Lower_bound.compute
      (Problem.make ~latency:(Problem.latency p)
         ~servers:(Array.of_list (List.map (Array.get servers) (Dynamic.active_servers t)))
         ~clients:(Array.of_list (List.sort_uniq compare nodes))
         ())

let check_kernel_bound ?(servers = servers) msg t =
  let lb = Dynamic.lower_bound t and expected = occupied_bound ~servers t in
  if not (same_bits lb expected) then
    Alcotest.failf "%s: session LB %h, Lower_bound.compute %h" msg lb expected

let restore_of ~servers t =
  let drift =
    List.filter_map
      (fun s ->
        let f = Dynamic.drift t s in
        if f <> 1.0 then Some (s, f) else None)
      (List.init (Array.length servers) Fun.id)
  in
  Dynamic.restore matrix ~servers ~members:(Dynamic.members t)
    ~next_id:(Dynamic.next_id t) ~failed:(Dynamic.failed_servers t) ~drift
    ~stats:(Dynamic.stats t)

let prop_lower_bound_is_kernel =
  QCheck.Test.make ~name:"session LB bit-equal to Lower_bound.compute" ~count:25
    QCheck.(pair (int_bound 1_000_000) (int_range 10 150))
    (fun (seed, steps) ->
      let rng = Random.State.make [| seed; 0x1b |] in
      let t = Dynamic.create ~capacity:30 matrix ~servers in
      let live = ref [] in
      let connected id =
        match Dynamic.server_of t id with _ -> true | exception Invalid_argument _ -> false
      in
      let ok = ref true in
      for _ = 1 to steps do
        let s = Random.State.int rng 6 in
        (match Random.State.int rng 12 with
        | 0 | 1 | 2 | 3 -> (
            try live := Dynamic.join t ~node:(Random.State.int rng 80) :: !live
            with Failure _ -> ())
        | 4 | 5 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                Dynamic.leave t id;
                live := rest)
        | 6 -> (
            match !live with
            | [] -> ()
            | id :: _ -> (
                try Dynamic.move t id s with Invalid_argument _ | Failure _ -> ()))
        | 7 | 8 -> ( try ignore (Dynamic.fail_server t s) with Invalid_argument _ -> ())
        | 9 -> ( try Dynamic.recover_server t s with Invalid_argument _ -> ())
        | _ -> Dynamic.set_drift t ~server:s ~factor:(0.5 +. Random.State.float rng 1.5));
        live := List.filter connected !live;
        if not (same_bits (Dynamic.lower_bound t) (occupied_bound ~servers t)) then
          ok := false
      done;
      let t' = restore_of ~servers t in
      !ok
      && same_bits (Dynamic.lower_bound t') (occupied_bound ~servers t')
      && same_bits (Dynamic.lower_bound t') (Dynamic.lower_bound t))

(* What a re-solve of the session sees: the offline problem {!snapshot}
   materialises (client nodes in id order, servers, every latency
   entry) and the live servers. *)
let problem_view t =
  let problem =
    if Dynamic.num_clients t = 0 then None
    else
      let p, _ = Dynamic.snapshot t in
      let m = Problem.latency p in
      let n = Matrix.dim m in
      Some
        ( Problem.clients p,
          Problem.servers p,
          Array.init (n * n) (fun i -> Matrix.get m (i / n) (i mod n)) )
  in
  (problem, Dynamic.active_servers t)

let prop_problem_version =
  (* Random op sequences over every session mutator: the version moves by
     exactly one on an op that may change the problem (join, leave,
     failover, recovery, a drift to a new factor) and stays put on the
     assignment-only ops (move, rebalance) and on a
     same-factor drift; whenever it stays put, the problem a re-solve
     sees is unchanged; and a restore starts it at 0. *)
  QCheck.Test.make ~name:"problem_version tracks the snapshot problem" ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 10 150) bool)
    (fun (seed, steps, capacitated) ->
      let rng = Random.State.make [| seed; 0x7e |] in
      let capacity = if capacitated then Some 8 else None in
      let t = Dynamic.create ?capacity matrix ~servers in
      let live = ref [] in
      let connected id =
        match Dynamic.server_of t id with _ -> true | exception Invalid_argument _ -> false
      in
      let ok = ref true in
      for _ = 1 to steps do
        let s = Random.State.int rng 6 in
        let before = Dynamic.problem_version t and view = problem_view t in
        (* Each op returns the bump it must cause. *)
        let bumps =
          match Random.State.int rng 14 with
          | 0 | 1 | 2 | 3 -> (
              match Dynamic.join t ~node:(Random.State.int rng 80) with
              | id ->
                  live := id :: !live;
                  1
              | exception Failure _ -> 0)
          | 4 | 5 -> (
              match !live with
              | [] -> 0
              | id :: rest ->
                  Dynamic.leave t id;
                  live := rest;
                  1)
          | 6 -> (
              match !live with
              | [] -> 0
              | id :: _ -> (
                  try Dynamic.move t id s; 0 with Invalid_argument _ -> 0))
          | 7 | 8 -> ignore (Dynamic.rebalance ~max_moves:3 t); 0
          | 9 | 10 -> ( try ignore (Dynamic.fail_server t s); 1 with Invalid_argument _ -> 0)
          | 11 -> ( try Dynamic.recover_server t s; 1 with Invalid_argument _ -> 0)
          | 12 ->
              let factor = 0.5 +. Random.State.float rng 1.5 in
              let changes = factor <> Dynamic.drift t s in
              Dynamic.set_drift t ~server:s ~factor;
              if changes then 1 else 0
          | _ ->
              Dynamic.set_drift t ~server:s ~factor:(Dynamic.drift t s);
              0
        in
        live := List.filter connected !live;
        let after = Dynamic.problem_version t in
        let unchanged = compare view (problem_view t) = 0 in
        if after <> before + bumps || (after = before && not unchanged) then ok := false
      done;
      let drift =
        List.filter_map
          (fun s ->
            let f = Dynamic.drift t s in
            if f <> 1.0 then Some (s, f) else None)
          (List.init 6 Fun.id)
      in
      let t' =
        Dynamic.restore ?capacity matrix ~servers ~members:(Dynamic.members t)
          ~next_id:(Dynamic.next_id t) ~failed:(Dynamic.failed_servers t) ~drift
          ~stats:(Dynamic.stats t)
      in
      !ok && Dynamic.problem_version t' = 0)

let test_lower_bound_one_live_server () =
  let t = fresh () in
  List.iter (fun node -> ignore (Dynamic.join t ~node)) [ 3; 17; 40; 41; 66 ];
  List.iter (fun s -> ignore (Dynamic.fail_server t s)) [ 0; 1; 2; 4; 5 ];
  Alcotest.(check (list int)) "one server left" [ 3 ] (Dynamic.active_servers t);
  check_kernel_bound "one live server" t;
  ignore (Dynamic.join t ~node:9);
  check_kernel_bound "extended on one live server" t

let test_lower_bound_one_node () =
  let t = fresh () in
  let ids = List.init 7 (fun _ -> Dynamic.join t ~node:12) in
  check_kernel_bound "every member on one node" t;
  Dynamic.set_drift t ~server:2 ~factor:1.25;
  check_kernel_bound "one node after a rebuild" t;
  List.iter (Dynamic.leave t) (List.tl ids);
  check_kernel_bound "one member left" t

let test_lower_bound_witness_leaves () =
  (* One member per node: find a node the bound depends on, vacate it,
     and the bound must drop to the kernel's value on the rest. *)
  let t = fresh () in
  let nodes = [ 1; 8; 15; 22; 29; 36; 43; 50; 57; 64; 71; 78 ] in
  let ids = List.map (fun node -> (node, Dynamic.join t ~node)) nodes in
  let before = Dynamic.lower_bound t in
  check_kernel_bound "before" t;
  let bound_without node =
    let rest = List.filter (( <> ) node) nodes in
    Dia_core.Lower_bound.compute
      (Problem.make ~latency:matrix ~servers ~clients:(Array.of_list rest) ())
  in
  let node, id = List.find (fun (node, _) -> bound_without node < before) ids in
  Dynamic.leave t id;
  check_kernel_bound "witness node vacated" t;
  Alcotest.(check bool) "the bound dropped" true (Dynamic.lower_bound t < before);
  Alcotest.(check bool) "to the bound without the node" true
    (same_bits (Dynamic.lower_bound t) (bound_without node))

let test_lower_bound_empty_and_refilled () =
  let t = fresh () in
  let ids = List.map (fun node -> Dynamic.join t ~node) [ 4; 30; 55 ] in
  check_kernel_bound "filled" t;
  List.iter (Dynamic.leave t) ids;
  Alcotest.(check bool) "empty is -inf" true (Dynamic.lower_bound t = neg_infinity);
  ignore (Dynamic.fail_server t 0);
  Alcotest.(check bool) "empty rebuild is -inf" true
    (Dynamic.lower_bound t = neg_infinity);
  List.iter (fun node -> ignore (Dynamic.join t ~node)) [ 30; 5; 79 ];
  check_kernel_bound "refilled" t;
  check_kernel_bound "restored" (restore_of ~servers t)

(* Placement under the default zero-delay model, pinned: 40 seeded
   join/leave/rebalance sequences (capacitated one time in three), the
   membership after every step folded into one digest. The constant was
   recorded with the session before the load-aware and network code
   paths were folded into one, so it holds that fold to the paper's
   network placement rule bit for bit — including the joins that land
   on a server without raising its eccentricity, where re-measuring the
   server's own pairs in the other orientation can move a tie by an
   ulp. *)
let test_zero_delay_placements_pinned () =
  let sequence ~seed =
    let nodes = 30 + (seed mod 50) and k = 2 + (seed mod 7) in
    let capacity = if seed mod 3 = 0 then Some (5 + (seed mod 10)) else None in
    let m = Synthetic.internet_like ~seed nodes in
    let servers = Dia_placement.Placement.random ~seed ~k ~n:nodes in
    let t = Dynamic.create ?capacity m ~servers in
    let rng = Random.State.make [| seed |] in
    let live = ref [] in
    let trace = Buffer.create 1000 in
    for _ = 1 to 300 do
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> (
          try live := Dynamic.join t ~node:(Random.State.int rng nodes) :: !live
          with Failure _ -> ())
      | 5 | 6 | 7 -> (
          match !live with
          | [] -> ()
          | l ->
              let id = List.nth l (Random.State.int rng (List.length l)) in
              Dynamic.leave t id;
              live := List.filter (( <> ) id) l)
      | _ -> ignore (Dynamic.rebalance ~max_moves:4 t));
      List.iter
        (fun (id, n, s) -> Buffer.add_string trace (Printf.sprintf "%d:%d:%d " id n s))
        (Dynamic.members t);
      Buffer.add_char trace '\n'
    done;
    Digest.string (Buffer.contents trace)
  in
  let all = String.concat "" (List.init 40 (fun seed -> sequence ~seed)) in
  Alcotest.(check string) "membership digest" "198b7de93d992038614c5c8270e63c3b"
    (Digest.to_hex (Digest.string all))

(* Drift and failover, pinned the same way: 30 seeded sequences per
   delay model over every mutator that rewrites or rereads distances —
   drift (a return to 1.0 included), failover, recovery, a mid-sequence
   restore and rebalance — with the membership, each failover's counts,
   D after it and the survivors' Greedy re-solve, and the hex D and LB
   after every step folded into one digest. A stale cached distance
   after a drift, failure or restore changes the digest. *)
let resolve ~delay t =
  if Dynamic.num_clients t = 0 then neg_infinity
  else
    let p, _ = Dynamic.snapshot t in
    let survivors =
      Array.of_list (List.map (Array.get (Problem.servers p)) (Dynamic.active_servers t))
    in
    let q =
      Problem.make ?capacity:(Dynamic.capacity t) ~latency:(Problem.latency p)
        ~servers:survivors ~clients:(Problem.clients p) ()
    in
    Objective.max_interaction_path ~delay q (Dia_core.Greedy.assign ~delay q)

let failover_digest ~delay =
  let sequence ~seed =
    let nodes = 30 + (seed mod 50) and k = 3 + (seed mod 6) in
    let capacity = if seed mod 3 = 0 then Some (4 + (seed mod 8)) else None in
    let m = Synthetic.internet_like ~seed nodes in
    let servers = Dia_placement.Placement.random ~seed ~k ~n:nodes in
    let t = ref (Dynamic.create ?capacity ~delay m ~servers) in
    let rng = Random.State.make [| seed; 0xfa11 |] in
    let live = ref [] in
    let trace = Buffer.create 4096 in
    let say fmt = Printf.bprintf trace fmt in
    for step = 1 to 200 do
      let s = Random.State.int rng k in
      (match Random.State.int rng 16 with
      | 0 | 1 | 2 | 3 | 4 -> (
          try live := Dynamic.join !t ~node:(Random.State.int rng nodes) :: !live
          with Failure _ -> ())
      | 5 | 6 | 7 -> (
          match !live with
          | [] -> ()
          | l -> Dynamic.leave !t (List.nth l (Random.State.int rng (List.length l))))
      | 8 | 9 -> Dynamic.set_drift !t ~server:s ~factor:(0.5 +. Random.State.float rng 1.5)
      | 10 -> Dynamic.set_drift !t ~server:s ~factor:1.0
      | 11 | 12 -> (
          match Dynamic.fail_server !t s with
          | r ->
              say "fail %d %d %h %h " r.Dynamic.rehomed (List.length r.Dynamic.stranded)
                (Dynamic.objective !t) (resolve ~delay !t)
          | exception Invalid_argument _ -> ())
      | 13 -> ( try Dynamic.recover_server !t s with Invalid_argument _ -> ())
      | _ -> say "moves %d " (Dynamic.rebalance ~max_moves:4 !t));
      if step = 100 then begin
        let drift =
          List.filter_map
            (fun s ->
              let f = Dynamic.drift !t s in
              if f <> 1.0 then Some (s, f) else None)
            (List.init k Fun.id)
        in
        t :=
          Dynamic.restore ?capacity ~delay m ~servers
            ~members:(Dynamic.members !t) ~next_id:(Dynamic.next_id !t)
            ~failed:(Dynamic.failed_servers !t) ~drift ~stats:(Dynamic.stats !t)
      end;
      live :=
        List.filter
          (fun id ->
            match Dynamic.server_of !t id with
            | _ -> true
            | exception Invalid_argument _ -> false)
          !live;
      List.iter (fun (id, n, s) -> say "%d:%d:%d " id n s) (Dynamic.members !t);
      say "D=%h LB=%h\n" (Dynamic.objective !t) (Dynamic.lower_bound !t)
    done;
    Digest.string (Buffer.contents trace)
  in
  Digest.to_hex (Digest.string (String.concat "" (List.init 30 (fun seed -> sequence ~seed))))

let test_failover_digest_zero_delay () =
  Alcotest.(check string) "zero-delay failover digest" "50e36cf6ab15026550d0270b4379af11"
    (failover_digest ~delay:Dia_core.Delay.zero)

let test_failover_digest_mm1 () =
  Alcotest.(check string) "mm1:40 failover digest" "894db886b3111072bb866a72693cf64d"
    (failover_digest ~delay:(Dia_core.Delay.Queueing { mu = 40. }))

(* --- a test-only referee for one rebalance round ----------------------- *)

(* The move [rebalance ~max_moves:1] must make, re-derived from the
   public view alone: eccentricities rebuilt from {!Dynamic.members}
   over {!Dynamic.snapshot}'s drifted matrix, the longest pairs, their
   witnesses in id order, and for each witness the full scan of every
   live target with room — the round as first written, before any
   pre-check. [None] when no single move beats D by more than 1e-12. *)
let referee_move ~delay t =
  if Dynamic.num_clients t = 0 then None
  else begin
    let p, _ = Dynamic.snapshot t in
    let m = Problem.latency p and srv = Problem.servers p in
    let k = Array.length srv in
    let d u s = Matrix.get m u srv.(s) and d_ss a b = Matrix.get m srv.(a) srv.(b) in
    let members = Dynamic.members t in
    let load = Array.init k (Dynamic.load t) in
    let failed = Dynamic.failed_servers t in
    let capacity = Option.value ~default:max_int (Dynamic.capacity t) in
    let delay_at = Dia_core.Delay.eval delay in
    let ecc_excluding ?(except = -1) s =
      List.fold_left
        (fun e (id, u, s') -> if s' = s && id <> except then Float.max e (d u s) else e)
        neg_infinity members
    in
    let ecc = Array.init k (fun s -> ecc_excluding s) in
    let eff =
      Array.init k (fun s ->
          if ecc.(s) > neg_infinity then ecc.(s) +. delay_at load.(s) else neg_infinity)
    in
    let objective eff =
      let best = ref neg_infinity in
      for s1 = 0 to k - 1 do
        for s2 = s1 to k - 1 do
          if eff.(s1) > neg_infinity && eff.(s2) > neg_infinity then
            best := Float.max !best (eff.(s1) +. d_ss s1 s2 +. eff.(s2))
        done
      done;
      !best
    in
    let dd = objective eff in
    let on_longest s =
      eff.(s) > neg_infinity
      && List.exists
           (fun s' ->
             let a = min s s' and b = max s s' in
             eff.(s') > neg_infinity && eff.(a) +. d_ss a b +. eff.(b) >= dd -. 1e-9)
           (List.init k Fun.id)
    in
    let mover (id, u, old_s) =
      let e = ecc_excluding ~except:id old_s in
      let trial = Array.copy eff in
      trial.(old_s) <-
        (if e > neg_infinity then e +. delay_at (load.(old_s) - 1) else neg_infinity);
      let d_rest = objective trial in
      let best = ref (-1) and best_d = ref infinity in
      for s = 0 to k - 1 do
        if s <> old_s && (not (List.mem s failed)) && load.(s) < capacity then begin
          let next = delay_at (load.(s) + 1) in
          let hop =
            (if next > delay_at load.(s) then Float.max ecc.(s) (d u s) else d u s) +. next
          in
          let cost = ref (2. *. hop) in
          for s'' = 0 to k - 1 do
            if trial.(s'') > neg_infinity then
              cost := Float.max !cost (hop +. d_ss s s'' +. trial.(s''))
          done;
          let resulting = Float.max d_rest !cost in
          if resulting < !best_d then begin
            best_d := resulting;
            best := s
          end
        end
      done;
      if !best >= 0 && !best_d < dd -. 1e-12 then Some (id, !best) else None
    in
    List.find_map
      (fun (id, u, s) ->
        if on_longest s && d u s >= ecc.(s) -. 1e-9 then mover (id, u, s) else None)
      members
  end

let prop_rebalance_referee =
  (* Random sequences with drift, failover and recovery, under all five
     delay models: every [rebalance
     ~max_moves:1] makes exactly the referee's move, or none when the
     referee finds none. *)
  QCheck.Test.make ~name:"rebalance makes the referee's single move" ~count:250
    QCheck.(triple (int_bound 1_000_000) (int_range 10 80) (int_bound 4))
    (fun (seed, steps, model) ->
      let delay = delay_of model in
      let rng = Random.State.make [| seed; 0x4eb |] in
      let capacity = if seed mod 3 = 0 then 8 else 30 in
      let t = Dynamic.create ~capacity ~delay matrix ~servers in
      let live = ref [] in
      let connected id =
        match Dynamic.server_of t id with _ -> true | exception Invalid_argument _ -> false
      in
      let ok = ref true in
      for _ = 1 to steps do
        let s = Random.State.int rng 6 in
        (match Random.State.int rng 14 with
        | 0 | 1 | 2 | 3 -> (
            try live := Dynamic.join t ~node:(Random.State.int rng 80) :: !live
            with Failure _ -> ())
        | 4 | 5 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                Dynamic.leave t id;
                live := rest)
        | 6 -> (
            match !live with
            | [] -> ()
            | id :: _ -> ( try Dynamic.move t id s with Invalid_argument _ -> ()))
        | 7 -> Dynamic.set_drift t ~server:s ~factor:(0.5 +. Random.State.float rng 1.5)
        | 8 -> Dynamic.set_drift t ~server:s ~factor:1.0
        | 9 | 10 -> ( try ignore (Dynamic.fail_server t s) with Invalid_argument _ -> ())
        | 11 -> ( try Dynamic.recover_server t s with Invalid_argument _ -> ())
        | _ ->
            let before = Dynamic.members t in
            let expected =
              match referee_move ~delay t with
              | None -> before
              | Some (mover, target) ->
                  List.map
                    (fun (id, u, s) -> if id = mover then (id, u, target) else (id, u, s))
                    before
            in
            let moves = Dynamic.rebalance ~max_moves:1 t in
            if Dynamic.members t <> expected || moves <> (if expected = before then 0 else 1)
            then ok := false);
        live := List.filter connected !live
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "empty session" `Quick test_empty_session;
    Alcotest.test_case "zero move budget is a guaranteed no-op" `Quick
      test_rebalance_zero_budget_noop;
    Alcotest.test_case "last live server cannot be failed" `Quick
      test_fail_last_server_rejected;
    Alcotest.test_case "capacitated failover strands reported orphans" `Quick
      test_capacitated_failover_strands;
    Alcotest.test_case "partial stranding accounts for every orphan" `Quick
      test_capacitated_failover_partial_stranding;
    Alcotest.test_case "latency drift rescales and stays snapshot-consistent"
      `Quick test_drift_rescales_and_snapshot_consistent;
    Alcotest.test_case "restore round-trips the session" `Quick
      test_restore_roundtrip;
    Alcotest.test_case "forced move updates loads and stats" `Quick
      test_move_and_load;
    Alcotest.test_case "join tracks the objective" `Quick test_join_tracks_objective;
    Alcotest.test_case "first join picks the nearest server" `Quick
      test_single_join_picks_nearest;
    Alcotest.test_case "snapshot matches incremental objective" `Quick
      test_snapshot_matches_incremental_objective;
    Alcotest.test_case "leave restores state" `Quick test_leave_restores_state;
    Alcotest.test_case "double leave rejected" `Quick test_leave_twice_rejected;
    Alcotest.test_case "capacity enforced on join" `Quick test_capacity_enforced;
    Alcotest.test_case "rebalance improves after churn" `Quick
      test_rebalance_improves_after_churn;
    Alcotest.test_case "rebalance respects move budget" `Quick
      test_rebalance_respects_move_budget;
    Alcotest.test_case "online quality near offline" `Quick test_online_vs_offline_quality;
    Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
    Alcotest.test_case "server failure migrates clients" `Quick
      test_fail_server_migrates_clients;
    Alcotest.test_case "double failure rejected" `Quick test_fail_server_twice_rejected;
    Alcotest.test_case "failure with exhausted capacity strands" `Quick
      test_fail_server_capacity_exhaustion;
    Alcotest.test_case "server recovery" `Quick test_recover_server;
    QCheck_alcotest.to_alcotest prop_random_operation_sequences_stay_consistent;
    QCheck_alcotest.to_alcotest prop_load_objective_bit_identical_to_scratch;
    Alcotest.test_case "zero-delay placements match pinned digests" `Quick
      test_zero_delay_placements_pinned;
    QCheck_alcotest.to_alcotest prop_lower_bound_is_kernel;
    QCheck_alcotest.to_alcotest prop_problem_version;
    Alcotest.test_case "zero-delay failover digest pinned" `Quick
      test_failover_digest_zero_delay;
    Alcotest.test_case "mm1:40 failover digest pinned" `Quick test_failover_digest_mm1;
    QCheck_alcotest.to_alcotest prop_rebalance_referee;
    Alcotest.test_case "LB kernel with one live server" `Quick
      test_lower_bound_one_live_server;
    Alcotest.test_case "LB kernel with every member on one node" `Quick
      test_lower_bound_one_node;
    Alcotest.test_case "LB kernel after the witness node empties" `Quick
      test_lower_bound_witness_leaves;
    Alcotest.test_case "LB kernel on an emptied, refilled session" `Quick
      test_lower_bound_empty_and_refilled;
  ]
