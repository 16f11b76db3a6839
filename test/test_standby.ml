(* Tests for the standby-replica layer: the reservation discipline on
   live sessions, O(1) failover promotion and its promise, graceful
   stranding under saturation, the standby map in checkpoint format v4,
   and the competitive-ratio harness. *)

module Dynamic = Dia_core.Dynamic
module Soak = Dia_runtime.Soak
module Checkpoint = Dia_runtime.Checkpoint
module Event_log = Dia_runtime.Event_log
module Competitive = Dia_runtime.Competitive
module Fault = Dia_sim.Fault

let plan spec =
  match Fault.of_string spec with Ok p -> p | Error m -> failwith m

let session ?capacity ~seed ~n ~k ~clients () =
  let matrix = Dia_latency.Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  let t = Dynamic.create ?capacity matrix ~servers in
  for i = 0 to clients - 1 do
    ignore (Dynamic.join t ~node:(i mod n))
  done;
  t

(* Every armed standby must point at a live server that is not the
   client's primary; with capacity, loads must stay within bound. *)
let check_standby_invariants ?capacity t =
  let failed = Dynamic.failed_servers t in
  List.iter
    (fun (id, _node, server) ->
      Alcotest.(check bool) "primary is live" false (List.mem server failed);
      (match capacity with
      | Some c ->
          Alcotest.(check bool) "load within capacity" true
            (Dynamic.load t server <= c)
      | None -> ());
      match Dynamic.standby_of t id with
      | None -> ()
      | Some sb ->
          Alcotest.(check bool) "standby differs from primary" true (sb <> server);
          Alcotest.(check bool) "standby is live" false (List.mem sb failed))
    (Dynamic.members t)

let busiest t ~k =
  let v = ref 0 in
  for s = 1 to k - 1 do
    if Dynamic.load t s > Dynamic.load t !v then v := s
  done;
  !v

(* --- Dynamic: standby maintenance on a live session --- *)

let test_standbys_maintained_by_churn () =
  let t = session ~capacity:10 ~seed:2 ~n:40 ~k:5 ~clients:36 () in
  check_standby_invariants ~capacity:10 t;
  (* joins arm a standby whenever one is feasible *)
  List.iter
    (fun (id, _, _) ->
      Alcotest.(check bool) "join armed a standby" true
        (Dynamic.standby_of t id <> None))
    (Dynamic.members t);
  (* leaves release reservations; moves re-arm against the new primary *)
  Dynamic.leave t 0;
  Dynamic.leave t 1;
  let id = 2 in
  let target =
    match
      List.find_opt
        (fun s -> s <> Dynamic.server_of t id && Dynamic.load t s < 10)
        (Dynamic.active_servers t)
    with
    | Some s -> s
    | None -> Alcotest.fail "no server with headroom to move to"
  in
  Dynamic.move t id target;
  Alcotest.(check int) "moved" target (Dynamic.server_of t id);
  check_standby_invariants ~capacity:10 t;
  ignore (Dynamic.rebalance ~max_moves:8 t);
  check_standby_invariants ~capacity:10 t

let test_refresh_is_canonical () =
  let t = session ~seed:3 ~n:30 ~k:4 ~clients:25 () in
  ignore (Dynamic.refresh_standbys t);
  let first = Dynamic.standbys t in
  Alcotest.(check int) "second refresh changes nothing" 0
    (Dynamic.refresh_standbys t);
  Alcotest.(check bool) "standby map is a fixpoint" true
    (Dynamic.standbys t = first)

(* --- Dynamic: promotion --- *)

let test_promote_delivers_promise () =
  let k = 5 in
  let t = session ~seed:4 ~n:40 ~k ~clients:40 () in
  ignore (Dynamic.refresh_standbys t);
  let victim = busiest t ~k in
  let promised = Dynamic.standby_objective t victim in
  let r = Dynamic.fail_server t victim ~greedy:false in
  (* uncapacitated + freshly armed: every orphan lands on its standby *)
  Alcotest.(check int) "no fallback" 0 r.Dynamic.fallback;
  Alcotest.(check (list (pair int int))) "no stranding" [] r.Dynamic.stranded;
  Alcotest.(check (float 0.)) "objective equals the promise" promised
    (Dynamic.objective t);
  check_standby_invariants t;
  (* the failed server is empty and out of the rotation *)
  Alcotest.(check int) "victim drained" 0 (Dynamic.load t victim);
  Alcotest.(check bool) "victim out of rotation" false
    (List.mem victim (Dynamic.active_servers t))

let test_promote_strands_iff_no_room () =
  (* k = 3 servers of capacity 10, 30 clients: the system is saturated,
     so failing a server must strand exactly its population. Then the
     same shape with capacity 20: nobody is stranded. *)
  let saturated = session ~capacity:10 ~seed:5 ~n:30 ~k:3 ~clients:30 () in
  let victim = busiest saturated ~k:3 in
  let orphans = Dynamic.load saturated victim in
  let r = Dynamic.fail_server saturated victim ~greedy:false in
  Alcotest.(check int) "every orphan stranded" orphans
    (List.length r.Dynamic.stranded);
  Alcotest.(check int) "none promoted" 0 r.Dynamic.promoted;
  let roomy = session ~capacity:20 ~seed:5 ~n:30 ~k:3 ~clients:30 () in
  let victim = busiest roomy ~k:3 in
  let r = Dynamic.fail_server roomy victim ~greedy:false in
  Alcotest.(check (list (pair int int))) "none stranded with headroom" []
    r.Dynamic.stranded;
  check_standby_invariants ~capacity:20 roomy

let prop_promotion_preserves_validity =
  (* Random sessions, capacitated and not: promotion must account for
     every orphan (promoted + fallback + stranded), never leave a client
     on the dead server or over capacity, and strand exactly the
     overflow that no live server had room for. *)
  QCheck.Test.make ~name:"promotion preserves validity and capacity" ~count:60
    QCheck.(triple (int_bound 10_000) (int_range 2 6) (int_range 0 50))
    (fun (seed, k, clients) ->
      let capacity =
        if seed mod 3 = 0 then None
        else Some (max 2 ((clients / max 1 (k - 1)) + (seed mod 4)))
      in
      (* The floored capacity can leave fewer than [clients] seats in
         total (e.g. clients=11, k=5 -> 2 x 5 = 10); joining past that
         point is a documented failure, not a promotion bug, so cap the
         population at the seat count. Fully saturated sessions survive
         the clamp and keep the stranding path exercised. *)
      let clients =
        match capacity with None -> clients | Some c -> min clients (c * k)
      in
      let t = session ?capacity ~seed ~n:20 ~k ~clients () in
      ignore (Dynamic.refresh_standbys t);
      let victim = busiest t ~k in
      let orphans = Dynamic.load t victim in
      let free =
        List.fold_left
          (fun acc s ->
            match capacity with
            | None -> max_int
            | Some _ when acc = max_int -> acc
            | Some c -> acc + (c - Dynamic.load t s))
          0
          (List.filter (fun s -> s <> victim) (Dynamic.active_servers t))
      in
      let r = Dynamic.fail_server t victim ~greedy:false in
      let stranded = List.length r.Dynamic.stranded in
      let expected_stranded =
        if free = max_int then 0 else max 0 (orphans - free)
      in
      r.Dynamic.promoted + r.Dynamic.fallback + stranded = orphans
      && stranded = expected_stranded
      && List.for_all
           (fun (_, _, server) ->
             server <> victim
             &&
             match capacity with
             | None -> true
             | Some c -> Dynamic.load t server <= c)
           (Dynamic.members t)
      && List.for_all
           (fun (id, _, server) ->
             match Dynamic.standby_of t id with
             | None -> true
             | Some sb -> sb <> server && sb <> victim)
           (Dynamic.members t))

let prop_promotion_on_refreshed_session_is_exact =
  (* Uncapacitated with freshly armed standbys: the promise is exact —
     promotion realises standby_objective to the bit, with no fallback
     and no stranding. *)
  QCheck.Test.make ~name:"promotion realises the promised objective exactly"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, k) ->
      let t = session ~seed ~n:25 ~k ~clients:(5 * k) () in
      ignore (Dynamic.refresh_standbys t);
      let victim = busiest t ~k in
      let promised = Dynamic.standby_objective t victim in
      let r = Dynamic.fail_server t victim ~greedy:false in
      Dynamic.objective t = promised
      && r.Dynamic.fallback = 0
      && r.Dynamic.stranded = [])

(* --- Soak: promotion repairs crashes without protocol epochs --- *)

let small_scenario =
  {
    Soak.default_scenario with
    Soak.seed = 9;
    nodes = 40;
    servers = 4;
    horizon = 60.;
    drift_period = 10.;
    fault = plan "loss:0.1+crash:1@20~45";
  }

let small_config = { Soak.default_config with Soak.checkpoint_every = 20 }

let complete scenario config =
  match Soak.run scenario config with
  | Soak.Completed r -> r
  | Soak.Killed _ -> Alcotest.fail "run killed without kill_after"

let test_soak_promotes_instead_of_resolving () =
  let r = complete small_scenario small_config in
  Alcotest.(check bool) "crash happened" true (r.Soak.crashes >= 1);
  Alcotest.(check int) "every crash repaired by promotion" r.Soak.crashes
    r.Soak.promotions;
  Alcotest.(check int) "no protocol epoch needed" 0 r.Soak.protocol_epochs;
  Alcotest.(check bool) "standbys refreshed at checkpoints" true
    (r.Soak.standby_refreshes >= 1);
  (* the log carries the promotion, with its orphan accounting *)
  let promote_logged =
    List.exists
      (fun e ->
        match e.Event_log.kind with
        | Event_log.Promote { promoted; fallback; stranded; _ } ->
            promoted + fallback >= 0 && stranded >= 0
        | _ -> false)
      r.Soak.log
  in
  Alcotest.(check bool) "Promote entry in the log" true promote_logged

let test_soak_no_standby_falls_back_to_resolve () =
  let config = { small_config with Soak.standby = false } in
  let r = complete small_scenario config in
  Alcotest.(check bool) "crash happened" true (r.Soak.crashes >= 1);
  Alcotest.(check int) "no promotions without standbys" 0 r.Soak.promotions;
  Alcotest.(check bool) "digest differs from the standby config" true
    (Soak.digest small_scenario config
    <> Soak.digest small_scenario small_config)

(* --- Checkpoint v4 --- *)

let killed scenario config =
  match Soak.run ~kill_after:1 scenario config with
  | Soak.Completed _ -> Alcotest.fail "kill_after ignored"
  | Soak.Killed st -> st

let test_checkpoint_v4_roundtrip_with_standbys () =
  let st = killed small_scenario small_config in
  Alcotest.(check bool) "standbys captured" true (st.Checkpoint.standbys <> []);
  let text = Checkpoint.encode st in
  Alcotest.(check bool) "v4 header" true
    (String.length text >= 22 && String.sub text 0 22 = "dia-soak-checkpoint v4");
  match Checkpoint.decode text with
  | Error m -> Alcotest.fail m
  | Ok st' ->
      Alcotest.(check string) "decode . encode is the identity" text
        (Checkpoint.encode st');
      Alcotest.(check bool) "standby map survives" true
        (st'.Checkpoint.standbys = st.Checkpoint.standbys)

(* --- Competitive harness --- *)

let test_competitive_harness_smoke () =
  let scenario = { small_scenario with Soak.horizon = 40. } in
  let s = Competitive.run ~traces:3 ~bound:50. scenario small_config in
  Alcotest.(check int) "three traces" 3 (List.length s.Competitive.per_trace);
  Alcotest.(check bool) "samples collected" true (s.Competitive.samples > 0);
  Alcotest.(check bool) "ratio measured" true (Float.is_finite s.Competitive.max);
  Alcotest.(check bool) "within the generous bound" true s.Competitive.ok;
  (* deterministic: the CSV artifact reproduces byte-for-byte *)
  let s' = Competitive.run ~traces:3 ~bound:50. scenario small_config in
  Alcotest.(check string) "CSV is deterministic" (Competitive.to_csv s)
    (Competitive.to_csv s');
  let lines = String.split_on_char '\n' (String.trim (Competitive.to_csv s)) in
  Alcotest.(check int) "header plus one row per trace" 4 (List.length lines);
  Alcotest.(check string) "header names the columns"
    "trace,seed,samples,mean,max,final" (List.hd lines)

let test_competitive_rejects_bad_params () =
  (match Competitive.run ~traces:0 small_scenario small_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "traces = 0 accepted");
  match Competitive.run ~bound:0.5 small_scenario small_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound < 1 accepted"

let suite =
  [
    Alcotest.test_case "standbys maintained across churn" `Quick
      test_standbys_maintained_by_churn;
    Alcotest.test_case "refresh_standbys is a canonical fixpoint" `Quick
      test_refresh_is_canonical;
    Alcotest.test_case "promotion delivers the promised objective" `Quick
      test_promote_delivers_promise;
    Alcotest.test_case "promotion strands exactly the overflow" `Quick
      test_promote_strands_iff_no_room;
    QCheck_alcotest.to_alcotest prop_promotion_preserves_validity;
    QCheck_alcotest.to_alcotest prop_promotion_on_refreshed_session_is_exact;
    Alcotest.test_case "soak repairs crashes by promotion, no epochs" `Quick
      test_soak_promotes_instead_of_resolving;
    Alcotest.test_case "soak without standbys uses the resolve path" `Quick
      test_soak_no_standby_falls_back_to_resolve;
    Alcotest.test_case "checkpoint v4 round-trips the standby map" `Quick
      test_checkpoint_v4_roundtrip_with_standbys;
    Alcotest.test_case "competitive harness measures and reproduces" `Quick
      test_competitive_harness_smoke;
    Alcotest.test_case "competitive harness validates parameters" `Quick
      test_competitive_rejects_bad_params;
  ]
