(* Tests for Dia_runtime: the SLO-guarded, checkpointable control plane.
   The centrepiece is the determinism-under-failure property: a soak run
   killed at a random checkpoint and resumed must be bit-identical to the
   uninterrupted run. *)

module Slo = Dia_runtime.Slo
module Admission = Dia_runtime.Admission
module Trace = Dia_runtime.Trace
module Event_log = Dia_runtime.Event_log
module Checkpoint = Dia_runtime.Checkpoint
module Codec = Dia_runtime.Codec
module Soak = Dia_runtime.Soak
module Recovery = Dia_runtime.Recovery
module Competitive = Dia_runtime.Competitive
module Fault = Dia_sim.Fault

let plan spec =
  match Fault.of_string spec with Ok p -> p | Error m -> failwith m

(* --- Slo --- *)

let slo_config =
  { Slo.degraded_at = 1.2; critical_at = 1.5; hysteresis = 3; recover_margin = 0.9 }

let test_slo_hysteresis () =
  let t = Slo.create slo_config in
  Alcotest.(check bool) "one bad tick no-op" true (Slo.observe t 1.3 = None);
  Alcotest.(check bool) "two bad ticks no-op" true (Slo.observe t 1.3 = None);
  Alcotest.(check bool) "still healthy" true (Slo.level t = Slo.Healthy);
  Alcotest.(check bool) "third tick escalates" true
    (Slo.observe t 1.3 = Some (Slo.Healthy, Slo.Degraded));
  (* escalation may jump straight to Critical *)
  ignore (Slo.observe t 1.9);
  ignore (Slo.observe t 1.9);
  Alcotest.(check bool) "escalate to critical" true
    (Slo.observe t 1.9 = Some (Slo.Degraded, Slo.Critical));
  (* recovery steps one level at a time *)
  ignore (Slo.observe t 1.0);
  ignore (Slo.observe t 1.0);
  Alcotest.(check bool) "recover one step" true
    (Slo.observe t 1.0 = Some (Slo.Critical, Slo.Degraded));
  ignore (Slo.observe t 1.0);
  ignore (Slo.observe t 1.0);
  Alcotest.(check bool) "recover to healthy" true
    (Slo.observe t 1.0 = Some (Slo.Degraded, Slo.Healthy))

let test_slo_recover_margin () =
  let t = Slo.create slo_config in
  for _ = 1 to 3 do ignore (Slo.observe t 1.3) done;
  Alcotest.(check bool) "degraded" true (Slo.level t = Slo.Degraded);
  (* 1.1 is below degraded_at but above degraded_at * margin = 1.08:
     the damped monitor refuses to flap back *)
  for _ = 1 to 6 do
    Alcotest.(check bool) "inside margin never de-escalates" true
      (Slo.observe t 1.1 = None)
  done;
  Alcotest.(check bool) "still degraded" true (Slo.level t = Slo.Degraded);
  ignore (Slo.observe t 1.0);
  ignore (Slo.observe t 1.0);
  Alcotest.(check bool) "below margin de-escalates" true
    (Slo.observe t 1.0 = Some (Slo.Degraded, Slo.Healthy))

let test_slo_ignores_non_finite () =
  let t = Slo.create slo_config in
  ignore (Slo.observe t 1.3);
  ignore (Slo.observe t 1.3);
  Alcotest.(check bool) "nan does not advance the streak" true
    (Slo.observe t Float.nan = None);
  Alcotest.(check bool) "nan does not reset the streak either" true
    (Slo.observe t 1.3 = Some (Slo.Healthy, Slo.Degraded))

let test_slo_codec_roundtrip () =
  let t = Slo.create slo_config in
  ignore (Slo.observe t 1.3);
  ignore (Slo.observe t 1.6);
  let t' = Slo.decode slo_config (Slo.encode t) in
  Alcotest.(check string) "encode . decode . encode is stable"
    (Slo.encode t) (Slo.encode t');
  Alcotest.(check bool) "level preserved" true (Slo.level t = Slo.level t');
  Alcotest.check_raises "malformed state rejected"
    (Failure "Slo.decode: malformed state \"bogus\"") (fun () ->
      ignore (Slo.decode slo_config "bogus"))

let test_slo_validate () =
  Alcotest.(check bool) "default valid" true
    (Slo.validate_config Slo.default_config = ());
  List.iter
    (fun cfg ->
      match Slo.validate_config cfg with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "invalid config accepted")
    [
      { slo_config with Slo.degraded_at = 0.9 };
      { slo_config with Slo.critical_at = 1.1 };
      { slo_config with Slo.hysteresis = 0 };
      { slo_config with Slo.recover_margin = 0. };
      { slo_config with Slo.recover_margin = 1.5 };
    ]

let test_slo_exact_threshold_edges () =
  (* Escalation bands are closed on the left: a ratio exactly at a
     threshold argues for the worse level, one just below stays put.
     Pinned here because the load-aware objective routinely parks the
     ratio exactly on a threshold (saturated M/M/1 plateaus). *)
  let t = Slo.create slo_config in
  for _ = 1 to 5 do
    Alcotest.(check bool) "just below degraded_at stays healthy" true
      (Slo.observe t (slo_config.Slo.degraded_at -. 1e-9) = None)
  done;
  Alcotest.(check bool) "still healthy" true (Slo.level t = Slo.Healthy);
  ignore (Slo.observe t slo_config.Slo.degraded_at);
  ignore (Slo.observe t slo_config.Slo.degraded_at);
  Alcotest.(check bool) "exactly degraded_at escalates" true
    (Slo.observe t slo_config.Slo.degraded_at
    = Some (Slo.Healthy, Slo.Degraded));
  ignore (Slo.observe t slo_config.Slo.critical_at);
  ignore (Slo.observe t slo_config.Slo.critical_at);
  Alcotest.(check bool) "exactly critical_at escalates" true
    (Slo.observe t slo_config.Slo.critical_at
    = Some (Slo.Degraded, Slo.Critical))

let test_slo_recover_margin_exact_edge () =
  (* De-escalation is strict: exactly threshold * margin never recovers,
     anything below does. *)
  let t = Slo.create slo_config in
  for _ = 1 to 3 do
    ignore (Slo.observe t 2.0)
  done;
  Alcotest.(check bool) "critical" true (Slo.level t = Slo.Critical);
  let edge = slo_config.Slo.critical_at *. slo_config.Slo.recover_margin in
  for _ = 1 to 6 do
    Alcotest.(check bool) "exactly at the margin stays critical" true
      (Slo.observe t edge = None)
  done;
  Alcotest.(check bool) "still critical" true (Slo.level t = Slo.Critical);
  let below = edge -. 1e-9 in
  ignore (Slo.observe t below);
  ignore (Slo.observe t below);
  Alcotest.(check bool) "below the margin steps down exactly one level" true
    (Slo.observe t below = Some (Slo.Critical, Slo.Degraded));
  let edge_d = slo_config.Slo.degraded_at *. slo_config.Slo.recover_margin in
  for _ = 1 to 4 do
    Alcotest.(check bool) "degraded margin is strict too" true
      (Slo.observe t edge_d = None)
  done;
  Alcotest.(check bool) "still degraded" true (Slo.level t = Slo.Degraded)

let test_slo_pending_switch_resets_streak () =
  (* A change of candidate target restarts the hysteresis count — two
     ticks toward Degraded plus one toward Critical is not a completed
     transition of either kind. *)
  let t = Slo.create slo_config in
  ignore (Slo.observe t 1.3);
  ignore (Slo.observe t 1.3);
  Alcotest.(check bool) "switching target restarts the count" true
    (Slo.observe t 1.9 = None);
  Alcotest.(check bool) "second critical tick still pending" true
    (Slo.observe t 1.9 = None);
  Alcotest.(check bool) "third completes, jumping straight to critical" true
    (Slo.observe t 1.9 = Some (Slo.Healthy, Slo.Critical));
  (* An in-band tick wipes any pending escalation entirely. *)
  let t2 = Slo.create slo_config in
  ignore (Slo.observe t2 1.3);
  ignore (Slo.observe t2 1.3);
  Alcotest.(check bool) "healthy tick clears pending" true
    (Slo.observe t2 1.0 = None);
  ignore (Slo.observe t2 1.3);
  ignore (Slo.observe t2 1.3);
  Alcotest.(check bool) "streak restarted from zero" true
    (Slo.observe t2 1.3 = Some (Slo.Healthy, Slo.Degraded))

(* --- Admission --- *)

let test_admission_policy () =
  let t = Admission.create () in
  let consider level has_capacity session node =
    Admission.consider t ~max_queue:2 ~level ~has_capacity ~session ~node
  in
  Alcotest.(check bool) "critical sheds" true
    (consider Slo.Critical true 0 1 = Admission.Shed);
  Alcotest.(check bool) "healthy with room admits" true
    (consider Slo.Healthy true 1 1 = Admission.Admit);
  Alcotest.(check bool) "degraded queues" true
    (consider Slo.Degraded true 2 1 = Admission.Queue);
  Alcotest.(check bool) "no capacity queues" true
    (consider Slo.Healthy false 3 2 = Admission.Queue);
  Alcotest.(check bool) "overflow sheds" true
    (consider Slo.Degraded true 4 3 = Admission.Shed);
  Alcotest.(check int) "pending" 2 (Admission.pending t);
  Alcotest.(check bool) "fifo pop" true (Admission.pop t = Some (2, 1));
  Alcotest.(check bool) "abandon removes" true (Admission.abandon t ~session:3);
  Alcotest.(check bool) "abandon unknown is false" true
    (not (Admission.abandon t ~session:99));
  Alcotest.(check bool) "drained queue empty" true (Admission.pop t = None);
  Alcotest.(check int) "admitted" 1 t.Admission.admitted;
  Alcotest.(check int) "queued" 2 t.Admission.queued;
  Alcotest.(check int) "shed" 2 t.Admission.shed;
  Alcotest.(check int) "drained" 1 t.Admission.drained;
  Alcotest.(check int) "abandoned" 1 t.Admission.abandoned

(* --- Trace --- *)

let test_trace_deterministic_and_well_formed () =
  let mk () =
    Trace.churn ~seed:5 ~nodes:30 ~rate:2. ~mean_lifetime:10. ~horizon:50.
  in
  Alcotest.(check bool) "same seed, same trace" true (mk () = mk ());
  (* The raw churn stream is join-ordered (each join carries its future
     leave); [merge] is what produces the time-sorted run order. *)
  let events = Trace.merge ~horizon:50. [ mk () ] in
  let sorted = ref true and last = ref neg_infinity in
  let joined = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      if e.Trace.time < !last then sorted := false;
      last := e.Trace.time;
      Alcotest.(check bool) "inside horizon" true (e.Trace.time <= 50.);
      match e.Trace.kind with
      | Trace.Join { session; node } ->
          Alcotest.(check bool) "node in range" true (node >= 0 && node < 30);
          Hashtbl.replace joined session ()
      | Trace.Leave { session } ->
          Alcotest.(check bool) "leave follows its join" true
            (Hashtbl.mem joined session)
      | _ -> Alcotest.fail "churn produced a non-churn event")
    events;
  Alcotest.(check bool) "sorted by time" true !sorted;
  Alcotest.(check bool) "non-trivial trace" true (Array.length events > 10)

let test_trace_crashes_of_plan () =
  let p = plan "crash:1@5~9+crash:7@3+loss:0.5" in
  let events = Trace.crashes_of_plan p ~servers:4 in
  Alcotest.(check bool) "crash and recovery, actor 7 and loss filtered" true
    (events
    = [
        { Trace.time = 5.; kind = Trace.Crash { server = 1 } };
        { Trace.time = 9.; kind = Trace.Recover { server = 1 } };
      ])

let test_trace_merge_stable () =
  let a = [ { Trace.time = 1.; kind = Trace.Crash { server = 0 } } ] in
  let b = [ { Trace.time = 1.; kind = Trace.Recover { server = 0 } } ] in
  let merged = Trace.merge ~horizon:10. [ a; b ] in
  Alcotest.(check int) "both kept" 2 (Array.length merged);
  Alcotest.(check bool) "tie broken by stream order" true
    (merged.(0).Trace.kind = Trace.Crash { server = 0 })

(* Times drawn from a handful of values, so most events tie with events
   of other streams (and of their own); every event is distinct, so the
   order is checked exactly against a (time, stream, index) tuple sort. *)
let prop_trace_merge_ties =
  QCheck.Test.make ~name:"trace merge orders ties by stream then index" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 4) (list_of_size Gen.(int_range 0 12) (int_bound 6)))
    (fun streams ->
      let streams =
        List.mapi
          (fun s times ->
            List.mapi
              (fun i t ->
                {
                  Trace.time = float_of_int t *. 0.5;
                  kind = Trace.Join { session = (1000 * s) + i; node = s };
                })
              times)
          streams
      in
      let horizon = 2.5 in
      let expected =
        List.concat
          (List.mapi (fun s es -> List.mapi (fun i e -> ((e.Trace.time, s, i), e)) es) streams)
        |> List.filter (fun ((t, _, _), _) -> t <= horizon)
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd |> Array.of_list
      in
      Trace.merge ~horizon streams = expected)

(* --- Event_log --- *)

let all_kinds =
  [
    Event_log.Join { session = 3; client = 7; server = 1 };
    Event_log.Queued { session = 4 };
    Event_log.Drained { session = 4; client = 8; server = 0 };
    Event_log.Shed { session = 5 };
    Event_log.Leave { session = 3; client = 7 };
    Event_log.Crash { server = 2; migrated = 5; stranded = 1 };
    Event_log.Crash_skipped { server = 0 };
    Event_log.Recover { server = 2 };
    Event_log.Drift { server = 1; factor = 1.3740000000000001 };
    Event_log.Transition
      { from_ = Slo.Healthy; to_ = Slo.Critical; ratio = 1.52; objective = "d" };
    Event_log.Repair { moves = 4; budget = 8; before = 210.5; after = 180.25 };
    Event_log.Protocol_repair
      { moves = 6; applied = true; before = 212.75; after = 198.3 };
    Event_log.Checkpoint { id = 3 };
    Event_log.Recovery { generation = 2; skipped = 1; replayed = 14 };
  ]

let test_event_log_roundtrip () =
  List.iteri
    (fun i kind ->
      let entry = { Event_log.time = 0.1 *. float_of_int i; kind } in
      match Event_log.of_line (Event_log.to_line entry) with
      | Ok entry' ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %d round-trips" i)
            true (entry = entry')
      | Error m -> Alcotest.fail m)
    all_kinds;
  Alcotest.(check bool) "garbage rejected" true
    (match Event_log.of_line "t=1.0 frobnicate x=1" with
    | Error _ -> true
    | Ok _ -> false);
  (* The kinds the standby layer used to log no longer parse: each comes
     back as a structured Error naming the record, never an exception. *)
  List.iter
    (fun (line, tag) ->
      match Event_log.of_line line with
      | Error m ->
          Alcotest.(check string) (tag ^ " rejected by name")
            (Printf.sprintf "Event_log: unknown record %S" tag) m
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" line)
      | exception e ->
          Alcotest.fail (Printf.sprintf "%S raised %s" line (Printexc.to_string e)))
    [
      ("t=60.5 promote server=2 promoted=5 fallback=1 stranded=0", "promote");
      ("t=99.9 standby-refresh changed=7", "standby-refresh");
      ("t=61 standby-breach ratio=3.25 bound=3", "standby-breach");
    ]

(* --- Soak + Checkpoint --- *)

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
  | Soak.Killed _ -> Alcotest.fail "run killed without a kill point"

(* The event right after which a fresh run takes its [n]-th checkpoint. *)
let after_checkpoint n config = (n * config.Soak.checkpoint_every) - 1

(* Kill a run that keeps a state dir after its [n]-th checkpoint,
   restore the dir (newest generation plus the history its journal
   holds) and resume into it — the path a process that really died
   takes. [None] when the run finished before the kill point. *)
let kill_restore_resume n scenario config =
  let dir = Filename.temp_dir "dia_runtime" "" in
  match
    Soak.run ~state_dir:dir ~kill_at_event:(after_checkpoint n config) scenario config
  with
  | Soak.Completed r -> Some (None, r)
  | Soak.Killed _ -> (
      let r = Recovery.restore ~dir ~digest:(Soak.digest scenario config) in
      match
        Soak.run ~state_dir:dir
          ?resume_from:(Option.map snd r.Recovery.generation)
          scenario config
      with
      | Soak.Killed _ -> None
      | Soak.Completed resumed -> Some (r.Recovery.generation, resumed))

let test_checkpoint_codec_roundtrip () =
  match
    Soak.run ~kill_at_event:(after_checkpoint 1 small_config) small_scenario small_config
  with
  | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
  | Soak.Killed st -> (
      match Checkpoint.decode (Checkpoint.encode st) with
      | Error m -> Alcotest.fail m
      | Ok st' ->
          Alcotest.(check string) "decode . encode is the identity"
            (Checkpoint.encode st) (Checkpoint.encode st');
          (* a truncated file (kill mid-write without the atomic rename)
             must be rejected, not half-parsed *)
          let text = Checkpoint.encode st in
          let truncated = String.sub text 0 (String.length text - 5) in
          Alcotest.(check bool) "truncated checkpoint rejected" true
            (match Checkpoint.decode truncated with
            | Error _ -> true
            | Ok _ -> false))

let test_soak_kill_resume_identical () =
  let base = complete small_scenario small_config in
  List.iter
    (fun n ->
      match
        Soak.run ~kill_at_event:(after_checkpoint n small_config) small_scenario
          small_config
      with
      | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
      | Soak.Killed st ->
          let text = Checkpoint.encode st in
          (* Twice from the one value: a resume never mutates the state
             it starts from. *)
          List.iter
            (fun round ->
              match Soak.run ~resume_from:st small_scenario small_config with
              | Soak.Killed _ -> Alcotest.fail "resumed run killed"
              | Soak.Completed resumed ->
                  let tag what = Printf.sprintf "%s after kill %d, resume %d" what n round in
                  Alcotest.(check string) (tag "report identical") (Soak.render base)
                    (Soak.render resumed);
                  Alcotest.(check string) (tag "event log identical")
                    (Event_log.render base.Soak.log)
                    (Event_log.render resumed.Soak.log);
                  Alcotest.(check string) (tag "killed state unchanged") text
                    (Checkpoint.encode st))
            [ 1; 2 ])
    [ 1; 2; 3 ]

let test_soak_resume_rejects_other_config () =
  match
    Soak.run ~kill_at_event:(after_checkpoint 1 small_config) small_scenario small_config
  with
  | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
  | Soak.Killed st -> (
      let other = { small_config with Soak.budget = small_config.Soak.budget + 1 } in
      match Soak.run ~resume_from:st small_scenario other with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "digest mismatch accepted")

let test_soak_guardrails () =
  (* The acceptance scenario: <= 30% loss, one crash/recovery cycle,
     Poisson churn. Steady-state D(A) within 1.25x of a fresh Greedy
     re-solve, never exceeding the per-epoch migration budget — both
     numbers in the report. *)
  let r = complete Soak.default_scenario Soak.default_config in
  Alcotest.(check bool) "steady-state ratio within 1.25x of re-solve" true
    (r.Soak.steady_ratio <= 1.25);
  Alcotest.(check bool) "max epoch moves within budget" true
    (r.Soak.max_epoch_moves <= r.Soak.budget);
  let text = Soak.render r in
  let contains s =
    let n = String.length text and m = String.length s in
    let rec go i = i + m <= n && (String.sub text i m = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report states the steady-state ratio" true
    (contains "steady-state ratio");
  Alcotest.(check bool) "report states the epoch budget" true
    (contains "max-epoch-moves")

let test_soak_critical_triggers_protocol_repair () =
  (* An SLO that is always breached forces an immediate Critical
     escalation: the protocol-repair path must run, and admission must
     brown out (shed) from then on. *)
  let scenario = { small_scenario with Soak.fault = plan "loss:0.2" } in
  let config =
    {
      small_config with
      Soak.slo =
        { Slo.degraded_at = 1.0; critical_at = 1.0; hysteresis = 1; recover_margin = 1.0 };
      budget = 20;
    }
  in
  let r = complete scenario config in
  Alcotest.(check bool) "reaches critical" true (r.Soak.slo_level = Slo.Critical);
  Alcotest.(check bool) "protocol epoch ran" true (r.Soak.protocol_epochs >= 1);
  Alcotest.(check bool) "brownout sheds joins" true (r.Soak.shed > 0);
  Alcotest.(check bool) "budget still respected" true
    (r.Soak.max_epoch_moves <= 20)

let test_soak_protocol_plan_applied_within_budget () =
  (* Forty pre-populated sessions give the first Critical epoch a
     16-move Distributed-Greedy plan: applied at budget 64, lowering D;
     refused at budget 15, leaving D as it was. *)
  let scenario = { small_scenario with Soak.clients = 40 } in
  let epoch budget =
    let config =
      {
        small_config with
        Soak.slo =
          { Slo.degraded_at = 1.0; critical_at = 1.0; hysteresis = 1; recover_margin = 1.0 };
        budget;
      }
    in
    match
      List.filter_map
        (fun e ->
          match e.Event_log.kind with
          | Event_log.Protocol_repair { moves; applied; before; after } ->
              Some (moves, applied, before, after)
          | _ -> None)
        (complete scenario config).Soak.log
    with
    | [ epoch ] -> epoch
    | l -> Alcotest.failf "expected one protocol epoch, got %d" (List.length l)
  in
  let moves, applied, before, after = epoch 64 in
  Alcotest.(check int) "plan size" 16 moves;
  Alcotest.(check bool) "applied at budget 64" true applied;
  Alcotest.(check bool) "D strictly lower" true (after < before);
  let moves', applied', before', after' = epoch 15 in
  Alcotest.(check int) "same plan at budget 15" 16 moves';
  Alcotest.(check bool) "refused at budget 15" false applied';
  Alcotest.(check bool) "same starting D" true (before' = before);
  Alcotest.(check bool) "D untouched" true (after' = before')

let test_soak_capacitated_strands_and_recovers () =
  (* Tight capacity + a crash: orphans that cannot be re-homed are
     stranded (counted, sessions dropped), and the run keeps going. *)
  let scenario =
    {
      small_scenario with
      Soak.capacity = Some 8;
      fault = plan "crash:0@20~50+crash:2@30";
    }
  in
  let r = complete scenario small_config in
  Alcotest.(check bool) "run completes" true (r.Soak.events > 0);
  Alcotest.(check bool) "crashes happened" true (r.Soak.crashes >= 1);
  Alcotest.(check bool) "queueing engaged under capacity pressure" true
    (r.Soak.queued > 0)

let test_soak_last_server_crash_refused () =
  (* A single-server scenario: every crash in the plan targets the only
     live server and must be refused, never executed. *)
  let scenario =
    {
      small_scenario with
      Soak.servers = 1;
      drift_period = 0.;
      fault = plan "crash:0@10~20";
    }
  in
  let r = complete scenario small_config in
  Alcotest.(check int) "no crash executed" 0 r.Soak.crashes;
  Alcotest.(check int) "refusal recorded" 1 r.Soak.crashes_skipped;
  Alcotest.(check int) "one server still live" 1 r.Soak.live_servers

(* --- Soak under a load-latency model --- *)

let delay_scenario =
  { small_scenario with Soak.delay = Some (Dia_core.Delay.Queueing { mu = 12. }) }

let test_soak_delay_reports_load_objective () =
  (* With a delay model the session places and repairs against D_load,
     and every SLO transition in the event log says so. An SLO that is
     always breached guarantees at least one transition to look at. *)
  let config =
    {
      small_config with
      Soak.slo =
        { Slo.degraded_at = 1.0; critical_at = 1.5; hysteresis = 1; recover_margin = 1.0 };
    }
  in
  let r = complete delay_scenario config in
  Alcotest.(check (option string))
    "report names the delay model" (Some "mm1:12") r.Soak.delay_model;
  let objectives log =
    List.filter_map
      (fun e ->
        match e.Event_log.kind with
        | Event_log.Transition { objective; _ } -> Some objective
        | _ -> None)
      log
  in
  let objs = objectives r.Soak.log in
  Alcotest.(check bool) "at least one transition logged" true (objs <> []);
  List.iter
    (Alcotest.(check string) "transition driven by the load objective" "d_load")
    objs;
  (* ... and without a delay model the same scenario logs plain "d". *)
  let blind = complete small_scenario config in
  Alcotest.(check (option string)) "no delay model" None blind.Soak.delay_model;
  let blind_objs = objectives blind.Soak.log in
  Alcotest.(check bool) "blind run also transitions" true (blind_objs <> []);
  List.iter
    (Alcotest.(check string) "blind transition driven by D" "d")
    blind_objs

let test_soak_delay_kill_resume_identical () =
  (* The delay-bearing digest extension must survive the checkpoint
     codec: kill/resume stays bit-identical under a queueing model. *)
  let base = complete delay_scenario small_config in
  Alcotest.(check (option string))
    "delay model survives to the report" (Some "mm1:12") base.Soak.delay_model;
  List.iter
    (fun n ->
      match kill_restore_resume n delay_scenario small_config with
      | None -> Alcotest.fail "resumed run killed"
      | Some (None, _) -> Alcotest.fail "kill ignored or nothing restored"
      | Some (Some _, resumed) ->
          Alcotest.(check string)
            (Printf.sprintf "report identical after kill %d" n)
            (Soak.render base) (Soak.render resumed);
          Alcotest.(check string)
            (Printf.sprintf "event log identical after kill %d" n)
            (Event_log.render base.Soak.log)
            (Event_log.render resumed.Soak.log))
    [ 1; 2 ]

let test_soak_delay_rejects_coreset () =
  (* Coreset buckets hide the true per-server load, so a delay model in
     weighted mode must be refused up front, not silently mis-scored. *)
  let scenario = { delay_scenario with Soak.coreset_eps = Some 0.1 } in
  match Soak.run scenario small_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "delay + coreset accepted"

let test_soak_refuses_non_finite () =
  (* A NaN fails every comparison, so a bound written as "refuse if
     below" lets it through; Soak must name the field itself rather than
     run with a feature silently off or leave the refusal to Trace. *)
  let fields =
    [
      ("join_rate", fun v -> { small_scenario with Soak.join_rate = v });
      ("mean_lifetime", fun v -> { small_scenario with Soak.mean_lifetime = v });
      ("drift_period", fun v -> { small_scenario with Soak.drift_period = v });
      ("drift_amplitude", fun v -> { small_scenario with Soak.drift_amplitude = v });
    ]
  in
  List.iter
    (fun (field, scenario) ->
      List.iter
        (fun v ->
          match Soak.run (scenario v) small_config with
          | exception Invalid_argument m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s = %h refused by Soak (%s)" field v m)
                true
                (String.starts_with ~prefix:("Soak: " ^ field) m)
          | _ -> Alcotest.failf "%s = %h accepted" field v)
        [ nan; infinity; neg_infinity ])
    fields

(* --- qcheck: the protocol-repair epoch's contract --- *)

(* The state right after the trace event whose step logged entry [j]
   of the run's log: the smallest kill point whose state already counts
   that entry. *)
let state_after_entry scenario config ~events j =
  let killed i =
    match Soak.run ~kill_at_event:i scenario config with
    | Soak.Killed st -> st
    | Soak.Completed _ -> Alcotest.fail "kill point past the trace"
  in
  let rec search lo hi =
    if lo >= hi then killed lo
    else
      let mid = (lo + hi) / 2 in
      if (killed mid).Checkpoint.counters.Checkpoint.entries > j then search lo mid
      else search (mid + 1) hi
  in
  search 0 (events - 1)

let prop_protocol_repair_contract =
  QCheck.Test.make ~name:"protocol-repair epochs keep their contract" ~count:200
    QCheck.(
      pair
        (triple (int_bound 10_000) (int_bound 64) (int_bound 40))
        (triple (int_bound 2) bool (int_bound 3)))
    (fun ((seed, budget, clients), (cap_kind, delayed, crit_step)) ->
      let capacity = match cap_kind with 0 -> None | 1 -> Some 15 | _ -> Some 25 in
      let scenario =
        {
          small_scenario with
          Soak.seed;
          capacity;
          clients;
          delay =
            (if delayed then Some (Dia_core.Delay.Queueing { mu = 30. }) else None);
        }
      in
      (* D/LB >= 1 always, so critical_at = 1 pins the run at Critical;
         higher thresholds let it flap back and escalate again. *)
      let config =
        {
          small_config with
          Soak.budget;
          slo =
            {
              Slo.degraded_at = 1.0;
              critical_at = 1.0 +. (0.1 *. float_of_int crit_step);
              hysteresis = 1;
              recover_margin = 1.0;
            };
        }
      in
      let r = complete scenario config in
      let log = Array.of_list r.Soak.log in
      let holds j = function
        | Event_log.Protocol_repair { moves; applied; before; after } ->
            if not applied then after = before
            else
              let repair_moves =
                match log.(j - 1).Event_log.kind with
                | Event_log.Repair { moves; _ } -> moves
                | _ -> Alcotest.fail "protocol epoch without its Repair"
              in
              let st = state_after_entry scenario config ~events:r.Soak.events j in
              let load = Array.make scenario.Soak.servers 0 in
              after < before
              && moves <= budget - repair_moves
              && List.for_all
                   (fun (_, _, server) ->
                     load.(server) <- load.(server) + 1;
                     (not (List.mem server st.Checkpoint.session.failed))
                     && match capacity with None -> true | Some c -> load.(server) <= c)
                   st.Checkpoint.session.members
        | _ -> true
      in
      r.Soak.protocol_stalls = 0
      && Array.for_all Fun.id (Array.mapi (fun j e -> holds j e.Event_log.kind) log))

(* --- qcheck: determinism under random kill points --- *)

let prop_soak_deterministic_under_random_kills =
  QCheck.Test.make ~name:"soak kill/resume is bit-identical at any kill point"
    ~count:12
    QCheck.(triple (int_bound 1000) (int_range 5 40) (int_range 1 3))
    (fun (seed, checkpoint_every, n) ->
      let scenario =
        {
          small_scenario with
          Soak.seed;
          capacity = (if seed mod 2 = 0 then Some 12 else None);
        }
      in
      let config = { small_config with Soak.checkpoint_every } in
      match Soak.run scenario config with
      | Soak.Killed _ -> false
      | Soak.Completed base -> (
          (* without enough checkpoints to kill at, the run must be the
             uninterrupted one; otherwise the resumed one must match it *)
          match kill_restore_resume n scenario config with
          | None -> false
          | Some (_, r) ->
              Soak.render r = Soak.render base
              && Event_log.render r.Soak.log = Event_log.render base.Soak.log))

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
    Alcotest.test_case "slo hysteresis and level jumps" `Quick test_slo_hysteresis;
    Alcotest.test_case "slo recover margin damps flapping" `Quick
      test_slo_recover_margin;
    Alcotest.test_case "slo ignores non-finite ratios" `Quick
      test_slo_ignores_non_finite;
    Alcotest.test_case "slo state codec round-trips" `Quick test_slo_codec_roundtrip;
    Alcotest.test_case "slo config validation" `Quick test_slo_validate;
    Alcotest.test_case "slo thresholds are closed on the left" `Quick
      test_slo_exact_threshold_edges;
    Alcotest.test_case "slo recover margin is strict" `Quick
      test_slo_recover_margin_exact_edge;
    Alcotest.test_case "slo pending-target switch resets streak" `Quick
      test_slo_pending_switch_resets_streak;
    Alcotest.test_case "admission policy and counters" `Quick test_admission_policy;
    Alcotest.test_case "churn trace deterministic and well-formed" `Quick
      test_trace_deterministic_and_well_formed;
    Alcotest.test_case "crash schedule lifted from fault plan" `Quick
      test_trace_crashes_of_plan;
    Alcotest.test_case "trace merge is stable" `Quick test_trace_merge_stable;
    QCheck_alcotest.to_alcotest prop_trace_merge_ties;
    Alcotest.test_case "event log round-trips every record kind" `Quick
      test_event_log_roundtrip;
    Alcotest.test_case "checkpoint codec round-trips, rejects truncation" `Quick
      test_checkpoint_codec_roundtrip;
    Alcotest.test_case "kill/resume is bit-identical" `Quick
      test_soak_kill_resume_identical;
    Alcotest.test_case "resume rejects a different config" `Quick
      test_soak_resume_rejects_other_config;
    Alcotest.test_case "guardrails: steady ratio and epoch budget" `Quick
      test_soak_guardrails;
    Alcotest.test_case "critical triggers protocol repair and brownout" `Quick
      test_soak_critical_triggers_protocol_repair;
    Alcotest.test_case "critical epoch applies a plan within budget" `Quick
      test_soak_protocol_plan_applied_within_budget;
    Alcotest.test_case "capacitated chaos run survives" `Quick
      test_soak_capacitated_strands_and_recovers;
    Alcotest.test_case "last-server crash refused" `Quick
      test_soak_last_server_crash_refused;
    Alcotest.test_case "delay soak logs the load objective" `Quick
      test_soak_delay_reports_load_objective;
    Alcotest.test_case "delay soak kill/resume is bit-identical" `Quick
      test_soak_delay_kill_resume_identical;
    Alcotest.test_case "delay soak rejects coreset mode" `Quick
      test_soak_delay_rejects_coreset;
    Alcotest.test_case "soak refuses non-finite rates and drift" `Quick
      test_soak_refuses_non_finite;
    QCheck_alcotest.to_alcotest prop_soak_deterministic_under_random_kills;
    QCheck_alcotest.to_alcotest prop_protocol_repair_contract;
    Alcotest.test_case "competitive harness measures and reproduces" `Quick
      test_competitive_harness_smoke;
    Alcotest.test_case "competitive harness validates parameters" `Quick
      test_competitive_rejects_bad_params;
  ]
