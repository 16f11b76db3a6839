module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Greedy = Dia_core.Greedy
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Assignment = Dia_core.Assignment
module Distributed_greedy = Dia_core.Distributed_greedy
module Fault = Dia_sim.Fault
module Weighted = Dia_coreset.Weighted

type scenario = {
  seed : int;
  nodes : int;
  servers : int;
  capacity : int option;
  horizon : float;
  join_rate : float;
  mean_lifetime : float;
  drift_period : float;
  drift_amplitude : float;
  fault : Fault.plan;
  clients : int;
  coreset_eps : float option;
  delay : Dia_core.Delay.t option;
}

let default_scenario =
  {
    seed = 42;
    nodes = 120;
    servers = 8;
    capacity = None;
    horizon = 300.;
    join_rate = 1.;
    mean_lifetime = 80.;
    drift_period = 20.;
    drift_amplitude = 0.3;
    fault =
      (match Fault.of_string "loss:0.1+crash:2@60~180" with
      | Ok p -> p
      | Error m -> failwith m);
    clients = 0;
    coreset_eps = None;
    delay = None;
  }

type config = {
  slo : Slo.config;
  budget : int;
  max_queue : int;
  lb_every : int;
  checkpoint_every : int;
  standby : bool;
  standby_bound : float;
  offline_baseline : bool;
}

let default_config =
  {
    slo = Slo.default_config;
    budget = 8;
    max_queue = 64;
    lb_every = 10;
    checkpoint_every = 100;
    standby = true;
    standby_bound = 3.0;
    offline_baseline = false;
  }

let validate scenario config =
  if scenario.nodes < 2 then invalid_arg "Soak: nodes must be >= 2";
  if scenario.servers < 1 || scenario.servers > scenario.nodes then
    invalid_arg "Soak: servers must be in [1, nodes]";
  (match scenario.capacity with
  | Some c when c < 1 -> invalid_arg "Soak: capacity must be positive"
  | _ -> ());
  if scenario.horizon < 0. || not (Float.is_finite scenario.horizon) then
    invalid_arg "Soak: horizon must be finite and non-negative";
  if scenario.join_rate <= 0. then invalid_arg "Soak: join_rate must be positive";
  if scenario.mean_lifetime <= 0. then
    invalid_arg "Soak: mean_lifetime must be positive";
  if scenario.drift_amplitude < 0. || scenario.drift_amplitude > 1. then
    invalid_arg "Soak: drift_amplitude must be in [0, 1]";
  if scenario.clients < 0 then invalid_arg "Soak: clients must be non-negative";
  (match (scenario.capacity, scenario.clients) with
  | Some c, n when n > c * scenario.servers ->
      invalid_arg "Soak: pre-populated clients exceed total capacity"
  | _ -> ());
  (match scenario.coreset_eps with
  | Some eps when (not (Float.is_finite eps)) || eps < 0. ->
      invalid_arg "Soak: coreset_eps must be finite and >= 0"
  | Some _ when scenario.capacity <> None ->
      invalid_arg
        "Soak: coreset_eps requires an uncapacitated scenario (a coreset \
         point stands for an unbounded population)"
  | _ -> ());
  (match scenario.delay with
  | Some d ->
      Dia_core.Delay.validate d;
      if scenario.coreset_eps <> None then
        invalid_arg
          "Soak: delay requires classic mode (coreset buckets hide the true \
           per-server load from the delay model)"
  | None -> ());
  Slo.validate_config config.slo;
  if config.budget < 0 then invalid_arg "Soak: budget must be non-negative";
  if config.max_queue < 0 then invalid_arg "Soak: max_queue must be non-negative";
  if config.lb_every < 1 then invalid_arg "Soak: lb_every must be >= 1";
  if config.checkpoint_every < 0 then
    invalid_arg "Soak: checkpoint_every must be non-negative";
  if not (Float.is_finite config.standby_bound) || config.standby_bound < 1. then
    invalid_arg "Soak: standby_bound must be finite and >= 1"

let fs = Codec.float_str

let digest scenario config =
  let s = scenario and c = config in
  let canonical =
    Printf.sprintf
      "soak seed=%d nodes=%d servers=%d capacity=%s horizon=%s join_rate=%s \
       mean_lifetime=%s drift_period=%s drift_amplitude=%s fault=%s \
       slo=%s,%s,%d,%s budget=%d max_queue=%d lb_every=%d checkpoint_every=%d \
       standby=%b standby_bound=%s offline_baseline=%b"
      s.seed s.nodes s.servers
      (match s.capacity with None -> "none" | Some c -> string_of_int c)
      (fs s.horizon) (fs s.join_rate) (fs s.mean_lifetime) (fs s.drift_period)
      (fs s.drift_amplitude)
      (Fault.to_string s.fault)
      (fs c.slo.Slo.degraded_at) (fs c.slo.Slo.critical_at) c.slo.Slo.hysteresis
      (fs c.slo.Slo.recover_margin) c.budget c.max_queue c.lb_every
      c.checkpoint_every c.standby
      (fs c.standby_bound) c.offline_baseline
  in
  (* The weighted-mode fields extend the canonical string only when in
     use, so classic scenarios keep their historical digests (and their
     checkpoints stay resumable). *)
  let canonical =
    if s.clients = 0 && s.coreset_eps = None then canonical
    else
      canonical
      ^ Printf.sprintf " clients=%d coreset_eps=%s" s.clients
          (match s.coreset_eps with None -> "none" | Some e -> fs e)
  in
  (* Same deal for the delay model: delay-less scenarios keep their
     historical digests. *)
  let canonical =
    match s.delay with
    | None -> canonical
    | Some d ->
        canonical ^ Printf.sprintf " delay=%s" (Dia_core.Delay.to_string d)
  in
  Digest.to_hex (Digest.string canonical)

(* Distinct random server nodes — a deterministic function of the seed,
   independent of the trace streams. *)
let place ~seed ~servers ~nodes =
  let rng = Random.State.make [| seed; 0x736f616b |] in
  let chosen = Array.make nodes false in
  let out = Array.make servers 0 in
  let count = ref 0 in
  while !count < servers do
    let n = Random.State.int rng nodes in
    if not chosen.(n) then begin
      chosen.(n) <- true;
      out.(!count) <- n;
      incr count
    end
  done;
  out

let build_trace scenario =
  let churn =
    Trace.churn ~seed:scenario.seed ~nodes:scenario.nodes
      ~rate:scenario.join_rate ~mean_lifetime:scenario.mean_lifetime
      ~horizon:scenario.horizon
  in
  let drift =
    if scenario.drift_period > 0. && scenario.drift_amplitude > 0. then
      Trace.drift_walk ~seed:scenario.seed ~servers:scenario.servers
        ~period:scenario.drift_period ~amplitude:scenario.drift_amplitude
        ~horizon:scenario.horizon
    else []
  in
  let crashes = Trace.crashes_of_plan scenario.fault ~servers:scenario.servers in
  Trace.merge ~horizon:scenario.horizon [ churn; drift; crashes ]

type report = {
  digest : string;
  events : int;
  horizon : float;
  clients : int;
  weighted : bool;
  delay_model : string option;
  coreset_points : int;
  prepop_seconds : float;
  loop_seconds : float;
  live_servers : int;
  total_servers : int;
  final_objective : float;
  final_lb : float;
  final_ratio : float;
  resolve_objective : float;
  steady_ratio : float;
  budget : int;
  max_epoch_moves : int;
  slo_level : Slo.level;
  admitted : int;
  queued : int;
  shed : int;
  drained : int;
  abandoned : int;
  leaves : int;
  crashes : int;
  crashes_skipped : int;
  recoveries : int;
  drifts : int;
  stranded : int;
  promotions : int;
  promoted_clients : int;
  fallback_clients : int;
  standby_refreshes : int;
  standby_changed : int;
  standby_breaches : int;
  repairs : int;
  repair_moves : int;
  protocol_epochs : int;
  protocol_stalls : int;
  checkpoints : int;
  session_stats : Dynamic.stats;
  trace_points : (float * float * float) list;
  baseline_points : (float * float * float) list;
  competitive_mean : float;
  competitive_max : float;
  log : Event_log.entry list;
}

type outcome = Completed of report | Killed of Checkpoint.state

exception Kill of Checkpoint.state

(* Monotonic wall-clock seconds, for the report's self-timing only. *)
let wall_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let level_rank = function Slo.Healthy -> 0 | Slo.Degraded -> 1 | Slo.Critical -> 2

let run ?state_dir ?(keep = 3) ?disk ?resume_from ?kill_after ?kill_at_event
    scenario config =
  validate scenario config;
  if keep < 1 then invalid_arg "Soak: keep must be >= 1";
  (match kill_at_event with
  | Some n when n < 0 -> invalid_arg "Soak: kill_at_event must be >= 0"
  | _ -> ());
  let disk =
    match disk with Some d -> d | None -> Disk.create scenario.fault
  in
  let dg = digest scenario config in
  let matrix =
    Dia_latency.Synthetic.internet_like ~seed:scenario.seed scenario.nodes
  in
  let server_nodes =
    place ~seed:scenario.seed ~servers:scenario.servers ~nodes:scenario.nodes
  in
  let trace = build_trace scenario in
  (* --- controller state: fresh, or rebuilt from a checkpoint --- *)
  let session, sessions, admission, slo, start_cursor =
    match resume_from with
    | None ->
        ( Dynamic.create ?capacity:scenario.capacity ?delay:scenario.delay matrix
            ~servers:server_nodes,
          Hashtbl.create 256,
          Admission.create ~max_queue:config.max_queue,
          Slo.create config.slo,
          0 )
    | Some st ->
        if st.Checkpoint.digest <> dg then
          invalid_arg
            "Soak.run: checkpoint digest mismatch (different scenario/config)";
        if not (Checkpoint.has_history st) then
          invalid_arg
            "Soak.run: resume_from carries no history up to its cut (a \
             decoded checkpoint: restore it with Recovery.restore)";
        let session =
          Dynamic.restore ?capacity:st.Checkpoint.capacity
            ?delay:scenario.delay ~standbys:st.Checkpoint.standbys matrix
            ~servers:server_nodes ~members:st.Checkpoint.members
            ~next_id:st.Checkpoint.next_id ~failed:st.Checkpoint.failed
            ~drift:st.Checkpoint.drift ~stats:st.Checkpoint.session_stats
        in
        let sessions = Hashtbl.create 256 in
        List.iter
          (fun (sid, id) -> Hashtbl.replace sessions sid id)
          st.Checkpoint.sessions;
        let admission = Admission.create ~max_queue:config.max_queue in
        admission.Admission.queue <- st.Checkpoint.queue;
        admission.Admission.admitted <- st.Checkpoint.admitted;
        admission.Admission.queued <- st.Checkpoint.queued;
        admission.Admission.shed <- st.Checkpoint.shed;
        admission.Admission.drained <- st.Checkpoint.drained;
        admission.Admission.abandoned <- st.Checkpoint.abandoned;
        (session, sessions, admission, Slo.decode config.slo st.Checkpoint.slo,
         st.Checkpoint.cursor)
  in
  (* Weighted mode: the [sessions] table maps session id -> original
     node (not Dynamic client id), and a coreset bucket layer in front
     of the Dynamic turns most joins/leaves into O(1) counter bumps.
     The layer is rebuilt canonically from the session list on resume —
     the checkpoint format does not change. *)
  let weighted =
    match scenario.coreset_eps with
    | None -> None
    | Some eps ->
        let counts = Hashtbl.create 64 in
        Hashtbl.iter
          (fun _sid node ->
            Hashtbl.replace counts node
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts node)))
          sessions;
        let counts = Hashtbl.fold (fun node c acc -> (node, c) :: acc) counts [] in
        Some (Weighted.attach ~seed:scenario.seed ~eps matrix ~counts session)
  in
  (* Connect/disconnect one session, in either mode; both return the
     Dynamic client id the event log names (in weighted mode, the id of
     the bucket's representative member). *)
  let connect sid node =
    match weighted with
    | Some w ->
        Weighted.add w ~node;
        Hashtbl.replace sessions sid node;
        Weighted.handle w ~node
    | None ->
        let id = Dynamic.join session ~node in
        Hashtbl.replace sessions sid id;
        id
  in
  let disconnect sid value =
    Hashtbl.remove sessions sid;
    match weighted with
    | Some w ->
        let id = Weighted.handle w ~node:value in
        Weighted.remove w ~node:value;
        id
    | None ->
        Dynamic.leave session value;
        value
  in
  let connected () =
    match weighted with
    | Some w -> Weighted.sessions w
    | None -> Dynamic.num_clients session
  in
  (* Pre-populate the base load (fresh runs only — a resumed run carries
     it in the checkpointed session list). Synthetic sessions use
     negative ids, which no trace event references, so they never leave;
     they bypass admission control and the event log (a million log
     lines would drown the signal). *)
  let prepop_seconds = ref 0. in
  (match resume_from with
  | Some _ -> ()
  | None ->
      if scenario.clients > 0 then begin
        let t0 = wall_now () in
        let rng = Random.State.make [| scenario.seed; 0xc11e |] in
        for i = 1 to scenario.clients do
          let node = Random.State.int rng scenario.nodes in
          ignore (connect (-i) node)
        done;
        prepop_seconds := wall_now () -. t0
      end);
  (* The counters (history lengths included, so a checkpoint records
     them without walking the lists) and the history, newest first. *)
  let c : Checkpoint.counters =
    match resume_from with
    | None -> Checkpoint.counters ()
    | Some st -> Checkpoint.copy st.Checkpoint.counters
  in
  let lb = ref (match resume_from with None -> nan | Some st -> st.Checkpoint.lb) in
  let history f = match resume_from with None -> ref [] | Some st -> ref (List.rev (f st)) in
  let log = history (fun st -> st.Checkpoint.log) in
  let trace_points = history (fun st -> st.Checkpoint.trace_points) in
  let baseline_points = history (fun st -> st.Checkpoint.baseline_points) in
  let log_event time kind =
    log := { Event_log.time; kind } :: !log;
    c.entries <- c.entries + 1
  in
  let has_capacity () =
    match scenario.capacity with
    | None -> Dynamic.active_servers session <> []
    | Some c ->
        List.exists
          (fun s -> Dynamic.load session s < c)
          (Dynamic.active_servers session)
  in
  (* The offline instance over the *surviving* servers, with the drifted
     matrix: what lower bounds and re-solves must be measured against.
     Also returns survivor index -> full server index. *)
  let survivor_problem () =
    if Dynamic.num_clients session = 0 then None
    else
      let p_full, _ = Dynamic.snapshot session in
      let live = Array.of_list (Dynamic.active_servers session) in
      if Array.length live = Problem.num_servers p_full then Some (p_full, live)
      else
        let full_servers = Problem.servers p_full in
        let servers = Array.map (fun s -> full_servers.(s)) live in
        let p =
          Problem.make ?capacity:scenario.capacity
            ~latency:(Problem.latency p_full) ~servers
            ~clients:(Problem.clients p_full) ()
        in
        Some (p, live)
  in
  (* With a delay model the control plane watches the load-aware pair —
     D_load(A) against LB_load — the same objective the session's
     placement scans minimise; without one, everything below reduces to
     the historical D/LB and is byte-identical to earlier versions. *)
  let objective_name =
    match scenario.delay with None -> "d" | Some _ -> "d_load"
  in
  let objective_now () =
    match scenario.delay with
    | None -> Dynamic.objective session
    | Some _ -> Dynamic.objective_load session
  in
  let resolve_now p =
    match scenario.delay with
    | None -> Objective.max_interaction_path p (Greedy.assign p)
    | Some delay ->
        Objective.max_interaction_path_load p ~delay (Greedy.assign_load ~delay p)
  in
  let recompute_lb now =
    c.events_since_lb <- 0;
    (* The session caches the bound at node level over the live servers
       — [Lower_bound.compute] on the occupied nodes, bit for bit, and
       on the survivor problem up to float association. A join onto a
       fresh node extends it in O(m·|S|) for m occupied nodes; every
       crash, recovery and drift triggers a full pruned rebuild on the
       next refresh (0.44 ms, against 9.6 ms for the unpruned pair loop
       it replaced, at m ≈ 210 and |S| = 20). *)
    if Dynamic.num_clients session = 0 then lb := nan
    else
      lb :=
        (match scenario.delay with
        | None -> Dynamic.lower_bound session
        | Some _ -> Dynamic.lower_bound_load session);
    let obj = objective_now () in
    let ratio = if !lb > 0. && Float.is_finite obj then obj /. !lb else nan in
    trace_points := (now, obj, ratio) :: !trace_points;
    c.traces <- c.traces + 1;
    (* Competitive-ratio sampling: at every refresh point, pit the online
       (sticky) objective against a fresh offline Greedy re-solve over
       the same survivors — the baseline the empirical competitive ratio
       is measured from. *)
    if config.offline_baseline then
      match survivor_problem () with
      | None -> ()
      | Some (p, _) ->
          let resolve = resolve_now p in
          baseline_points := (now, obj, resolve) :: !baseline_points;
          c.baselines <- c.baselines + 1
  in
  let current_ratio () =
    let obj = objective_now () in
    if !lb > 0. && Float.is_finite obj then obj /. !lb else nan
  in
  (* Protocol-level repair epoch: the paper's Distributed-Greedy (§IV-D)
     over the survivors, computed centrally, applied move-by-move iff its
     plan strictly improves D, fits the remaining epoch budget and has a
     capacity-feasible move order. Simulating the protocol's messages
     under the scenario's network faults would only add time: its
     reliable transport masks the loss. *)
  let protocol_epoch now epoch_moves =
    match survivor_problem () with
    | None -> ()
    | Some (p, live) ->
        let res = Distributed_greedy.run p in
        c.protocol_epochs <- c.protocol_epochs + 1;
        let before = Dynamic.objective session in
        let plan_objective =
          let t = res.Distributed_greedy.trace in
          t.(Array.length t - 1)
        in
        let members = Dynamic.members session in
        let target = Assignment.to_array res.Distributed_greedy.assignment in
        let plan_moves =
          List.mapi (fun i (id, _node, server) -> (i, id, server)) members
          |> List.filter_map (fun (i, id, server) ->
                 let dst = live.(target.(i)) in
                 if dst <> server then Some (id, server, dst) else None)
        in
        let n_moves = List.length plan_moves in
        let improves = plan_objective < before in
        let fits = n_moves > 0 && !epoch_moves + n_moves <= config.budget in
        (* A capacitated plan may need a specific move order to stay
           feasible at every intermediate step; find one, or refuse. *)
        let order =
          if not (improves && fits) then None
          else
            match scenario.capacity with
            | None -> Some plan_moves
            | Some cap ->
                let loads =
                  Array.init scenario.servers (fun s -> Dynamic.load session s)
                in
                let order = ref [] and pending = ref plan_moves in
                let progress = ref true in
                while !pending <> [] && !progress do
                  progress := false;
                  pending :=
                    List.filter
                      (fun (id, src, dst) ->
                        if loads.(dst) < cap then begin
                          loads.(dst) <- loads.(dst) + 1;
                          loads.(src) <- loads.(src) - 1;
                          order := (id, src, dst) :: !order;
                          progress := true;
                          false
                        end
                        else true)
                      !pending
                done;
                if !pending = [] then Some (List.rev !order) else None
        in
        let applied =
          match order with
          | None -> false
          | Some moves ->
              List.iter (fun (id, _src, dst) -> Dynamic.move session id dst) moves;
              epoch_moves := !epoch_moves + n_moves;
              c.repair_moves <- c.repair_moves + n_moves;
              true
        in
        log_event now
          (Event_log.Protocol_repair
             { moves = n_moves; applied; before; after = Dynamic.objective session })
  in
  let repair now to_ =
    let epoch_moves = ref 0 in
    let before = objective_now () in
    let moves = Dynamic.rebalance ~max_moves:config.budget session in
    epoch_moves := moves;
    c.repairs <- c.repairs + 1;
    c.repair_moves <- c.repair_moves + moves;
    log_event now
      (Event_log.Repair
         { moves; budget = config.budget; before; after = objective_now () });
    if to_ = Slo.Critical then protocol_epoch now epoch_moves;
    if !epoch_moves > c.max_epoch_moves then c.max_epoch_moves <- !epoch_moves
  in
  let drain now =
    if Slo.level slo = Slo.Healthy then begin
      let continue = ref true in
      while !continue do
        if not (has_capacity ()) then continue := false
        else
          match Admission.pop admission with
          | None -> continue := false
          | Some (sid, node) ->
              let id = connect sid node in
              log_event now
                (Event_log.Drained
                   { session = sid; client = id; server = Dynamic.server_of session id })
      done
    end
  in
  (* Stranded orphans are never dropped on the floor: their trace
     sessions re-enter admission control (capacity is gone, so they
     queue under Healthy/Degraded and shed under Critical or a full
     queue), exactly like a fresh arrival that found no room. *)
  let requeue_stranded now stranded =
    if stranded <> [] then begin
      let by_id = Hashtbl.create 8 in
      Hashtbl.iter (fun sid id -> Hashtbl.replace by_id id sid) sessions;
      List.iter
        (fun (id, node) ->
          match Hashtbl.find_opt by_id id with
          | None -> ()
          | Some sid -> (
              Hashtbl.remove sessions sid;
              match
                Admission.consider admission ~level:(Slo.level slo)
                  ~has_capacity:false ~session:sid ~node
              with
              | Admission.Admit -> ()  (* unreachable: has_capacity is false *)
              | Admission.Queue -> log_event now (Event_log.Queued { session = sid })
              | Admission.Shed -> log_event now (Event_log.Shed { session = sid })))
        stranded
    end
  in
  let breach_pending = ref false in
  let dispatch now kind =
    match kind with
    | Trace.Join { session = sid; node } -> (
        match
          Admission.consider admission ~level:(Slo.level slo)
            ~has_capacity:(has_capacity ()) ~session:sid ~node
        with
        | Admission.Admit ->
            let id = connect sid node in
            log_event now
              (Event_log.Join
                 { session = sid; client = id; server = Dynamic.server_of session id });
            false
        | Admission.Queue ->
            log_event now (Event_log.Queued { session = sid });
            false
        | Admission.Shed ->
            log_event now (Event_log.Shed { session = sid });
            false)
    | Trace.Leave { session = sid } -> (
        match Hashtbl.find_opt sessions sid with
        | Some value ->
            let id = disconnect sid value in
            c.leaves <- c.leaves + 1;
            log_event now (Event_log.Leave { session = sid; client = id });
            false
        | None ->
            (* queued (abandon), shed, or stranded — nothing connected *)
            ignore (Admission.abandon admission ~session:sid);
            false)
    | Trace.Crash { server } ->
        let failed = Dynamic.failed_servers session in
        let live = Dynamic.active_servers session in
        if List.mem server failed || List.length live <= 1 then begin
          c.crashes_skipped <- c.crashes_skipped + 1;
          log_event now (Event_log.Crash_skipped { server });
          false
        end
        else if config.standby then begin
          (* O(1)-per-client repair path: promote armed standbys first;
             budgeted rebalance and protocol epochs only run afterwards
             if the SLO (or the standby bound) says the result is not
             good enough. *)
          let r = Dynamic.promote_standby session server in
          c.crashes <- c.crashes + 1;
          c.stranded <- c.stranded + List.length r.Dynamic.stranded;
          log_event now
            (Event_log.Promote
               {
                 server;
                 promoted = r.Dynamic.promoted;
                 fallback = r.Dynamic.fallback;
                 stranded = List.length r.Dynamic.stranded;
               });
          requeue_stranded now r.Dynamic.stranded;
          breach_pending := true;
          true
        end
        else begin
          let r = Dynamic.fail_server_report session server in
          c.crashes <- c.crashes + 1;
          let n_stranded = List.length r.Dynamic.stranded in
          c.stranded <- c.stranded + n_stranded;
          log_event now
            (Event_log.Crash
               { server; migrated = r.Dynamic.migrated; stranded = n_stranded });
          requeue_stranded now r.Dynamic.stranded;
          true
        end
    | Trace.Recover { server } ->
        if List.mem server (Dynamic.failed_servers session) then begin
          Dynamic.recover_server session server;
          c.recoveries <- c.recoveries + 1;
          log_event now (Event_log.Recover { server });
          true
        end
        else false (* its crash was refused or never happened *)
    | Trace.Drift { server; factor } ->
        Dynamic.set_drift session ~server ~factor;
        c.drifts <- c.drifts + 1;
        log_event now (Event_log.Drift { server; factor });
        true
  in
  (* Durable-recovery state: a write-ahead journal holding the run's
     history (each event's log lines and sampled points) plus numbered
     checkpoint generations of the live state, both under [state_dir]
     and both written through the storage fault injector. A resumed run
     continues the journal from its checkpoint's cut. *)
  let journal =
    Option.map
      (fun dir ->
        Generation.ensure_dir dir;
        let path = Filename.concat dir "journal" in
        match resume_from with
        | None -> Journal.create ~disk ~path ~digest:dg ()
        | Some st ->
            Journal.reopen ~disk ~path ~digest:dg
              st.Checkpoint.history)
      state_dir
  in
  (* The history lists are only materialised for an in-memory kill; a
     generation save records the cut and the counts instead. *)
  let capture ~cursor ~now ~history =
    let sessions_list =
      Hashtbl.fold (fun sid id acc -> (sid, id) :: acc) sessions []
      |> List.sort compare
    in
    let drift_list =
      List.filter_map
        (fun s ->
          let f = Dynamic.drift session s in
          if f <> 1.0 then Some (s, f) else None)
        (List.init scenario.servers Fun.id)
    in
    {
      Checkpoint.digest = dg;
      cursor;
      now;
      capacity = scenario.capacity;
      members = Dynamic.members session;
      standbys = Dynamic.standbys session;
      next_id = Dynamic.next_id session;
      failed = Dynamic.failed_servers session;
      drift = drift_list;
      session_stats = Dynamic.stats session;
      sessions = sessions_list;
      slo = Slo.encode slo;
      queue = admission.Admission.queue;
      admitted = admission.Admission.admitted;
      queued = admission.Admission.queued;
      shed = admission.Admission.shed;
      drained = admission.Admission.drained;
      abandoned = admission.Admission.abandoned;
      lb = !lb;
      counters = Checkpoint.copy c;
      history =
        (match journal with
        | Some w -> Journal.position w
        | None -> { Journal.records = 0; bytes = 0; crc = 0 });
      trace_points = (if history then List.rev !trace_points else []);
      baseline_points = (if history then List.rev !baseline_points else []);
      log = (if history then List.rev !log else []);
    }
  in
  (* The items of history list [l] pushed since it was [mark], oldest
     first. *)
  let fresh mark l =
    let rec go acc l =
      if l == mark then acc else match l with [] -> acc | e :: tl -> go (e :: acc) tl
    in
    go [] l
  in
  let last_now = ref 0. in
  let step i =
    let ev = trace.(i) in
    let now = ev.Trace.time in
    last_now := now;
    let log_mark = !log and trace_mark = !trace_points in
    let baseline_mark = !baseline_points in
    let structural = dispatch now ev.Trace.kind in
    c.events_since_lb <- c.events_since_lb + 1;
    if structural || c.events_since_lb >= config.lb_every then recompute_lb now;
    (* Standby-bound guard: when a promotion just landed, check the
       post-promotion D/LB against the configured bound and repair
       immediately (budgeted) on a breach — before the SLO machinery
       gets a say. *)
    if !breach_pending then begin
      breach_pending := false;
      let ratio = current_ratio () in
      if Float.is_finite ratio && ratio > config.standby_bound then begin
        log_event now
          (Event_log.Standby_breach { ratio; bound = config.standby_bound });
        repair now Slo.Degraded
      end
    end;
    (match Slo.observe slo (current_ratio ()) with
    | None -> ()
    | Some (from_, to_) ->
        log_event now
          (Event_log.Transition
             { from_; to_; ratio = current_ratio (); objective = objective_name });
        if level_rank to_ > level_rank from_ then repair now to_);
    drain now;
    let boundary =
      config.checkpoint_every > 0 && (i + 1) mod config.checkpoint_every = 0
    in
    if boundary then begin
      (* Canonical standby re-arm at the boundary, *before* capture: the
         persisted map is then exactly what a restore-and-refresh would
         rebuild. *)
      if config.standby then begin
        let changed = Dynamic.refresh_standbys session in
        log_event now (Event_log.Standby_refresh { changed })
      end;
      c.checkpoints <- c.checkpoints + 1;
      log_event now (Event_log.Checkpoint { id = c.checkpoints })
    end;
    (* Journal this event's history before any checkpoint whose cut
       covers it is written — the write-ahead discipline recovery
       relies on. *)
    (match journal with
    | None -> ()
    | Some w -> (
        match
          (fresh log_mark !log, fresh trace_mark !trace_points,
           fresh baseline_mark !baseline_points)
        with
        | [], [], [] -> ()
        | entries, trace, baseline ->
            Journal.append w ~cursor:i
              ~points:(Checkpoint.points_text ~trace ~baseline)
              (Event_log.render entries)));
    if boundary then begin
      (* Materialising the state is O(sessions) — with a million
         weighted sessions it would dwarf the events themselves — so
         only capture when someone consumes it. The boundary itself
         (refresh + log entry + counter) is identical either way, which
         is what the determinism contract hashes. *)
      Option.iter
        (fun dir ->
          Option.iter Journal.flush journal;
          ignore
            (Generation.save ~disk ~dir ~keep
               (capture ~cursor:(i + 1) ~now ~history:false)))
        state_dir;
      match kill_after with
      | Some n when c.checkpoints >= n ->
          raise (Kill (capture ~cursor:(i + 1) ~now ~history:true))
      | _ -> ()
    end;
    match kill_at_event with
    | Some n when n = i -> raise (Kill (capture ~cursor:(i + 1) ~now ~history:true))
    | _ -> ()
  in
  let loop_start = wall_now () in
  match
    for i = start_cursor to Array.length trace - 1 do
      step i
    done
  with
  | exception Kill st ->
      (* The deterministic kill is graceful about the journal: buffered
         records are flushed so the audit has full coverage up to the
         kill point. Losing the buffer to a real SIGKILL is modeled
         explicitly by [jtorn:] plans instead. *)
      (match journal with Some w -> Journal.close w | None -> ());
      Killed st
  | () ->
      (match journal with Some w -> Journal.close w | None -> ());
      let loop_seconds = wall_now () -. loop_start in
      recompute_lb !last_now;
      let final_objective = objective_now () in
      let final_ratio =
        if !lb > 0. && Float.is_finite final_objective then
          final_objective /. !lb
        else nan
      in
      let resolve_objective =
        match survivor_problem () with
        | None -> nan
        | Some (p, _) -> resolve_now p
      in
      let steady_ratio =
        if resolve_objective > 0. && Float.is_finite final_objective then
          final_objective /. resolve_objective
        else 1.0
      in
      (* Failover/standby counters are derived from the event log rather
         than checkpointed: the log is already part of the determinism
         contract, so resumed runs reconstruct identical numbers without
         widening the checkpoint format with more scalars. *)
      let promotions = ref 0 and promoted_clients = ref 0 in
      let fallback_clients = ref 0 and standby_refreshes = ref 0 in
      let standby_changed = ref 0 and standby_breaches = ref 0 in
      List.iter
        (fun e ->
          match e.Event_log.kind with
          | Event_log.Promote { promoted; fallback; _ } ->
              incr promotions;
              promoted_clients := !promoted_clients + promoted;
              fallback_clients := !fallback_clients + fallback
          | Event_log.Standby_refresh { changed } ->
              incr standby_refreshes;
              standby_changed := !standby_changed + changed
          | Event_log.Standby_breach _ -> incr standby_breaches
          | _ -> ())
        !log;
      let ratios =
        List.filter_map
          (fun (_, online, resolve) ->
            if resolve > 0. && Float.is_finite online then
              Some (online /. resolve)
            else None)
          !baseline_points
      in
      let competitive_max =
        match ratios with
        | [] -> nan
        | r :: rest -> List.fold_left Float.max r rest
      in
      let competitive_mean =
        match ratios with
        | [] -> nan
        | _ ->
            List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
      in
      Completed
        {
          digest = dg;
          events = Array.length trace;
          horizon = scenario.horizon;
          clients = connected ();
          weighted = weighted <> None;
          delay_model = Option.map Dia_core.Delay.to_string scenario.delay;
          coreset_points = Dynamic.num_clients session;
          prepop_seconds = !prepop_seconds;
          loop_seconds;
          live_servers = List.length (Dynamic.active_servers session);
          total_servers = scenario.servers;
          final_objective;
          final_lb = !lb;
          final_ratio;
          resolve_objective;
          steady_ratio;
          budget = config.budget;
          max_epoch_moves = c.max_epoch_moves;
          slo_level = Slo.level slo;
          admitted = admission.Admission.admitted;
          queued = admission.Admission.queued;
          shed = admission.Admission.shed;
          drained = admission.Admission.drained;
          abandoned = admission.Admission.abandoned;
          leaves = c.leaves;
          crashes = c.crashes;
          crashes_skipped = c.crashes_skipped;
          recoveries = c.recoveries;
          drifts = c.drifts;
          stranded = c.stranded;
          promotions = !promotions;
          promoted_clients = !promoted_clients;
          fallback_clients = !fallback_clients;
          standby_refreshes = !standby_refreshes;
          standby_changed = !standby_changed;
          standby_breaches = !standby_breaches;
          repairs = c.repairs;
          repair_moves = c.repair_moves;
          protocol_epochs = c.protocol_epochs;
          protocol_stalls = 0;
          checkpoints = c.checkpoints;
          session_stats = Dynamic.stats session;
          trace_points = List.rev !trace_points;
          baseline_points = List.rev !baseline_points;
          competitive_mean;
          competitive_max;
          log = List.rev !log;
        }

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "soak report (digest %s)" r.digest;
  line "  events              %d over horizon %s" r.events (fs r.horizon);
  line "  clients             %d connected, servers %d/%d live" r.clients
    r.live_servers r.total_servers;
  if r.weighted then
    line "  coreset             %d points carry the %d weighted sessions"
      r.coreset_points r.clients;
  (match r.delay_model with
  | None -> ()
  | Some d ->
      line "  delay model         %s (objective and bound are D_load / LB_load)" d);
  line "  objective D(A)      %s" (fs r.final_objective);
  line "  lower bound LB      %s" (fs r.final_lb);
  line "  ratio D/LB          %s (slo %s)" (fs r.final_ratio)
    (Slo.level_name r.slo_level);
  line "  greedy re-solve     %s" (fs r.resolve_objective);
  line "  steady-state ratio  %s (D(A) / re-solve)" (fs r.steady_ratio);
  line "  admission           admitted=%d queued=%d drained=%d abandoned=%d shed=%d"
    r.admitted r.queued r.drained r.abandoned r.shed;
  line "  churn               leaves=%d" r.leaves;
  line "  chaos               crashes=%d refused=%d recoveries=%d drifts=%d stranded=%d"
    r.crashes r.crashes_skipped r.recoveries r.drifts r.stranded;
  line "  failover            promotions=%d promoted=%d fallback=%d breaches=%d"
    r.promotions r.promoted_clients r.fallback_clients r.standby_breaches;
  line "  standby             refreshes=%d changed=%d" r.standby_refreshes
    r.standby_changed;
  line "  competitive         samples=%d mean=%s max=%s"
    (List.length r.baseline_points)
    (fs r.competitive_mean) (fs r.competitive_max);
  line "  repair              epochs=%d moves=%d max-epoch-moves=%d budget=%d"
    r.repairs r.repair_moves r.max_epoch_moves r.budget;
  line "  protocol repair     epochs=%d stalls=%d" r.protocol_epochs
    r.protocol_stalls;
  line "  checkpoints         %d" r.checkpoints;
  line "  session             joins=%d leaves=%d moves=%d"
    r.session_stats.Dynamic.joins r.session_stats.Dynamic.leaves
    r.session_stats.Dynamic.moves;
  Buffer.contents b

let csv r =
  let b = Buffer.create 256 in
  Buffer.add_string b "t,objective,ratio\n";
  List.iter
    (fun (t, obj, ratio) ->
      Buffer.add_string b (Printf.sprintf "%s,%s,%s\n" (fs t) (fs obj) (fs ratio)))
    r.trace_points;
  Buffer.contents b
