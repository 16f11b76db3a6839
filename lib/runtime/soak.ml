module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Greedy = Dia_core.Greedy
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Assignment = Dia_core.Assignment
module Distributed_greedy = Dia_core.Distributed_greedy
module Fault = Dia_sim.Fault
module Weighted = Dia_coreset.Weighted
module Delay = Dia_core.Delay

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
  delay : Delay.t option;
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
  offline_baseline : bool;
}

let default_config =
  {
    slo = Slo.default_config;
    budget = 8;
    max_queue = 64;
    lb_every = 10;
    checkpoint_every = 100;
    offline_baseline = false;
  }

(* Every numeric requirement is stated positively, so a NaN fails it. *)
let validate ?(keep = 1) ?(kill_at_event = 0) (s : scenario) (c : config) =
  let require ok what = if not ok then invalid_arg ("Soak: " ^ what) in
  let positive x = Float.is_finite x && x > 0. in
  require (s.nodes >= 2) "nodes must be >= 2";
  require (s.servers >= 1 && s.servers <= s.nodes) "servers must be in [1, nodes]";
  require (Option.fold ~none:true ~some:(fun cap -> cap >= 1) s.capacity)
    "capacity must be positive";
  require (Float.is_finite s.horizon && s.horizon >= 0.)
    "horizon must be finite and non-negative";
  require (positive s.join_rate) "join_rate must be finite and positive";
  require (positive s.mean_lifetime) "mean_lifetime must be finite and positive";
  require (Float.is_finite s.drift_period) "drift_period must be finite";
  require (s.drift_amplitude >= 0. && s.drift_amplitude <= 1.)
    "drift_amplitude must be in [0, 1]";
  require (s.clients >= 0) "clients must be non-negative";
  require
    (Option.fold ~none:true ~some:(fun cap -> s.clients <= cap * s.servers) s.capacity)
    "pre-populated clients exceed total capacity";
  Option.iter
    (fun eps ->
      require (Float.is_finite eps && eps >= 0.) "coreset_eps must be finite and >= 0";
      require (s.capacity = None)
        "coreset_eps requires an uncapacitated scenario (a coreset point stands \
         for an unbounded population)")
    s.coreset_eps;
  Option.iter
    (fun d ->
      Delay.validate d;
      require (s.coreset_eps = None)
        "delay requires classic mode (coreset buckets hide the true per-server \
         load from the delay model)")
    s.delay;
  Slo.validate_config c.slo;
  require (c.budget >= 0) "budget must be non-negative";
  require (c.max_queue >= 0) "max_queue must be non-negative";
  require (c.lb_every >= 1) "lb_every must be >= 1";
  require (c.checkpoint_every >= 0) "checkpoint_every must be non-negative";
  require (keep >= 1) "keep must be >= 1";
  require (kill_at_event >= 0) "kill_at_event must be >= 0"

let fs = Codec.float_str

let digest scenario config =
  let s = scenario and c = config in
  let canonical =
    Printf.sprintf
      "soak seed=%d nodes=%d servers=%d capacity=%s horizon=%s join_rate=%s \
       mean_lifetime=%s drift_period=%s drift_amplitude=%s fault=%s \
       slo=%s,%s,%d,%s budget=%d max_queue=%d lb_every=%d checkpoint_every=%d \
       offline_baseline=%b"
      s.seed s.nodes s.servers
      (match s.capacity with None -> "none" | Some c -> string_of_int c)
      (fs s.horizon) (fs s.join_rate) (fs s.mean_lifetime) (fs s.drift_period)
      (fs s.drift_amplitude)
      (Fault.to_string s.fault)
      (fs c.slo.Slo.degraded_at) (fs c.slo.Slo.critical_at) c.slo.Slo.hysteresis
      (fs c.slo.Slo.recover_margin) c.budget c.max_queue c.lb_every
      c.checkpoint_every c.offline_baseline
  in
  (* The weighted-mode fields and the delay model extend the canonical
     string only when in use, so the scenarios without them keep their
     historical digests (and their checkpoints stay resumable). *)
  let weighted =
    if s.clients = 0 && s.coreset_eps = None then ""
    else
      Printf.sprintf " clients=%d coreset_eps=%s" s.clients
        (match s.coreset_eps with None -> "none" | Some e -> fs e)
  in
  let delay = Option.fold s.delay ~none:"" ~some:(fun d -> " delay=" ^ Delay.to_string d) in
  Digest.to_hex (Digest.string (canonical ^ weighted ^ delay))

(* Distinct random server nodes — a deterministic function of the seed,
   independent of the trace streams. *)
let place ~seed ~servers ~nodes =
  let rng = Random.State.make [| seed; 0x736f616b |] in
  let chosen = Array.make nodes false in
  let rec draw i =
    let n = Random.State.int rng nodes in
    if chosen.(n) then draw i
    else begin
      chosen.(n) <- true;
      n
    end
  in
  Array.init servers draw

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

(* Monotonic wall-clock seconds, for the report's self-timing only. *)
let wall_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let level_rank = function Slo.Healthy -> 0 | Slo.Degraded -> 1 | Slo.Critical -> 2

(* --- a run: a fixed environment, a live state, and its transitions --- *)

type point = float * float * float

(* What stays fixed for the whole run. *)
type env = {
  scenario : scenario;
  config : config;
  digest : string;
  delay : Delay.t;
  server_nodes : int array;
  trace : Trace.t;
  journal : Journal.writer option;
      (* the write-ahead history under the state dir, if there is one *)
  objective_name : string;
      (* the objective the SLO watches against its bound, the one the
         session's placement scans minimise: "d_load" under a delay
         model, the paper's "d" without one *)
}

(* The controller's live state, which [step] advances one trace event
   at a time. The history lists hold the run so far, newest first; the
   counters carry their lengths, so a checkpoint records them without
   walking the lists. *)
type state = {
  session : Dynamic.t;
  sessions : (int, int) Hashtbl.t;
      (* trace session -> Dynamic client id; -> node in weighted mode *)
  weighted : Weighted.t option;
  admission : Admission.t;
  slo : Slo.t;
  counters : Checkpoint.counters;
  mutable lb : float;  (* the last computed lower bound *)
  mutable now : float;  (* the time of the last event *)
  mutable resolve_memo : (int * float option) option;
      (* the last offline re-solve, keyed on its problem version *)
  mutable log : Event_log.entry list;
  mutable trace_points : point list;
  mutable baseline_points : point list;
}

(* What one event adds to the run's history, newest first: the
   transitions push onto it, [step] returns it, and it is the journal's
   record of the event. *)
type output = {
  mutable entries : Event_log.entry list;
  mutable trace : point list;
  mutable baseline : point list;
}

let commit st out =
  let c = st.counters in
  st.log <- out.entries @ st.log;
  st.trace_points <- out.trace @ st.trace_points;
  st.baseline_points <- out.baseline @ st.baseline_points;
  c.entries <- c.entries + List.length out.entries;
  c.traces <- c.traces + List.length out.trace;
  c.baselines <- c.baselines + List.length out.baseline

let log_event out time kind = out.entries <- { Event_log.time; kind } :: out.entries

let environment scenario config =
  {
    scenario;
    config;
    digest = digest scenario config;
    delay = Option.value scenario.delay ~default:Delay.zero;
    server_nodes =
      place ~seed:scenario.seed ~servers:scenario.servers ~nodes:scenario.nodes;
    trace = build_trace scenario;
    journal = None;
    objective_name = (match scenario.delay with None -> "d" | Some _ -> "d_load");
  }

(* Weighted mode: the [sessions] table maps session id -> original node
   (not Dynamic client id), and a coreset bucket layer in front of the
   Dynamic turns most joins/leaves into O(1) counter bumps. The layer is
   rebuilt canonically from the session list on resume — the checkpoint
   format does not change. *)
let attach env matrix session sessions =
  Option.map
    (fun eps ->
      let counts = Hashtbl.create 64 in
      Hashtbl.iter
        (fun _sid node ->
          Hashtbl.replace counts node
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts node)))
        sessions;
      let counts = Hashtbl.fold (fun node c acc -> (node, c) :: acc) counts [] in
      Weighted.attach ~seed:env.scenario.seed ~eps matrix ~counts session)
    env.scenario.coreset_eps

(* Connect/disconnect one session, in either mode; both return the
   Dynamic client id the event log names (in weighted mode, the id of
   the bucket's representative member). *)
let connect st sid node =
  match st.weighted with
  | Some w ->
      Weighted.add w ~node;
      Hashtbl.replace st.sessions sid node;
      Weighted.handle w ~node
  | None ->
      let id = Dynamic.join st.session ~node in
      Hashtbl.replace st.sessions sid id;
      id

let disconnect st sid value =
  Hashtbl.remove st.sessions sid;
  match st.weighted with
  | Some w ->
      let id = Weighted.handle w ~node:value in
      Weighted.remove w ~node:value;
      id
  | None ->
      Dynamic.leave st.session value;
      value

let no_history = { Journal.records = 0; bytes = 0; crc = 0 }

(* The checkpoint of a run that has taken no event yet. *)
let initial env =
  {
    Checkpoint.digest = env.digest; cursor = 0; now = 0.; lb = nan;
    session =
      { capacity = env.scenario.capacity; members = []; next_id = 0; failed = [];
        drift = []; stats = { joins = 0; leaves = 0; moves = 0 } };
    sessions = []; slo = Slo.encode (Slo.create env.config.slo);
    admission = Admission.create (); counters = Checkpoint.counters ();
    history = no_history; trace_points = []; baseline_points = []; log = [];
  }

(* The state checkpoint [cp] describes: the inverse of [capture]. The
   resolve memo starts empty. *)
let resume env (cp : Checkpoint.state) =
  if cp.digest <> env.digest then
    invalid_arg "Soak.run: checkpoint digest mismatch (different scenario/config)";
  if not (Checkpoint.has_history cp) then
    invalid_arg
      "Soak.run: resume_from carries no history up to its cut (a decoded \
       checkpoint: restore it with Recovery.restore)";
  if cp.cursor > Array.length env.trace then
    invalid_arg
      (Printf.sprintf "Soak.run: resume cursor %d lies past the trace (%d events)"
         cp.cursor (Array.length env.trace));
  (* Classic mode reads d(c,s) and d(s,s') only, so it materialises the
     server rows; weighted mode embeds every pair with Vivaldi to bucket
     sessions, so it builds them all. Entries are the same either way. *)
  let rows =
    match env.scenario.coreset_eps with None -> Some env.server_nodes | Some _ -> None
  in
  let matrix =
    Dia_latency.Synthetic.internet_like ?rows ~seed:env.scenario.seed env.scenario.nodes
  in
  let session =
    Dynamic.restore ~delay:env.delay matrix ~servers:env.server_nodes cp.session
  in
  let sessions = Hashtbl.create 256 in
  List.iter (fun (sid, id) -> Hashtbl.replace sessions sid id) cp.sessions;
  {
    session;
    sessions;
    weighted = attach env matrix session sessions;
    admission = Admission.copy cp.admission;
    slo = Slo.decode env.config.slo cp.slo;
    counters = Checkpoint.copy cp.counters;
    lb = cp.lb;
    now = cp.now;
    resolve_memo = None;
    log = List.rev cp.log;
    trace_points = List.rev cp.trace_points;
    baseline_points = List.rev cp.baseline_points;
  }

(* A fresh run resumes its initial checkpoint, then pre-populates the
   base load; it also returns the wall clock that took. A resumed run
   carries the base load in its checkpointed session list. Synthetic
   sessions use negative ids, which no trace event references, so they
   never leave; they bypass admission control and the event log (a
   million log lines would drown the signal). *)
let fresh env =
  let s = env.scenario and st = resume env (initial env) in
  let t0 = wall_now () in
  let rng = Random.State.make [| s.seed; 0xc11e |] in
  for i = 1 to s.clients do
    ignore (connect st (-i) (Random.State.int rng s.nodes))
  done;
  (st, wall_now () -. t0)

(* The checkpoint of [st] with [cursor] the next event. The history
   lists are only materialised for an in-memory kill; a generation save
   records the journal cut and the counts instead. *)
let capture env st ~cursor ~history =
  {
    Checkpoint.digest = env.digest;
    cursor;
    now = st.now;
    lb = st.lb;
    session = Dynamic.image st.session;
    sessions =
      Hashtbl.fold (fun sid id acc -> (sid, id) :: acc) st.sessions []
      |> List.sort compare;
    slo = Slo.encode st.slo;
    admission = Admission.copy st.admission;
    counters = Checkpoint.copy st.counters;
    history = Option.fold env.journal ~none:no_history ~some:Journal.position;
    trace_points = (if history then List.rev st.trace_points else []);
    baseline_points = (if history then List.rev st.baseline_points else []);
    log = (if history then List.rev st.log else []);
  }

(* Durable-recovery state: a write-ahead journal holding the run's
   history (each event's log lines and sampled points) beside numbered
   checkpoint generations of the live state, both under the state dir
   and both written through the storage fault injector. A resumed run
   continues the journal from its checkpoint's cut. *)
let open_journal ~disk env resume_from dir =
  Generation.ensure_dir dir;
  let path = Filename.concat dir "journal" in
  match resume_from with
  | None -> Journal.create ~disk ~path ~digest:env.digest ()
  | Some (cp : Checkpoint.state) ->
      Journal.reopen ~disk ~path ~digest:env.digest cp.history

(* [num /. den] where it means something: a finite numerator over a
   positive denominator. *)
let quotient num den =
  if den > 0. && Float.is_finite num then Some (num /. den) else None

(* D/LB of objective [obj] against the last computed bound. *)
let ratio st obj = Option.value (quotient obj st.lb) ~default:nan

(* The offline instance over the *surviving* servers, with the drifted
   matrix: what lower bounds and re-solves must be measured against.
   Also returns survivor index -> full server index. *)
let survivor_problem env st =
  if Dynamic.num_clients st.session = 0 then None
  else
    let p_full, _ = Dynamic.snapshot st.session in
    let live = Array.of_list (Dynamic.active_servers st.session) in
    if Array.length live = Problem.num_servers p_full then Some (p_full, live)
    else
      let full_servers = Problem.servers p_full in
      let servers = Array.map (fun s -> full_servers.(s)) live in
      let p =
        Problem.make ?capacity:env.scenario.capacity
          ~latency:(Problem.latency p_full) ~servers
          ~clients:(Problem.clients p_full) ()
      in
      Some (p, live)

(* The offline reference: D of a fresh Greedy re-solve of the survivor
   problem ([None] while the session is empty). It is a pure function
   of that problem, which changes only when [Dynamic.problem_version]
   does (capacity and the delay model are fixed for the run, and Greedy
   is deterministic), so a one-entry memo keyed on the version is
   bit-identical to re-solving every time. Refreshes after shed or
   queued joins, which never touch the session, hit it. *)
let resolve env st =
  let version = Dynamic.problem_version st.session in
  match st.resolve_memo with
  | Some (v, resolve) when v = version -> resolve
  | _ ->
      let resolve =
        Option.map
          (fun (p, _) ->
            Objective.max_interaction_path ~delay:env.delay p
              (Greedy.assign ~delay:env.delay p))
          (survivor_problem env st)
      in
      st.resolve_memo <- Some (version, resolve);
      resolve

let recompute_lb env st out now =
  st.counters.events_since_lb <- 0;
  (* The session caches the bound at node level over the live servers
     — [Lower_bound.compute] on the occupied nodes, bit for bit, and on
     the survivor problem up to float association. A join onto a fresh
     node extends it in O(m·|S|) for m occupied nodes; every crash,
     recovery and drift triggers a full pruned rebuild on the next
     refresh (0.44 ms, against 9.6 ms for the unpruned pair loop it
     replaced, at m ≈ 210 and |S| = 20). *)
  st.lb <-
    (if Dynamic.num_clients st.session = 0 then nan
     else Dynamic.lower_bound st.session);
  let obj = Dynamic.objective st.session in
  out.trace <- (now, obj, ratio st obj) :: out.trace;
  (* Competitive-ratio sampling: at every refresh point, pit the online
     (sticky) objective against a fresh offline Greedy re-solve over the
     same survivors — the baseline the empirical competitive ratio is
     measured from. *)
  if env.config.offline_baseline then
    match resolve env st with
    | None -> ()
    | Some resolve ->
        out.baseline <- (now, obj, resolve) :: out.baseline

let network_objective st =
  let p, a = Dynamic.snapshot st.session in
  Objective.max_interaction_path p a

(* A capacitated plan may need a specific move order to stay feasible
   at every intermediate step; find one, or refuse. *)
let move_order env st moves =
  match env.scenario.capacity with
  | None -> Some moves
  | Some cap ->
      let loads = Array.init env.scenario.servers (Dynamic.load st.session) in
      (* One pass makes, in plan order, every move whose destination
         has room; passes repeat while one makes progress. *)
      let fits (_, src, dst) =
        let room = loads.(dst) < cap in
        if room then begin
          loads.(dst) <- loads.(dst) + 1;
          loads.(src) <- loads.(src) - 1
        end;
        room
      in
      let rec passes order = function
        | [] -> Some (List.rev order)
        | pending -> (
            match List.partition fits pending with
            | [], _ -> None
            | moved, rest -> passes (List.rev_append moved order) rest)
      in
      passes [] moves

(* Protocol-level repair epoch: the paper's Distributed-Greedy (§IV-D)
   over the survivors, computed centrally, applied move-by-move iff its
   plan strictly improves D, fits what the epoch's rebalance left of the
   budget ([spent] moves are gone) and has a capacity-feasible move
   order. Simulating the protocol's messages under the scenario's
   network faults would only add time: its reliable transport masks the
   loss. The plan is the paper's, so it is judged on the network D, also
   under a delay model. Returns the moves applied. *)
let protocol_epoch env st out now ~spent =
  match survivor_problem env st with
  | None -> 0
  | Some (p, live) ->
      let c = st.counters in
      let res = Distributed_greedy.run p in
      c.protocol_epochs <- c.protocol_epochs + 1;
      let before = network_objective st in
      let plan = res.Distributed_greedy.trace in
      let target = Assignment.to_array res.Distributed_greedy.assignment in
      let plan_moves =
        Dynamic.members st.session
        |> List.mapi (fun i (id, _node, server) -> (i, id, server))
        |> List.filter_map (fun (i, id, server) ->
               let dst = live.(target.(i)) in
               if dst <> server then Some (id, server, dst) else None)
      in
      let n_moves = List.length plan_moves in
      let order =
        if plan.(Array.length plan - 1) < before && n_moves > 0
           && spent + n_moves <= env.config.budget
        then move_order env st plan_moves
        else None
      in
      let applied =
        match order with
        | None -> 0
        | Some moves ->
            List.iter (fun (id, _src, dst) -> Dynamic.move st.session id dst) moves;
            c.repair_moves <- c.repair_moves + n_moves;
            n_moves
      in
      let after = if applied > 0 then network_objective st else before in
      log_event out now
        (Event_log.Protocol_repair
           { moves = n_moves; applied = applied > 0; before; after });
      applied

let repair env st out now to_ =
  let c = st.counters in
  let before = Dynamic.objective st.session in
  let moves = Dynamic.rebalance ~max_moves:env.config.budget st.session in
  c.repairs <- c.repairs + 1;
  c.repair_moves <- c.repair_moves + moves;
  let after = Dynamic.objective st.session in
  log_event out now (Event_log.Repair { moves; budget = env.config.budget; before; after });
  let epoch_moves =
    if to_ = Slo.Critical then moves + protocol_epoch env st out now ~spent:moves
    else moves
  in
  if epoch_moves > c.max_epoch_moves then c.max_epoch_moves <- epoch_moves

(* Admit queued joins, oldest first, while the loop is Healthy and a
   live server has room. *)
let rec drain env st out now =
  if Slo.level st.slo = Slo.Healthy && Dynamic.has_room st.session then
    match Admission.pop st.admission with
    | None -> ()
    | Some (sid, node) ->
        let id = connect st sid node in
        log_event out now
          (Event_log.Drained
             { session = sid; client = id; server = Dynamic.server_of st.session id });
        drain env st out now

(* Stranded orphans are never dropped on the floor: their trace
   sessions re-enter admission control (capacity is gone, so they queue
   under Healthy/Degraded and shed under Critical or a full queue),
   exactly like a fresh arrival that found no room. *)
let requeue_stranded env st out now stranded =
  if stranded <> [] then begin
    let by_id = Hashtbl.create 8 in
    Hashtbl.iter (fun sid id -> Hashtbl.replace by_id id sid) st.sessions;
    List.iter
      (fun (id, node) ->
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some sid -> (
            Hashtbl.remove st.sessions sid;
            match
              Admission.consider st.admission ~max_queue:env.config.max_queue
                ~level:(Slo.level st.slo) ~has_capacity:false ~session:sid ~node
            with
            | Admission.Admit -> ()  (* unreachable: has_capacity is false *)
            | Admission.Queue -> log_event out now (Event_log.Queued { session = sid })
            | Admission.Shed -> log_event out now (Event_log.Shed { session = sid })))
      stranded
  end

(* Apply one trace event to the session; [true] when it changed the
   problem's structure (a crash, recovery or drift), which refreshes
   the lower bound at once. *)
let dispatch env st out now kind =
  let c = st.counters in
  let emit = log_event out now in
  match kind with
  | Trace.Join { session = sid; node } ->
      (match
         Admission.consider st.admission ~max_queue:env.config.max_queue
           ~level:(Slo.level st.slo) ~has_capacity:(Dynamic.has_room st.session)
           ~session:sid ~node
       with
      | Admission.Admit ->
          let id = connect st sid node in
          emit
            (Event_log.Join
               { session = sid; client = id; server = Dynamic.server_of st.session id })
      | Admission.Queue -> emit (Event_log.Queued { session = sid })
      | Admission.Shed -> emit (Event_log.Shed { session = sid }));
      false
  | Trace.Leave { session = sid } ->
      (match Hashtbl.find_opt st.sessions sid with
      | Some value ->
          let id = disconnect st sid value in
          c.leaves <- c.leaves + 1;
          emit (Event_log.Leave { session = sid; client = id })
      | None ->
          (* queued (abandon), shed, or stranded — nothing connected *)
          ignore (Admission.abandon st.admission ~session:sid));
      false
  | Trace.Crash { server } ->
      if
        List.mem server (Dynamic.failed_servers st.session)
        || List.length (Dynamic.active_servers st.session) <= 1
      then begin
        c.crashes_skipped <- c.crashes_skipped + 1;
        emit (Event_log.Crash_skipped { server });
        false
      end
      else begin
        c.crashes <- c.crashes + 1;
        (* The join rule re-homes the orphans; budgeted rebalance and
           protocol epochs only run afterwards if the SLO says the result
           is not good enough. *)
        let { Dynamic.rehomed; stranded } = Dynamic.fail_server st.session server in
        let nstranded = List.length stranded in
        emit (Event_log.Crash { server; migrated = rehomed; stranded = nstranded });
        c.stranded <- c.stranded + nstranded;
        requeue_stranded env st out now stranded;
        true
      end
  | Trace.Recover { server } ->
      if List.mem server (Dynamic.failed_servers st.session) then begin
        Dynamic.recover_server st.session server;
        c.recoveries <- c.recoveries + 1;
        emit (Event_log.Recover { server });
        true
      end
      else false (* its crash was refused or never happened *)
  | Trace.Drift { server; factor } ->
      Dynamic.set_drift st.session ~server ~factor;
      c.drifts <- c.drifts + 1;
      emit (Event_log.Drift { server; factor });
      true

let boundary config i =
  config.checkpoint_every > 0 && (i + 1) mod config.checkpoint_every = 0

(* Advance [st] over trace event [i]: dispatch it, refresh the bound,
   let the SLO repair, drain admission, and log a checkpoint at a
   boundary. Returns what the event added to the history. *)
let step (env : env) st i =
  let c = st.counters and out = { entries = []; trace = []; baseline = [] } in
  let now = env.trace.(i).Trace.time in
  st.now <- now;
  let structural = dispatch env st out now env.trace.(i).Trace.kind in
  c.events_since_lb <- c.events_since_lb + 1;
  if structural || c.events_since_lb >= env.config.lb_every then
    recompute_lb env st out now;
  let r = ratio st (Dynamic.objective st.session) in
  (match Slo.observe st.slo r with
  | None -> ()
  | Some (from_, to_) ->
      log_event out now
        (Event_log.Transition { from_; to_; ratio = r; objective = env.objective_name });
      if level_rank to_ > level_rank from_ then repair env st out now to_);
  drain env st out now;
  if boundary env.config i then begin
    c.checkpoints <- c.checkpoints + 1;
    log_event out now (Event_log.Checkpoint { id = c.checkpoints })
  end;
  commit st out;
  out

(* Journal event [i]'s history before any checkpoint whose cut covers
   it is written — the write-ahead discipline recovery relies on. *)
let journal_event env i out =
  match (env.journal, out) with
  | None, _ | _, { entries = []; trace = []; baseline = [] } -> ()
  | Some w, { entries; trace; baseline } ->
      Journal.append w ~cursor:i
        ~points:
          (Checkpoint.points_text ~trace:(List.rev trace) ~baseline:(List.rev baseline))
        (Event_log.render (List.rev entries))

(* The report of a run whose state has taken its last event. *)
let finish (env : env) st ~prepop_seconds ~loop_seconds : report =
  let c = st.counters and session = st.session and a = st.admission in
  (* A run resumed after its last event still stamps its final refresh
     with the time of that event. *)
  let out = { entries = []; trace = []; baseline = [] } in
  recompute_lb env st out st.now;
  commit st out;
  let final_objective = Dynamic.objective session in
  let resolve_objective = Option.value (resolve env st) ~default:nan in
  let steady_ratio =
    Option.value (quotient final_objective resolve_objective) ~default:1.0
  in
  let ratios =
    List.filter_map
      (fun (_, online, resolve) -> quotient online resolve)
      st.baseline_points
  in
  let n = List.length ratios in
  {
    digest = env.digest;
    events = Array.length env.trace;
    horizon = env.scenario.horizon;
    clients =
      Option.fold st.weighted ~none:(Dynamic.num_clients session)
        ~some:Weighted.sessions;
    weighted = st.weighted <> None;
    delay_model = Option.map Delay.to_string env.scenario.delay;
    coreset_points = Dynamic.num_clients session;
    prepop_seconds;
    loop_seconds;
    live_servers = List.length (Dynamic.active_servers session);
    total_servers = env.scenario.servers;
    final_objective;
    final_lb = st.lb;
    final_ratio = ratio st final_objective;
    resolve_objective;
    steady_ratio;
    budget = env.config.budget;
    max_epoch_moves = c.max_epoch_moves;
    slo_level = Slo.level st.slo;
    admitted = a.admitted;
    queued = a.queued;
    shed = a.shed;
    drained = a.drained;
    abandoned = a.abandoned;
    leaves = c.leaves;
    crashes = c.crashes;
    crashes_skipped = c.crashes_skipped;
    recoveries = c.recoveries;
    drifts = c.drifts;
    stranded = c.stranded;
    promotions = 0;
    promoted_clients = 0;
    fallback_clients = 0;
    standby_refreshes = 0;
    repairs = c.repairs;
    repair_moves = c.repair_moves;
    protocol_epochs = c.protocol_epochs;
    protocol_stalls = 0;
    checkpoints = c.checkpoints;
    session_stats = Dynamic.stats session;
    trace_points = List.rev st.trace_points;
    baseline_points = List.rev st.baseline_points;
    competitive_mean =
      (if n = 0 then nan else List.fold_left ( +. ) 0. ratios /. float_of_int n);
    competitive_max =
      (if n = 0 then nan else List.fold_left Float.max neg_infinity ratios);
    log = List.rev st.log;
  }

let run ?state_dir ?(keep = 3) ?disk ?resume_from ?kill_at_event scenario config =
  validate ~keep ?kill_at_event scenario config;
  let disk = match disk with Some d -> d | None -> Disk.create scenario.fault in
  let env = environment scenario config in
  let st, prepop_seconds =
    match resume_from with None -> fresh env | Some cp -> (resume env cp, 0.)
  in
  (* The journal opens once the state is built, so a refused resume
     leaves the state dir as it found it. *)
  let env =
    { env with journal = Option.map (open_journal ~disk env resume_from) state_dir }
  in
  (* Fold [step] over the rest of the trace; [Some] checkpoint if the
     run is killed. *)
  let rec loop i =
    if i = Array.length env.trace then None
    else begin
      let out = step env st i in
      journal_event env i out;
      (* Materialising the state is O(sessions) — with a million
         weighted sessions it would dwarf the events themselves — so
         only capture when someone consumes it. *)
      if boundary config i then
        Option.iter
          (fun dir ->
            Option.iter Journal.flush env.journal;
            ignore
              (Generation.save ~disk ~dir ~keep
                 (capture env st ~cursor:(i + 1) ~history:false)))
          state_dir;
      if kill_at_event = Some i then Some (capture env st ~cursor:(i + 1) ~history:true)
      else loop (i + 1)
    end
  in
  let loop_start = wall_now () in
  let killed = loop (match resume_from with None -> 0 | Some cp -> cp.cursor) in
  (* The deterministic kill is graceful about the journal: buffered
     records are flushed so the audit has full coverage up to the kill
     point. Losing the buffer to a real SIGKILL is modeled explicitly by
     [jtorn:] plans instead. *)
  Option.iter Journal.close env.journal;
  match killed with
  | Some cp -> Killed cp
  | None ->
      Completed (finish env st ~prepop_seconds ~loop_seconds:(wall_now () -. loop_start))

let render (r : report) =
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

let csv (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b "t,objective,ratio\n";
  List.iter
    (fun (t, obj, ratio) ->
      Buffer.add_string b (Printf.sprintf "%s,%s,%s\n" (fs t) (fs obj) (fs ratio)))
    r.trace_points;
  Buffer.contents b
