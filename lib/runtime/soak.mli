(** The self-healing control plane: an SLO-guarded supervisor driving a
    {!Dia_core.Dynamic} session through a chaos trace.

    A soak run replays a deterministic merged event stream ({!Trace}) —
    Poisson churn, latency drift, crash/recover schedules lifted from a
    {!Dia_sim.Fault} plan — against a live assignment session, while the
    control loop enforces the service-level objective:

    - every event updates the {!Slo} monitor with the current
      [D(A) / LB] ratio (the lower bound is recomputed every [lb_every]
      events and eagerly after structural changes: crash, recovery,
      drift);
    - a crash is repaired by {!Dia_core.Dynamic.fail_server}: each
      orphan is re-homed by the join rule ([Crash] in the log), and the
      usual SLO escalations apply afterwards. Stranded orphans re-enter
      admission control (queued or shed, never silently dropped);
    - an escalation to {b Degraded} triggers a bounded repair:
      [Dynamic.rebalance ~max_moves:budget];
    - an escalation to {b Critical} additionally runs a
      protocol-level repair epoch: the paper's Distributed-Greedy
      ({!Dia_core.Distributed_greedy.run}) over the surviving servers,
      computed centrally. Its plan is applied move-by-move only if it
      strictly improves [D(A)], fits the remaining epoch budget and has
      a capacity-feasible move order; otherwise it is logged with
      [applied = false];
    - joins pass {!Admission} control: shed under Critical, queued under
      Degraded or when capacity is exhausted, drained FIFO when Healthy;
    - a crash of the last live server is refused and logged
      ([Crash_skipped]) — the control plane never self-inflicts total
      outage;
    - every [checkpoint_every] events a checkpoint is logged and (with a
      state dir) the live controller state is written as the next
      checkpoint generation.

    {b Determinism contract.} The trace is pre-materialised from the
    scenario seed, repair epochs draw no randomness, and every iteration
    order is sorted — so a run killed at any
    event and resumed produces a report and event log bit-identical to
    the uninterrupted run ([render] output and {!Event_log.render}
    output match byte for byte). *)

type scenario = {
  seed : int;
  nodes : int;  (** network size (an Internet-like synthetic matrix) *)
  servers : int;  (** number of servers, placed on distinct random nodes *)
  capacity : int option;  (** per-server capacity, [None] = uncapacitated *)
  horizon : float;  (** trace length in trace-time units *)
  join_rate : float;  (** Poisson arrival rate; finite and positive *)
  mean_lifetime : float;  (** mean exponential session lifetime; finite and positive *)
  drift_period : float;  (** drift step period, finite; [<= 0] disables drift *)
  drift_amplitude : float;  (** drift factor spread, in [\[0, 1\]] (so not NaN) *)
  fault : Dia_sim.Fault.plan;
      (** crash rules feed the membership layer and disk rules the
          durability layer; network rules (loss, duplication, spikes,
          partitions) are part of the digest but act on nothing, since
          repair epochs exchange no simulated messages *)
  clients : int;
      (** sessions pre-populated before the trace starts (uniform random
          nodes from the scenario seed); they bypass admission and the
          event log, and the trace never disconnects them — the steady
          base load for million-client runs *)
  coreset_eps : float option;
      (** weighted mode: bucket sessions through a
          {!Dia_coreset.Weighted} layer at this resolution, so the
          Dynamic only sees one member per occupied coreset cell and
          steady-state per-event cost is independent of the session
          count. Requires [capacity = None]. [Some 0.] still dedups
          co-located sessions exactly. *)
  delay : Dia_core.Delay.t option;
      (** load-latency model: the session places and repairs against the
          load-aware [D_load] objective, the SLO watches
          [D_load / LB_load], and every [Transition] log entry records
          ["d_load"] as its driving objective. Requires classic mode
          ([coreset_eps = None] — coreset buckets hide the true
          per-server load). [None] runs the session under
          {!Dia_core.Delay.zero}, the paper's network objective, and
          tags transitions ["d"]; the protocol-repair epoch judges its
          plan on the network [D] either way. *)
}

val default_scenario : scenario
(** 120 nodes, 8 servers, uncapacitated, horizon 300 at one join per
    unit time (mean lifetime 80), drift every 20 units at ±30%, fault
    plan [loss:0.1+crash:2@60~180]; no pre-population, classic
    (unweighted) mode, no delay model. *)

type config = {
  slo : Slo.config;
  budget : int;  (** max migrations per repair epoch *)
  max_queue : int;  (** admission queue bound *)
  lb_every : int;  (** events between periodic lower-bound refreshes *)
  checkpoint_every : int;  (** events between checkpoints; [0] disables *)
  offline_baseline : bool;
      (** sample an offline Greedy re-solve at every lower-bound refresh
          — the baseline stream for the competitive-ratio harness. The
          re-solve is memoised on {!Dynamic.problem_version}: it is a
          pure function of the survivor problem (client nodes, drifted
          matrix, live servers — capacity and the delay model are fixed
          for the run, and Greedy is deterministic), and equal versions
          mean an equal problem, so a refresh after only shed or queued
          joins or repairs reuses the last value bit for bit. The memo is not checkpointed; a resumed run starts it
          empty. *)
}

val default_config : config
(** [Slo.default_config], budget 8, queue 64, LB every 10 events,
    checkpoint every 100, offline baseline off. *)

val validate : ?keep:int -> ?kill_at_event:int -> scenario -> config -> unit
(** The checks {!run} makes before it touches anything, for callers that
    must refuse bad input before they read a state dir.

    @raise Invalid_argument naming the first invalid value: a NaN or
    infinite rate, lifetime or drift parameter included, [keep < 1], or
    a negative [kill_at_event]. *)

val digest : scenario -> config -> string
(** Hex digest of the canonical rendering of both records — stamped into
    checkpoints so a resume under a different configuration is refused. *)

(** Everything the run observed, plus the guardrail numbers the
    acceptance criteria read: [steady_ratio] (final [D(A)] over a fresh
    Greedy re-solve on the surviving servers) and [max_epoch_moves]
    (never exceeds [budget]). *)
type report = {
  digest : string;
  events : int;
  horizon : float;
  clients : int;  (** sessions connected at the end (weighted included) *)
  weighted : bool;  (** ran through a coreset bucket layer *)
  delay_model : string option;
      (** the scenario's delay model as a spec string; when present,
          [final_objective], [final_lb], [resolve_objective] and every
          ratio are load-aware ([D_load] / [LB_load]) *)
  coreset_points : int;
      (** members of the underlying Dynamic — equals [clients] in
          classic mode, occupied coreset cells in weighted mode *)
  prepop_seconds : float;  (** wall clock spent pre-populating (0 on resume) *)
  loop_seconds : float;  (** wall clock spent in this process's event loop *)
  live_servers : int;
  total_servers : int;
  final_objective : float;
  final_lb : float;
  final_ratio : float;  (** [final_objective /. final_lb] *)
  resolve_objective : float;
      (** fresh {!Dia_core.Greedy} re-solve on surviving servers *)
  steady_ratio : float;  (** [final_objective /. resolve_objective] *)
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
      (** these four are always 0: crashes are repaired by greedy
          re-homing alone; kept so report consumers keep their fields *)
  repairs : int;
  repair_moves : int;
  protocol_epochs : int;
  protocol_stalls : int;
      (** always 0: repair epochs compute their plan centrally and
          cannot stall; kept so report consumers keep their field *)
  checkpoints : int;
  session_stats : Dia_core.Dynamic.stats;
  trace_points : (float * float * float) list;
      (** (time, objective, ratio) at every lower-bound refresh *)
  baseline_points : (float * float * float) list;
      (** (time, online objective, offline re-solve) at every refresh;
          empty unless [offline_baseline] was on *)
  competitive_mean : float;
      (** mean online/offline ratio over [baseline_points] (nan if none) *)
  competitive_max : float;
      (** worst online/offline ratio — the empirical competitive ratio *)
  log : Event_log.entry list;
}

type outcome =
  | Completed of report
  | Killed of Checkpoint.state
      (** the run stopped right after event [kill_at_event] — the
          deterministic stand-in for [kill -9];
          the state carries its history, so resuming from it finishes
          the run *)

val run :
  ?state_dir:string ->
  ?keep:int ->
  ?disk:Disk.t ->
  ?resume_from:Checkpoint.state ->
  ?kill_at_event:int ->
  scenario ->
  config ->
  outcome
(** Execute (or continue) a soak run. [resume_from] continues from a
    state whose digest matches and which carries its history (a
    {!Killed} state or a {!Recovery.restore}d one, not a bare decoded
    file).

    {b Durable recovery.} [state_dir] turns on the durability layer: a
    write-ahead {!Journal} holding the run's history (each event's log
    lines and sampled points, appended {e before} any checkpoint whose
    cut covers them) plus numbered {!Generation} checkpoints of the live
    state at every boundary, keeping the last [keep] (default 3). With
    [resume_from], the journal is continued from the state's cut
    ({!Journal.reopen}). Both streams are written through
    [disk] — by default an injector interpreting the scenario fault
    plan's disk rules, so storage-fault atoms in [scenario.fault]
    corrupt exactly the writes they name. [kill_at_event i] stops the
    run right after processing trace event [i] — {e any} event index,
    not just a checkpoint boundary — with the captured state; combined
    with {!Recovery.restore} this is the kill/resume path tests and CI
    drive deterministically.
    The scenario digest is unchanged by any of these options.

    @raise Invalid_argument on what {!validate} refuses, a digest
    mismatch on resume, or a [resume_from] without its history, whose
    cursor lies past the trace, or whose cut [state_dir]'s journal
    lacks. *)

val resumable : scenario -> config -> Checkpoint.state -> (unit, string) result
(** [resumable scenario config st] trial-runs the resume {!run}
    [~resume_from:st] would start with — digest, history, cursor, and
    the session, SLO and admission state rebuilt over the scenario's
    matrix — and runs no event. [Error] carries the message {!run}
    would raise. Applied to a scenario and config alone it builds their
    trace and placement once, for every state it then checks.
    {!Recovery.restore_for} lands only on a generation it passes. *)

val render : report -> string
(** Deterministic human-readable report. Two runs are considered
    bit-identical when their [render] outputs and
    {!Event_log.render}ed logs are equal byte-for-byte — floats are
    printed with {!Codec.float_str}, so this is an exact comparison.
    (Timing fields are deliberately not rendered.) *)

val csv : report -> string
(** The objective trace as CSV — header [t,objective,ratio], one row per
    lower-bound refresh, floats via {!Codec.float_str}. Deterministic
    for the same reasons as {!render}. *)
