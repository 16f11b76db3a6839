(** Versioned, deterministic on-disk snapshots of the controller's
    {e live} state.

    A checkpoint captures everything the soak loop needs to continue as
    if it had never stopped: the trace cursor (the event stream is a
    pure function of the scenario, so a single integer is the whole
    stream position), the assignment session's {!Dia_core.Dynamic.image},
    the session↔client mapping, the SLO state machine, the
    {!Admission.t}, and the repair bookkeeping.

    {b History lives in the journal.} The event log and the trace and
    baseline samples grow with run length, so the file holds only their
    lengths (in the counters) and the [history] cut: the {!Journal}
    position, with its CRC, where they end. {!with_history} re-attaches
    them from the journal, which is what {!Recovery.restore} does; a
    generation save costs O(live state) however long the run has been.

    The format (v5) is line-oriented text; floats go through
    {!Codec.float_str}, which round-trips exactly. The scalar block and
    each list section (member, session, drift, queue) get a
    [crc=SECTION:HEX] line — even when empty, so wholesale deletion is
    detected — and the file must end with exactly the [end] marker. A
    scenario digest guards against resuming under another
    configuration. Only v5 decodes: every checkpoint on disk is written
    by this repository, and an older file is refused by its header.

    {b Hardening.} {!decode} never raises and never yields a partial
    state: any corrupted, truncated or garbage input — including every
    single-bit flip and every proper truncation of a file, which the
    qcheck mutation fuzzer pins — comes back as [Error] naming the
    failing section and, where one exists, the line position. *)

val version : int

(** The controller's counters; the soak loop mutates its own {!copy}. *)
type counters = {
  mutable leaves : int;
  mutable crashes : int;
  mutable crashes_skipped : int;
  mutable recoveries : int;
  mutable drifts : int;
  mutable stranded : int;
  mutable repairs : int;
  mutable repair_moves : int;
  mutable max_epoch_moves : int;
  mutable protocol_epochs : int;
  mutable events_since_lb : int;
  mutable checkpoints : int;
  mutable entries : int;  (** history length: event-log entries *)
  mutable traces : int;  (** history length: objective-trace points *)
  mutable baselines : int;  (** history length: offline-baseline points *)
}

val counters : unit -> counters
(** All zero. *)

val copy : counters -> counters

type state = {
  digest : string;  (** hex digest of the scenario/config, from the soak *)
  cursor : int;  (** next trace event index *)
  now : float;  (** trace time of the last processed event *)
  lb : float;  (** last computed lower bound *)
  session : Dia_core.Dynamic.image;  (** the assignment session *)
  sessions : (int * int) list;  (** trace session -> live client id *)
  slo : string;  (** {!Slo.encode} *)
  admission : Admission.t;  (** the admission queue and counts *)
  counters : counters;
  history : Journal.cut;  (** the journal position just before event [cursor] *)
  trace_points : (float * float * float) list;
      (** (time, objective, ratio), oldest first *)
  baseline_points : (float * float * float) list;
      (** (time, online objective, offline re-solve objective) samples
          for the competitive-ratio harness, oldest first *)
  log : Event_log.entry list;  (** oldest first *)
}
(** One persisted value per layer. [admission] and [counters] are
    mutable: a state is never shared with a live run (the soak copies
    them in and out). The last three fields are the history: never
    encoded. *)

val encode : state -> string

val decode : string -> (state, string) result
(** [decode (encode s)] is [Ok s] with the history lists empty. Every
    section is verified against its [crc=] line before any field is
    trusted. A file whose sections verify is still refused, naming the
    line, when it holds what [encode] never writes and a resume could
    not use: an unknown or repeated scalar key, a negative integer
    field, a capacity of 0, a non-finite [now], an SLO state
    {!Slo.decode} refuses, or a repeated session id (ids themselves may
    be negative). Never raises. *)

val add_points :
  Buffer.t ->
  trace:(float * float * float) list ->
  baseline:(float * float * float) list ->
  unit
(** Append an event's sampled points, as {!Journal.append}'s [~points]
    carries them: one [trace=] then one [baseline=] line per point, each
    float in {!Codec.add_hex}'s exact notation. *)

val has_history : state -> bool
(** Whether the state's history lists have the lengths its counters
    record — false for a bare decoded state of a run that had already
    logged something. *)

val with_history : state -> Journal.record list -> (state, string) result
(** Attach the history carried by [records] (the journal records before
    the state's cut, {!Journal.prefix}); [Error] if one does not parse or
    the lengths disagree with the counters. Never raises. *)
