(** Admission control: shed or queue joins when capacity or SLO headroom
    is exhausted.

    Unbounded per-event reassignment is the wrong model for online
    assignment (the online facility-assignment literature budgets
    migrations); the same discipline applies at the front door — when
    the system is degraded, new joins must not make the repair problem
    worse. The policy, from most to least constrained:

    - {b Critical} SLO level: joins are {e shed} (brownout — the
      client is turned away and counted);
    - {b Degraded} level, or no live server with spare capacity: joins
      are {e queued} (FIFO, bounded; overflow sheds);
    - {b Healthy} with capacity: joins are admitted, and queued joins
      drain FIFO as capacity allows.

    Every decision is counted, so the soak report can state exactly how
    much traffic the guardrails turned away. A [t] is the layer's whole
    state, the queue and the five counts, and a checkpoint carries it
    verbatim; the queue bound is configuration, passed to {!consider}. *)

type decision = Admit | Queue | Shed

type t = {
  mutable queue : (int * int) list;
      (** [(session, node)], oldest first — kept short (bounded) *)
  mutable admitted : int;
  mutable queued : int;
  mutable shed : int;
  mutable drained : int;  (** queued joins later admitted *)
  mutable abandoned : int;  (** queued joins whose leave arrived first *)
}

val create : unit -> t
(** An empty queue and zero counts. *)

val copy : t -> t

val consider :
  t -> max_queue:int -> level:Slo.level -> has_capacity:bool -> session:int -> node:int ->
  decision
(** Decide one join and update queue/counters accordingly; a join that
    would queue sheds once [max_queue] joins wait. The caller performs
    the actual {!Dia_core.Dynamic.join} on [Admit]. *)

val pop : t -> (int * int) option
(** Dequeue the oldest waiting join (the caller admits it and it counts
    as drained). [None] when the queue is empty. *)

val abandon : t -> session:int -> bool
(** Remove a queued join whose client left before being admitted;
    [true] if it was in the queue. *)

val pending : t -> int
(** Current queue length. *)
