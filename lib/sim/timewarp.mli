(** TimeWarp: optimistic execution with rollback repair.

    The paper's pessimistic synchronisation (Section II) delays every
    execution by [delta >= D(A)] so that no operation ever arrives after
    its execution time. Its Section II-E notes the alternative for when
    that guarantee is broken (jitter, or an aggressive [delta]):
    optimistic mechanisms such as TimeWarp execute operations on arrival
    and {e repair} the state when a straggler — an operation with an
    earlier execution timestamp — arrives late, by rolling the state back
    and replaying in timestamp order.

    This container applies operations in arrival order, keeps periodic
    state snapshots, and on a straggler rolls back to the newest snapshot
    preceding the insertion point and replays. Repair statistics (number
    of rollbacks, replayed operations, maximum rollback depth) quantify
    the "artifacts" the paper warns about: each rollback is a visible
    state correction to any connected client. *)

type t

val create : ?snapshot_every:int -> clients:int -> unit -> t
(** Fresh instance over an empty {!State}. [snapshot_every] (default 32)
    is the checkpoint interval in applied operations.

    @raise Invalid_argument if [snapshot_every <= 0]. *)

val execute : t -> timestamp:float -> Workload.op -> int
(** Apply an operation with its execution timestamp (ties broken by
    operation id). In-order arrivals execute directly and return 0;
    stragglers trigger a rollback and return its depth (the number of
    already-executed operations that had to be undone). *)

val state : t -> State.t
(** Current (repaired) state: always equals applying all executed
    operations in timestamp order. *)

val rollbacks : t -> int
val replayed : t -> int
(** Total operations re-applied during repairs. *)

val max_rollback_depth : t -> int
