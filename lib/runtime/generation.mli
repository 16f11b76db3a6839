(** Checkpoint generations: a bounded history of [ckpt.N] files.

    A single checkpoint file is a single point of failure — the torn
    write that corrupts it takes the whole recovery story with it.
    Generations keep the last [keep] checkpoints under distinct,
    monotonically numbered names ([ckpt.1], [ckpt.2], …), each written
    atomically (through the {!Disk} injector, so storage-fault plans
    apply); recovery scans from the newest down and restores the first
    one that verifies ({!newest_verifying}) — falling back over corrupt
    generations instead of failing. An older generation only means a
    longer journal suffix to replay; it never costs correctness. *)

val path : dir:string -> int -> string
(** The on-disk path of generation [n]. *)

val list : dir:string -> int list
(** Generation numbers present in [dir], ascending. A missing directory
    is just empty. *)

val latest : dir:string -> int option
(** The newest generation number present, if any. *)

val ensure_dir : string -> unit
(** Create the state directory if it does not exist yet (single level).

    @raise Invalid_argument naming [dir] if it is not a directory and
    cannot be created as one (a file in the way, a parent that is not
    a directory, no permission). *)

val save : ?disk:Disk.t -> dir:string -> keep:int -> Checkpoint.state -> int
(** Write the state as the next generation (creating [dir] if needed)
    and prune generations older than the [keep] most recent. Returns the
    new generation number. With [disk], the write goes through the fault
    injector — the produced file may be corrupt or absent by design.

    @raise Invalid_argument if [keep < 1]. *)

val newest_verifying :
  ?accept:(Checkpoint.state -> (Checkpoint.state, string) result) ->
  dir:string ->
  digest:string ->
  unit ->
  (int * Checkpoint.state) option * (int * string) list
(** Scan generations newest-first for one that fully verifies, matches
    the scenario [digest] and passes [accept] (default: every state),
    returning [accept]'s state; an [Error] from [accept] is the
    generation's skip reason. Returns that generation (or [None] when
    none qualifies) and the skipped newer generations with the reason
    each was rejected, newest first. Files are only read: a generation
    written by a newer format version is skipped, never touched. *)
