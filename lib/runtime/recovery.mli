(** Crash recovery: land on the newest restorable checkpoint generation,
    rebuild its history from the journal, replay the tail, prove
    bit-identity.

    The soak trace is a pure function of the scenario seed, so {e
    replay is re-execution}: restoring generation [g] and re-running
    from its cursor reproduces the killed run's future exactly. What
    recovery adds is {e verification} — picking the newest generation
    whose checksums and digest hold {e and} whose history cut the
    journal's valid prefix still covers (rolling back over the rest),
    and auditing that the re-execution byte-matches every event-log
    record the killed run had already committed to the journal. A
    rollback to a non-primary generation is recorded as a
    [recovery]-kind {!Event_log} entry in the side-channel file
    [recovery.log] (never the canonical log, which must stay
    bit-identical to the uninterrupted run's). *)

val journal_path : string -> string
(** [state_dir/journal]. *)

val recovery_log_path : string -> string
(** [state_dir/recovery.log] — the rollback side-channel. *)

type restore = {
  generation : (int * Checkpoint.state) option;
      (** the newest restorable generation, its history rebuilt from the
          journal (ready for [Soak.run ~resume_from]), or [None] for a
          fresh restart *)
  skipped : (int * string) list;
      (** newer generations rejected (corrupt, wrong digest, or a
          history cut the journal does not cover — that reason names the
          cut), newest first *)
  journal : Journal.journal option;
      (** the committed journal, when its header survived and its digest
          matches *)
  journal_note : string option;
      (** why the journal is absent or where its tail tore, if so *)
  replayed : int;
      (** committed journal records at or past the restore cursor — the
          tail that re-execution will be audited against *)
}

val restore : dir:string -> digest:string -> restore
(** Scan [dir] and decide where to resume from. Pure inspection apart
    from the side-channel: when the restore had to skip corrupt newer
    generations, a [recovery] entry is appended to {!recovery_log_path}. *)

val restore_for : Soak.scenario -> Soak.config -> dir:string -> restore
(** {!restore} for the scenario's digest that also accepts a generation
    only if {!Soak.resumable} passes on it, history attached. A file
    whose checksums hold can still hold a state the resume refuses (a
    member node outside the scenario's matrix, say); such a generation
    is skipped with the resume's message, and the scan rolls back to an
    older one. *)

val audit :
  journal:Journal.journal ->
  restored:Checkpoint.state option ->
  final_log:Event_log.entry list ->
  (int, string) result
(** Byte-level audit of a completed recovery, given the journal as read
    before resuming: the restored state's log must be a prefix of the
    final log and byte-match the journal records before its cursor, and
    all the journal's records must byte-match the final log from its
    start (the journal begins at event 0 and is only ever truncated at a
    cut). [Ok n] audited [n] committed records; [Error] pinpoints the
    first divergence. *)

type verdict = { ok : bool; lines : string list }

(** The end-to-end harness behind [dia soak --verify-recovery]. *)

val verify :
  ?keep:int ->
  state_dir:string ->
  kill_at_event:int ->
  Soak.scenario ->
  Soak.config ->
  verdict
(** Run the scenario uninterrupted; run it again into [state_dir] with
    the plan's disk faults live and a kill after event [kill_at_event];
    {!restore}; resume into the same [state_dir] (fault-free); then
    check that the recovered report and event log are bit-identical to
    the uninterrupted run, that the journal {!audit} passes, and that
    the continued journal's log payloads are exactly the final log.
    [lines] is the human-readable transcript.

    @raise Invalid_argument on what {!Soak.validate} refuses, before
    any run. *)
