(** The append-only write-ahead journal: the run's history.

    A journal records, per trace-event cursor, what that event added to
    the history: the {!Event_log} lines it appended and the trace and
    baseline points it sampled. It is the only durable copy of that
    history — a checkpoint holds live state plus the {!cut} its history
    ends at — so recovery rebuilds a restored checkpoint's history from
    the journal prefix before its cut, and {e audits} the deterministic
    re-execution of the tail byte-for-byte ({!Recovery.audit}).

    {b Format} (text-framed, binary-safe payloads):
    {v
    dia-soak-journal v2
    digest=<scenario/config digest>
    rec cursor=<i> len=<n> pts=<p> crc=<crc32 of the n body bytes, 8 hex>
    <n body bytes: log lines, then p bytes of point lines>\n
    ...
    v}

    {b Durability model.} Appends are buffered and flushed to the OS in
    batches ([flush_every] records, plus every explicit {!flush} and
    {!close}); no fsync is issued. A crash can therefore lose or tear
    the {e last flushed chunk and everything after it} — never a prefix
    — and the reader treats the first invalid byte as the end of the
    committed journal ({!journal.torn}). A checkpoint whose cut lies
    past a tear has lost its history, so recovery falls back to an older
    generation or a scratch re-execution: a tear costs time, never
    correctness. *)

type cut = {
  records : int;  (** records before the cut *)
  bytes : int;  (** file bytes before the cut, header included *)
  crc : int;  (** CRC-32 of those bytes *)
}
(** A journal position, pinned by the CRC of everything before it. *)

(** {2 Writing} *)

type writer

val create :
  ?disk:Disk.t -> ?flush_every:int -> path:string -> digest:string -> unit -> writer
(** Create (truncate) the journal at [path] and write its header —
    which is the first flush, so a [jtorn:1@B] plan tears it.
    [flush_every] batches that many records per flush (default 32).

    @raise Invalid_argument if [flush_every < 1]. *)

val reopen :
  ?disk:Disk.t -> ?flush_every:int -> path:string -> digest:string -> cut -> writer
(** Continue the journal at [path] from [cut], truncating whatever
    followed it (the tail of the run being replaced), so one journal
    holds the whole history across kill/resume cycles.

    @raise Invalid_argument if the file is unreadable, carries another
    digest, or its first [cut.bytes] bytes do not have [cut.crc]. *)

val append : writer -> cursor:int -> ?points:Buffer.t -> Buffer.t -> unit
(** Append one record: the rendered log lines event [cursor] produced,
    then its [points] lines (default none). Both are copied out of the
    caller's buffers, which the caller may clear and reuse at once.
    Buffered; the running CRC is folded over the buffered records at the
    next {!flush} or {!position}.

    @raise Invalid_argument on a closed writer or a negative cursor. *)

val flush : writer -> unit
(** Flush buffered records through the injector to the OS. *)

val position : writer -> cut
(** The cut just past everything appended so far, buffered records
    included. *)

val close : writer -> unit
(** Flush and close. Idempotent. *)

(** {2 Reading} *)

type record = {
  cursor : int;
  payload : string;  (** the event's log lines *)
  points : string;  (** the event's trace/baseline point lines *)
  upto : cut;  (** the position just past this record *)
}

type journal = {
  digest : string;
  header : cut;  (** the position just past the header *)
  records : record list;  (** the valid prefix, in append order *)
  torn : string option;
      (** why reading stopped early ([None] = clean end of file); the
          records before the tear are still good *)
}

val parse : string -> (journal, string) result
(** Parse journal bytes. A torn or corrupt {e record} — including one
    whose length runs past the end of the input — ends parsing with the
    valid prefix (see [torn]); an unreadable {e header} is an [Error].
    Never raises. *)

val read : string -> (journal, string) result
(** {!parse} the file at a path; a missing file is an [Error]. *)

val prefix : journal -> cut -> record list option
(** The records before [cut], if the valid prefix reaches it exactly;
    [None] if the journal was torn before it or holds another history. *)
