(** The control plane's structured event log.

    One record per state transition the supervisor performs —
    join/queue/drain/shed, leave, crash (with migration and stranding
    counts), recovery, drift, SLO transitions, budgeted repairs,
    protocol-level repair epochs, checkpoints. The log is:

    - {b replayable}: every record round-trips through its one-line
      textual form exactly ({!of_line} ∘ {!to_line} is the identity),
      so a post-mortem can be driven from the file alone;
    - {b part of the determinism contract}: the log accumulated by a
      killed-and-resumed run must be bit-identical to the uninterrupted
      run's, which is enforced by the soak tests. *)

type kind =
  | Join of { session : int; client : int; server : int }
  | Queued of { session : int }
  | Drained of { session : int; client : int; server : int }
  | Shed of { session : int }
  | Leave of { session : int; client : int }
  | Crash of { server : int; migrated : int; stranded : int }
      (** [migrated] orphans re-homed by the join rule, [stranded]
          found no room anywhere *)
  | Crash_skipped of { server : int }
      (** the schedule asked to crash the last live server; the
          supervisor refuses total outage and records the refusal *)
  | Recover of { server : int }
  | Drift of { server : int; factor : float }
  | Transition of {
      from_ : Slo.level;
      to_ : Slo.level;
      ratio : float;
      objective : string;
          (** which objective drove the transition: ["d"] (pure network
              [D/LB]) or ["d_load"] (load-aware [D_load/LB_load], when
              the scenario carries a delay model). Logs written before
              this field existed parse as ["d"]. *)
    }
  | Repair of { moves : int; budget : int; before : float; after : float }
  | Protocol_repair of {
      moves : int;  (** assignment changes the Distributed-Greedy plan implies *)
      applied : bool;
          (** false when the plan did not strictly improve [D], exceeded
              the epoch's remaining move budget, or had no
              capacity-feasible move order *)
      before : float;
          (** [D(A)] when the epoch started — the network objective the
              plan is judged on, also under a delay model *)
      after : float;  (** [D(A)] when it ended — [before] unless applied *)
    }
  | Checkpoint of { id : int }
  | Recovery of { generation : int; skipped : int; replayed : int }
      (** a restore landed on checkpoint generation [generation] after
          skipping [skipped] newer corrupt generations, with [replayed]
          committed journal records covering the tail. Written to the
          recovery side-channel log (never the canonical soak log, whose
          bytes must stay identical to the uninterrupted run's) — a
          non-primary restore is an operator-visible event, not part of
          the replayed history. *)

type entry = { time : float; kind : kind }

val add_line : Buffer.t -> entry -> unit
(** Append the entry's one-line textual form and its newline to the
    buffer: the one writer {!to_line}, {!render} and the journal share.
    Integers and floats go in through {!Codec.add_int} and
    {!Codec.add_float}, with no intermediate string per field. *)

val to_line : entry -> string
(** The entry's line, without the newline. *)

val of_line : string -> (entry, string) result

val render : entry list -> string
(** All entries, one line each, newline-terminated. *)

val save : string -> entry list -> unit
(** Write {!render} output to a file. *)

val load : string -> (entry list, string) result
(** Parse a saved log; blank lines ignored. *)
