(** Deterministic, seeded fault injection for the simulated {!Network}.

    A {e plan} is a composable, declarative description of how a network
    misbehaves: per-link message loss and duplication, latency spikes,
    time-windowed partitions, and server crash/recover schedules. A plan
    is pure data; {!instantiate} pairs it with an explicit PRNG seed,
    producing a fault {e state} whose decisions are a deterministic
    function of the seed and the query sequence — so every faulty
    simulation run is exactly replayable.

    The {!Network} consults {!decide} once per transmission and
    {!down} at both send and delivery time; protocols never see the
    fault state directly, only its consequences (silence, duplicates,
    delay). *)

type action =
  | Deliver  (** deliver normally after the (jittered) latency *)
  | Drop  (** the message vanishes *)
  | Duplicate of int  (** deliver [1 + n] independent copies *)
  | Delay of float  (** deliver after an extra latency spike (ms) *)

type plan
(** A composable fault description. Pure data, no randomness yet. *)

val reliable : plan
(** The empty plan: every message is delivered, nothing crashes. *)

val loss : ?src:int -> ?dst:int -> rate:float -> unit -> plan
(** Each matching transmission is dropped with probability [rate].
    [src]/[dst] restrict the rule to one endpoint (omitted = any);
    giving both restricts it to a single directed link.

    @raise Invalid_argument if [rate] is outside [0, 1]. *)

val duplication : ?src:int -> ?dst:int -> ?copies:int -> rate:float -> unit -> plan
(** Each matching transmission is duplicated ([copies] extra deliveries,
    default 1) with probability [rate].

    @raise Invalid_argument if [rate] is outside [0, 1] or [copies < 1]. *)

val spike : ?src:int -> ?dst:int -> rate:float -> extra:float -> unit -> plan
(** Each matching transmission suffers an [extra]-ms latency spike with
    probability [rate]. Spikes from several matching rules accumulate.

    @raise Invalid_argument if [rate] is outside [0, 1] or [extra] is
    negative or not finite. *)

val partition : at:float -> until:float -> side:int list -> plan
(** During the window [\[at, until)], every message crossing the cut
    between the actors in [side] and everyone else is dropped — a clean
    network partition that heals at [until].

    @raise Invalid_argument if the window is empty or malformed. *)

val crash : ?recover_at:float -> at:float -> int -> plan
(** [crash actor ~at] takes the actor down from time [at] on — it
    neither sends nor receives; in-flight messages addressed to it are
    lost. With [recover_at] it comes back up at that time (its protocol
    state is whatever the protocol kept for it).

    @raise Invalid_argument if [at] is negative or [recover_at <= at]. *)

(** {2 Storage faults}

    These rules target the {e durable-state write path} — the journal
    appends and checkpoint-generation writes performed by the runtime's
    recovery layer ({!Dia_runtime.Disk} interprets them) — never the
    message plane. Each rule names a 1-based {e write-op index} on its
    target stream: checkpoint writes and journal flushes are counted
    separately, and the rule fires when its stream's counter reaches
    [op]. Targeting by operation count (not by time or probability)
    makes every disk-faulted run trivially replay-identical, and the
    rules consume no randomness, so adding a disk atom to a plan never
    perturbs the network decision stream of {!decide}. *)

val torn_write : op:int -> at:int -> plan
(** The [op]-th checkpoint write is torn: only the first [at] bytes
    reach the file (the rename still lands — a classic partial write).

    @raise Invalid_argument if [op < 1] or [at < 0]. *)

val bit_flip : op:int -> at:int -> plan
(** The [op]-th checkpoint write lands with the low bit of the byte at
    offset [at] flipped (no-op if the file is shorter).

    @raise Invalid_argument if [op < 1] or [at < 0]. *)

val fsync_loss : op:int -> at:int -> plan
(** The [op]-th checkpoint write loses its suffix: the rename lands but
    every byte past offset [at] never reaches the platter — the
    lost-fsync failure mode of a rename without a preceding data sync.

    @raise Invalid_argument if [op < 1] or [at < 0]. *)

val rename_crash : op:int -> plan
(** The [op]-th checkpoint write crashes inside the rename window: the
    temp file is fully written but the destination never appears.

    @raise Invalid_argument if [op < 1]. *)

val journal_torn : op:int -> at:int -> plan
(** The [op]-th journal flush is torn after its first [at] bytes and the
    journal device is wedged from then on (later flushes are lost) — the
    canonical crashed-mid-append tail.

    @raise Invalid_argument if [op < 1] or [at < 0]. *)

(** The storage rules of a plan as concrete data — read by the runtime's
    write-path injector the way {!crash_schedule} is read by membership
    supervisors. *)
type disk_rule =
  | Torn_write of { op : int; at : int }
  | Bit_flip of { op : int; at : int }
  | Lost_fsync of { op : int; at : int }
  | Crashed_rename of { op : int }
  | Torn_journal of { op : int; at : int }

val disk_schedule : plan -> disk_rule list
(** The plan's storage rules, in rule order. *)

val all : plan list -> plan
(** Compose plans. Rules apply in order; the first [Drop] wins, then
    duplication, then accumulated delay (a dropped message is never also
    duplicated or delayed). *)

val equal : plan -> plan -> bool
(** Structural equality of the rule lists (order-sensitive). *)

val crash_schedule : plan -> (int * float * float option) list
(** The plan's crash rules as [(actor, at, recover_at)] triples, in rule
    order — read by control-plane supervisors that must mirror the
    membership consequences of the schedule without re-deciding message
    fates. *)

(** {2 The fault mini-DSL}

    Plans round-trip through a compact textual form, one rule per
    ['+']-separated atom:

    {v
    loss:R[@S>D]          drop with probability R (S/D: id or '*')
    dup:R[xN][@S>D]       duplicate (N extra copies) with probability R
    spike:R~E[@S>D]       add E ms of latency with probability R
    part:AT~UNTIL@A,B,C   partition actors {A,B,C} from the rest
    crash:ACTOR@AT[~REC]  crash ACTOR at AT, recovering at REC
    torn:OP@B             OP-th checkpoint write truncated at byte B
    flip:OP@B             OP-th checkpoint write, bit flip at byte B
    fsync:OP@B            OP-th checkpoint write loses bytes past B
    rename:OP             OP-th checkpoint write crashes in the rename
    jtorn:OP@B            OP-th journal flush torn at byte B, then wedged
    v}

    e.g. ["loss:0.15+crash:3@2.0~5.0"]. The empty spec, ["reliable"] and
    ["none"] all denote {!reliable}. *)

val to_string : plan -> string
(** Canonical DSL rendering. Floats are printed with the shortest format
    that parses back to the identical double, so
    [of_string (to_string p)] always reconstructs exactly [p]. *)

val pp_plan : Format.formatter -> plan -> unit
(** {!to_string}, as a formatter. *)

val of_string : string -> (plan, string) result
(** Parse the DSL. All the smart-constructor validations apply ([rate]
    ranges, window ordering, ...); violations come back as [Error]
    messages, never exceptions. Parsing is strict: empty atoms (stray
    ['+']), empty partition-side entries (doubled or trailing commas)
    and any trailing garbage inside an atom are rejected, and the error
    names the offending token with its atom number and character
    position — malformed input is never silently ignored. *)

type t
(** An instantiated plan: rules plus a private PRNG state. *)

val instantiate : ?seed:int -> plan -> t
(** Bind a plan to a PRNG seed (default 0). Two states built from the
    same plan and seed answer identical query sequences identically. *)

val decide : t -> now:float -> src:int -> dst:int -> action
(** The fate of one transmission from [src] to [dst] at time [now].
    Consumes randomness; call exactly once per transmission. *)

val down : t -> now:float -> int -> bool
(** Whether the actor is crashed at time [now], per the plan's crash
    schedules. Pure; consumes no randomness. *)
