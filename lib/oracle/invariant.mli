(** Executable statements of the paper's theorems.

    Each check returns [Ok ()] or [Error message] with the numbers that
    violated it, so the harness can aggregate failures without raising.
    These are the {e relations} the unit suites never exercise: validity
    and capacity feasibility of every assignment, domination of the
    super-optimal lower bound [LB] (Section V), the 3-approximation
    bounds of Nearest-Server and Longest-First-Batch on metric instances
    (Section IV), tightness of the synchronized-clock construction
    (Section II-C), and invariance of the objective under relabeling and
    uniform scaling of the latency matrix. *)

type check = (unit, string) result

val failures : (string * check) list -> string list
(** Keep the failing checks, each rendered as ["name: message"]. *)

val eps : float
(** Comparison slack ([1e-6]) for checks whose two sides are computed by
    different float expressions. Checks whose two sides are the same
    expression on permuted data compare exactly. *)

(** {2 Value-level theorems} *)

val assignment_valid :
  ?require_capacity:bool ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  check
(** Right client count, every client on an in-range server and — unless
    [require_capacity] is [false] — no server over capacity. *)

val dominates_lb : lb:float -> label:string -> float -> check
(** [D(A) >= LB] — the bound of Section V holds for every algorithm. *)

val at_least_opt : opt:float -> label:string -> float -> check
(** [D(A) >= OPT]: no heuristic beats the exact branch-and-bound
    optimum. *)

val within_ratio : ratio:float -> opt:float -> label:string -> float -> check
(** [D(A) <= ratio * OPT] — the approximation guarantee (only valid on
    metric instances). *)

val no_worse : label:string -> than:string -> float -> float -> check
(** [no_worse ~label ~than a b] checks [a <= b + eps] — the paper's
    per-instance dominance relations (e.g. LFB never worse than
    Nearest-Server). *)

val lb_at_most_opt : lb:float -> opt:float -> check
(** The lower bound never exceeds the optimum ("super-optimal"). *)

(** {2 Clock construction (Section II-C)} *)

val clock_tight : Dia_core.Problem.t -> Dia_core.Assignment.t -> check
(** The synthesized clock is feasible, constraint (i) is exactly tight,
    and the uniform interaction time equals [delta = D(A)]. *)

(** {2 Metamorphic transforms and their invariants} *)

type relabeling = {
  problem : Dia_core.Problem.t;  (** same instance, indices permuted *)
  client_perm : int array;  (** new client index of old client [c] *)
  server_perm : int array;  (** new server index of old server [s] *)
}

val relabel : seed:int -> Dia_core.Problem.t -> relabeling
(** Apply a seed-derived random permutation to the client and server
    index spaces (the latency matrix and node ids are untouched —
    only the order algorithms see them in changes). *)

val scale : Dia_core.Problem.t -> factor:float -> Dia_core.Problem.t
(** Multiply every latency by [factor] (> 0). *)

val evaluator_relabel_invariant :
  seed:int -> Dia_core.Problem.t -> Dia_core.Assignment.t -> check
(** [D] and [LB] are exactly unchanged under {!relabel} — the objective
    is a function of the distance multiset, not of index order. *)

val evaluator_scale_invariant :
  Dia_core.Problem.t -> Dia_core.Assignment.t -> check
(** [D(scale p 2) = 2 * D(p)] and [LB(scale p 2) = 2 * LB(p)], exactly
    (doubling is exact in binary floating point). *)

(** {2 Load-aware objective (lib/core/delay)} *)

val load_dominates :
  delay:Dia_core.Delay.t ->
  label:string ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  check
(** [D_load(A) >= D(A)], exactly (no epsilon): every pair's load-aware
    path adds two non-negative delay terms, so the max only moves up. *)

val load_zero_identity :
  label:string -> Dia_core.Problem.t -> Dia_core.Assignment.t -> check
(** The objective under its default {!Dia_core.Delay.zero} adds exact
    float zeros, so it must equal the length of
    {!Dia_core.Objective.longest_pair} — a scan over the raw
    eccentricities, with no delay term — bit for bit. *)

val load_fast_naive_agree :
  delay:Dia_core.Delay.t ->
  label:string ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  check
(** The per-server effective-eccentricity evaluator against the
    O(|C|^2) definition — bit-identical (same term grouping). *)

val delay_monotone : max_load:int -> Dia_core.Delay.t -> check
(** [Delay.eval] is non-decreasing over loads [0..max_load] — in
    particular across the M/M/1 saturation boundary. *)

(** {2 Coreset bound (lib/coreset)} *)

val coreset_bound : resolution:float -> seed:int -> Dia_core.Problem.t -> check
(** Build a coreset of the instance's uncapacitated relaxation at
    [resolution], solve Greedy on the reduced instance, expand, and
    check the certified additive sandwich
    [|D_reduced - D_full| <= 2r = bound] (within {!eps}); at
    [resolution = 0] the two objectives must be exactly equal. *)
