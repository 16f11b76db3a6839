(** Reference implementations kept only to be diffed against the
    production kernels.

    Each function is the straightforward form of an algorithm whose
    production version trades clarity for speed; the oracle and the
    test suite require the two to agree bit for bit. *)

val greedy_load :
  delay:Dia_core.Delay.t -> Dia_core.Problem.t -> Dia_core.Assignment.t
(** Load-aware Greedy as first written: every step re-sorts the
    unassigned clients per server with a comparison sort and boxes
    every candidate. O(|S||C| log |C|) per iteration. Same batch
    selection, float expressions and tie order as
    {!Dia_core.Greedy.assign} under the same model, which must return
    the identical assignment. *)

val greedy : Dia_core.Problem.t -> Dia_core.Assignment.t
(** Greedy Assignment as first written, without the sorted-list/index
    bookkeeping: every iteration recomputes Δn by scanning all
    unassigned clients per candidate pair. O(|S||C|²) per iteration
    instead of O(|S||C|); produces the same assignment as
    {!Dia_core.Greedy.assign} on tie-free data (exact distance ties may
    batch in a different order). The bench harness times it as
    [assign/greedy-reference]. *)

val kcenter_greedy : Dia_latency.Matrix.t -> k:int -> int array
(** K-center-B as first written: every step computes every candidate's
    full radius over all nodes in index order. O(k n²). Same centers as
    {!Dia_placement.Kcenter.greedy}, whose scans stop early, bit for bit
    (ties included).

    @raise Invalid_argument unless [0 <= k <= dim]. *)

val distributed_greedy : Dia_core.Problem.t -> Dia_core.Distributed_greedy.result
(** Distributed-Greedy from the Nearest-Server start, as first written:
    every pair scan and every target's {!Dia_core.Ecc.attach} runs in
    full ([~best:(-1)]). Same assignment, trace and stats as
    {!Dia_core.Distributed_greedy.run}, whose scans stop early. *)

val max_interaction_path :
  ?delay:Dia_core.Delay.t -> Dia_core.Problem.t -> Dia_core.Assignment.t -> float
(** [D(A)] (or [D_load(A)] under [delay]) by the direct O(|C|²) scan
    over client pairs — the referee for
    {!Dia_core.Objective.max_interaction_path}'s decomposed evaluator.
    Bit-identical to it: both group each pair as
    [(d1 + delay1) + d_ss + (d2 + delay2)], smaller server index first.
    The bench harness times it as [objective/naive]. *)

val lower_bound : Dia_core.Problem.t -> float
(** The super-optimal lower bound by the direct four-way loop,
    O(|C|² |S|²) — the referee for {!Dia_core.Lower_bound.compute}'s
    pruned scan, which the bench harness times against it as
    [lower-bound/naive]. *)

val float_str : float -> string
(** The persisted float rendering as first written, all in C: the
    shortest of glibc's [%g], [%.12g] and [%.17g] that [float_of_string]
    reads back as the identical double ([%.12g] tried first, [%g] only
    when it round-trips; ["nan"] for every nan). The referee for
    {!Dia_runtime.Codec.float_str}, which renders in OCaml and must
    agree byte for byte. *)

(** The distance matrix's historical boxed [float array] layout, kept
    to diff the flat {!Dia_latency.Matrix} store against: the oracle and
    the test suite build instances on both layouts and require
    bit-identical entries and algorithm outputs. *)
module Boxed_matrix : sig
  type t

  val of_matrix : Dia_latency.Matrix.t -> t
  (** Entry-preserving copy out of the flat store. *)

  val to_matrix : t -> Dia_latency.Matrix.t
  (** Entry-preserving copy back into the flat store (built through
      {!Dia_latency.Matrix.init}, which mirrors the upper triangle: a
      copy of a valid matrix is symmetric with a zero diagonal). *)

  val bit_equal : t -> Dia_latency.Matrix.t -> bool
  (** True iff every entry is bitwise ([Int64.bits_of_float]) identical. *)
end
