(** Dense symmetric latency matrices.

    A matrix of pairwise network latencies between [n] nodes. Latencies are
    non-negative floats (milliseconds by convention); the diagonal is zero.
    This is the fundamental data structure consumed by every assignment
    algorithm: the paper's distance function [d(u, v)] extended to all node
    pairs.

    The store is a flat row-major float64 {!Bigarray.Array1}; entries are
    bit-identical IEEE-754 doubles to the historical [float array] backing
    (see {!Reference}), so switching layouts never changes a computed
    objective. Gather loops over indices validated once read it with
    {!unsafe_get}. *)

type t
(** A symmetric [n x n] latency matrix with zero diagonal. *)

val create : int -> t
(** [create n] is an [n x n] matrix with every entry [0.]. *)

val init : int -> (int -> int -> float) -> t
(** [init n f] builds a matrix whose entry [(i, j)] is [f i j]. [f] is only
    consulted on ordered pairs [i < j] and the result is mirrored, so [f]
    need not be symmetric. The diagonal is [0.].

    @raise Invalid_argument if [n < 0] or [f] returns a negative or
    non-finite value. *)

val dim : t -> int
(** Number of nodes. *)

val get : t -> int -> int -> float
(** [get m i j] is the latency between nodes [i] and [j]. O(1).

    @raise Invalid_argument if [i] or [j] is out of bounds. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] sets both [(i, j)] and [(j, i)] to [v].

    @raise Invalid_argument on out-of-bounds indices, negative or
    non-finite [v], or [i = j] with [v <> 0.]. *)

val unsafe_get : t -> int -> int -> float
(** [unsafe_get m i j] is [get m i j] with no bounds checks at all — for
    gather loops over indices already validated once (e.g. a problem's
    node arrays). *)

val copy : t -> t
(** Deep copy. *)

val sub : t -> int array -> t
(** [sub m nodes] is the principal submatrix restricted to [nodes]: entry
    [(i, j)] of the result is [get m nodes.(i) nodes.(j)].

    @raise Invalid_argument if any index is out of bounds. *)

val max_entry : t -> float
(** Largest off-diagonal entry ([0.] for matrices with [dim <= 1]). *)

val min_entry : t -> float
(** Smallest off-diagonal entry ([infinity] for matrices with [dim <= 1]). *)

val mean_entry : t -> float
(** Mean of the off-diagonal entries ([nan] for matrices with [dim <= 1]). *)

val iter_pairs : t -> (int -> int -> float -> unit) -> unit
(** [iter_pairs m f] calls [f i j (get m i j)] for every unordered pair
    [i < j]. *)

val of_rows : float array array -> t
(** [of_rows rows] builds a matrix from a square array of rows. Asymmetric
    inputs are symmetrised by averaging, which mirrors how RTT data sets
    with small asymmetric measurement noise are commonly cleaned.

    @raise Invalid_argument if the array is not square or an entry is
    negative or non-finite. *)

val to_rows : t -> float array array
(** Full square dump (including diagonal). *)

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise equality within [eps] (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
(** Debug printer; prints the full matrix for small [n], a one-line
    min/mean/max summary (one pass, no [mean=nan] for degenerate sizes)
    otherwise. *)

(** The historical boxed [float array] layout, kept as a differential
    oracle: the test suite builds instances on both layouts and requires
    bit-identical entries and algorithm outputs. Not used on any hot
    path. *)
module Reference : sig
  type boxed

  val create : int -> boxed
  val init : int -> (int -> int -> float) -> boxed
  val dim : boxed -> int
  val get : boxed -> int -> int -> float
  val set : boxed -> int -> int -> float -> unit

  val of_matrix : t -> boxed
  (** Entry-preserving copy out of the flat store. *)

  val to_matrix : boxed -> t
  (** Entry-preserving copy into the flat store (raw values, no
      re-validation — the boxed side already enforced the invariants). *)

  val bit_equal : boxed -> t -> bool
  (** True iff every entry is bitwise ([Int64.bits_of_float]) identical. *)
end
