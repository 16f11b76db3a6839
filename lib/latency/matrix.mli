(** Dense symmetric latency matrices.

    A matrix of pairwise network latencies between [n] nodes. Latencies are
    non-negative floats (milliseconds by convention); the diagonal is zero.
    This is the fundamental data structure consumed by every assignment
    algorithm: the paper's distance function [d(u, v)] extended to all node
    pairs.

    The store is a flat row-major float64 {!Bigarray.Array1}; entries are
    bit-identical IEEE-754 doubles to the historical [float array] backing
    (kept as [Dia_oracle.Reference.Boxed_matrix]), so switching layouts
    never changes a computed objective. Gather loops over indices
    validated once read it with {!unsafe_get}.

    {b Absent pairs.} A matrix made with [create ~rows] (or
    [Synthetic.internet_like ~rows]) materialises only the rows and
    columns of the listed nodes. A pair [(i, j)] is {e present} when
    [i = j] or either node is listed, and {e absent} otherwise. Absent
    entries hold NaN, which {!set} never stores, so a stray
    {!unsafe_get} of one poisons whatever it feeds visibly. Every checked
    accessor refuses an absent pair with an [Invalid_argument] naming
    it: {!get}, {!set} and {!sub} on the pairs they touch, and the
    whole-matrix calls {!iter_pairs}, {!max_entry}, {!min_entry},
    {!mean_entry}, {!equal}, {!to_rows} and {!pp} on any matrix that has
    one. {!copy} keeps the rows. Consumers that read only rows they
    checked with {!has_row} (a problem's servers, a session's servers)
    work on such a matrix unchanged. *)

type t
(** A symmetric [n x n] latency matrix with zero diagonal. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : ?rows:int array -> int -> t
(** [create n] is an [n x n] matrix with every entry [0.].
    [create ~rows n] holds only the pairs that touch a node of [rows]
    (duplicates allowed): those entries are [0.], every other pair is
    absent.

    @raise Invalid_argument if [n < 0] or a row is out of bounds. *)

val has_row : t -> int -> bool
(** [has_row m i] is whether row [i] is materialised: always [true]
    unless [m] was made with [~rows]. O(1).

    @raise Invalid_argument if [i] is out of bounds. *)

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

    @raise Invalid_argument if [i] or [j] is out of bounds or the pair
    is absent. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] sets both [(i, j)] and [(j, i)] to [v].

    @raise Invalid_argument on out-of-bounds indices, an absent pair,
    negative or non-finite [v], or [i = j] with [v <> 0.]. *)

val unsafe_get : t -> int -> int -> float
(** [unsafe_get m i j] is [get m i j] with no bounds checks at all — for
    gather loops over indices already validated once (e.g. a problem's
    node arrays). An absent pair reads NaN. *)

val unsafe_buffer : t -> buffer
(** The store itself, entry [(i, j)] at index [i * dim m + j] — for a
    generator loop filling a fresh matrix without a call per entry (a
    Bigarray access compiles inline, where a call into this module need
    not, e.g. under [-opaque]). Nothing is checked: the loop must write both
    [(i, j)] and [(j, i)], present pairs only, and finite non-negative
    values off the diagonal. *)

val copy : t -> t
(** Deep copy; it holds the same rows. *)

val sub : t -> int array -> t
(** [sub m nodes] is the principal submatrix restricted to [nodes]: entry
    [(i, j)] of the result is [get m nodes.(i) nodes.(j)].

    @raise Invalid_argument if any index is out of bounds or a pair
    among [nodes] is absent. *)

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
