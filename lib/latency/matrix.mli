(** Dense symmetric latency matrices.

    A matrix of pairwise network latencies between [n] nodes. Latencies are
    non-negative floats (milliseconds by convention); the diagonal is zero.
    This is the fundamental data structure consumed by every assignment
    algorithm: the paper's distance function [d(u, v)] extended to all node
    pairs.

    The store is a flat float64 {!Bigarray.Array1} holding the rows the
    matrix holds, [n] doubles each, in node order; entries are
    bit-identical IEEE-754 doubles to the historical [float array]
    backing (kept as [Dia_oracle.Reference.Boxed_matrix]), so switching
    layouts never changes a computed objective. A full matrix holds
    every row: its store is the row-major [n x n] square. Gather loops
    over indices validated once read the store in place at
    {!row_offset}, or through {!unsafe_get}.

    {b Absent pairs.} A matrix made with [create ~rows] (or
    [Synthetic.internet_like ~rows]) stores only the rows of the listed
    nodes: [|distinct rows| * n] doubles plus an [n]-double tail (see
    {!unsafe_buffer}). A pair [(i, j)] is {e present} when [i = j] or
    either node is listed, and is read from a listed node's row;
    entries are stored symmetric, so that is the double a full build
    holds at [(i, j)]. Any other pair is {e absent}: it has no storage,
    and {!unsafe_get} reads it as NaN, so a stray read poisons whatever
    it feeds visibly. When at most one node is left out every pair is
    present, and the matrix is stored full. Every checked
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
    [create ~rows n] holds only the rows of the nodes in [rows]
    (duplicates allowed), in [|distinct rows| * n + n] doubles: the
    pairs that touch a listed node are [0.], every other pair is
    absent. When [rows] leaves out at most one node, the result is the
    full matrix [create n].

    @raise Invalid_argument if [n < 0] or a row is out of bounds. *)

val has_row : t -> int -> bool
(** [has_row m i] is whether row [i] is materialised: always [true]
    unless [m] was made with [~rows] leaving out two nodes or more.
    O(1).

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
    node arrays). An absent pair reads NaN; no read leaves the store. *)

val row_offset : t -> int -> int
(** [row_offset m i] is where row [i] starts in {!unsafe_buffer}: entry
    [(i, j)] is at [row_offset m i + j]. For a full matrix it is
    [i * dim m]. A loop that reads d(c, s) for a held [s] computes [s]'s
    offset once and reads [(s, c)], the same double.

    @raise Invalid_argument if [i] is out of bounds or its row is not
    materialised. *)

val row_offsets : t -> int array -> int array
(** [row_offsets m nodes] is [Array.map (row_offset m) nodes], in one
    call.

    @raise Invalid_argument as {!row_offset}. *)

val rows : t -> int array
(** The nodes whose rows are materialised, ascending: every node of a
    full matrix. *)

val unsafe_buffer : t -> buffer
(** The store itself — for a loop that fills or reads a matrix without a
    call per entry (a Bigarray access compiles inline, where a call
    into this module need not, e.g. under [-opaque]). Held row [i]'s
    entry [(i, j)] is at [row_offset m i + j]. A full matrix's store is
    the row-major square, [(i, j)] at [i * dim m + j], and nothing
    else. A rows-only matrix holds its [r] rows in node order, then an
    [n]-double tail: entry [r * n + i] is row [i]'s offset as a float,
    or [-1.] when the row is not held; it has [r * n + n] entries in
    all. Nothing is checked: a writer must write [(i, j)] into every
    held row among [i] and [j], and finite non-negative values off the
    diagonal, and must leave the tail alone. *)

val block : t -> rows:int array -> cols:int array -> float array
(** [block m ~rows ~cols] is a fresh flat row-major snapshot of the
    entries at [rows] x [cols]: entry [r * |cols| + j] is
    [unsafe_get m rows.(r) cols.(j)], the same double. It is filled in
    one pass that reads the store in place, with no call per entry, so
    an O(|rows| |cols|) table costs no boxed float. A row that is not
    held is read from its columns' rows. Absent pairs are not checked
    and read NaN: a caller that lists only nodes whose rows it checked
    with {!has_row} on one side gets a complete table. An empty
    block is the one-entry array [[|0.|]].

    @raise Invalid_argument if a row or column is out of bounds. *)

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
