(** Parsers for real latency data files.

    Two on-disk formats are supported, matching the data sets the paper
    uses:

    - {b dense matrix} (MIT King, p2psim [kingdata]): one row per line,
      whitespace-separated numbers; a negative value or the token ["-"]
      marks a missing measurement.
    - {b triple list} (Meridian): lines of [i j rtt] with 0-based or
      1-based node ids; missing pairs are simply absent.

    The paper discards every node involved in a missing measurement until
    the matrix is complete ("On discarding the nodes involved in
    unavailable measurements, our simulated network is represented by a
    complete pair-wise latency matrix for 1796 nodes"). {!complete_subset}
    implements that cleaning step: it greedily removes the node with the
    most missing entries until none remain, which keeps close to the
    maximum number of usable nodes. *)

type raw = {
  nodes : int;
  entries : float option array array;  (** [None] = missing measurement *)
}

val parse_matrix : string -> raw
(** Parse a dense matrix file.

    @raise Failure on malformed input (non-square, unparsable token).
    A value that parses but is not finite ([nan], [inf], [infinity]),
    or is above the ceiling [1e9], is rejected with a message naming its
    line and column. Three hops of [1e9] still sum to a finite double; a
    value near [max_float] would overflow the average of an asymmetric
    pair and every path length through it. *)

val parse_triples : string -> raw
(** Parse an [i j rtt] triple file. Node count is one more than the
    largest id seen; ids may be 0- or 1-based (1-based inputs simply leave
    node 0 isolated and it is dropped by {!complete_subset}). Ids must
    be below 65 536: a dense matrix of that size is already 32 GiB, and
    the paper's data sets have a few thousand ids.

    @raise Failure on malformed input, on an id at or above 65 536 and on
    a latency that {!parse_matrix} would refuse, with a message naming
    its line, column and value — raised while parsing, before anything
    is sized by the ids. *)

val complete_subset : raw -> int array * Matrix.t
(** [complete_subset raw] discards nodes until the remaining pairwise
    matrix is complete, returning the surviving original node ids and the
    cleaned matrix. Asymmetric pairs are averaged; non-positive present
    values are clamped to a small positive floor, since the paper requires
    [d(u, v) > 0]. *)

val load : string -> Matrix.t
(** [load path] sniffs the format, parses, and cleans. The file is
    triples if its first data line has exactly three fields, unless it
    has exactly three data lines and the [i]-th field of line [i] is
    zero or a missing marker ([-], [?], negative) for each of them — the
    diagonal of a 3x3 matrix. Anything else is dense.

    @raise Failure on malformed input; [Sys_error] if unreadable. *)

val save_matrix : string -> Matrix.t -> unit
(** Write a matrix in the dense format accepted by {!parse_matrix}. *)
