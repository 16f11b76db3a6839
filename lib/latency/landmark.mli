(** Landmark-pruned exact queries over a fixed candidate set.

    A deployed assignment service answers "which server is closest to
    this node?" constantly — on every join and failover re-homing. The
    exhaustive scan pays |S| matrix reads per query; on metric data a
    handful of landmarks gives a certified lower bound
    [lb(q, s) = max over landmarks l of |d(q, l) - d(l, s)|  <=  d(q, s)]
    that lets a query skip most candidates without reading their
    distance at all. Internet latency matrices are {e not} metrics
    (see {!Metric}), so the bound is only trusted after a build-time
    verification pass: the exact float expression used at query time is
    checked against [d(u, s)] for {e every} matrix node [u], landmark
    and candidate. If a single triple fails, the index marks itself
    non-metric and every query falls back to the plain exhaustive scan —
    results are bit-identical to the scan either way, the index only
    ever changes how many entries a query touches.

    Landmark selection is farthest-point sampling over the candidates,
    optionally in a {!Vivaldi} embedding (selection affects pruning
    power only, never correctness — the verified bounds always come
    from true matrix distances). *)

type t

val build : ?num_landmarks:int -> ?coords:Vivaldi.t -> Matrix.t -> candidates:int array -> t
(** [build m ~candidates] indexes the given candidate nodes (servers,
    typically). [num_landmarks] defaults to 4, clamped to the number of
    distinct candidates. With [coords], farthest-point sampling runs on
    Vivaldi-predicted distances instead of matrix rows — the cheap
    choice when the matrix is itself estimated. Verification costs
    O(dim(m) * landmarks * |candidates|) matrix reads, once.
    Raises [Invalid_argument] on an empty candidate array, or on a
    candidate that is out of range or whose row is not materialised
    (the index reads only candidate rows, see {!Matrix.has_row}). The
    index snapshots nothing: it reads [m] at query time, so it must be
    discarded if [m] is mutated (e.g. {!Matrix.set} drift). *)

val metric_ok : t -> bool
(** Whether the landmark bounds verified against the whole matrix.
    [false] means queries run exhaustively (same results, no skips). *)

val num_landmarks : t -> int
val landmarks : t -> int array
(** The selected landmark nodes (a subset of the candidates). *)

val candidates : t -> int array
(** The indexed candidate nodes, in the order [build] received them. *)

val matrix : t -> Matrix.t
(** The matrix the index was built over (the same value, not a copy) —
    lets callers reject an index that does not match their instance. *)

val nearest : t -> query:int -> int * float
(** [(i, d)] such that [candidates.(i)] minimises the matrix distance
    to node [query], ties to the lowest index, [d] that distance — the
    same strict-< ascending scan as [Problem.nearest_server], so the
    result is bit-identical to the exhaustive loop it replaces.
    Raises [Invalid_argument] if [query] is out of range. *)

val lower_bounds : t -> query:int -> float array -> unit
(** Fill the [i]-th slot with a certified lower bound on
    [d(query, candidates.(i))] — [0.] everywhere when the index is not
    {!metric_ok} (trivially valid, prunes nothing). Callers with costs
    that dominate the distance (e.g. an attach cost [>= 2 d]) can skip
    candidate [i] whenever their transformed bound already loses to the
    best cost in hand. The array must have exactly one slot per
    candidate. Raises [Invalid_argument] otherwise. *)
