(** Minimum K-center algorithms used for server placement.

    - {!two_approx} is the farthest-point traversal of Gonzalez (the
      classic 2-approximation presented in Vazirani's book, the paper's
      "K-center-A").
    - {!greedy} repeatedly adds the centre that most reduces the coverage
      radius (the heuristic of Jamin et al. used for mirror placement, the
      paper's "K-center-B").

    Both take a complete latency matrix and return [k] distinct node
    indices. Both run sequentially: spreading either one over two
    domains made it slower on a 2-core host (interleaved timings in
    CHANGES.md). *)

val two_approx : ?seed:int -> Dia_latency.Matrix.t -> k:int -> int array
(** Farthest-point traversal: start from a seeded-random node, then
    repeatedly add the node farthest from the chosen set. Guarantees
    coverage radius within twice the optimum when distances satisfy the
    triangle inequality.

    @raise Invalid_argument unless [0 <= k <= dim]. *)

val greedy : Dia_latency.Matrix.t -> k:int -> int array
(** Greedy radius minimisation: at each step add the candidate node whose
    inclusion minimises the resulting coverage radius (ties broken by
    lowest index). O(k n²) in the worst case, far less in practice: each
    step visits the nodes in decreasing distance to the chosen set, and
    a candidate's radius scan stops once the next node cannot raise it
    or once it reaches the best radius so far. Both exits are exact, so
    the centers are those of the full scan ([Dia_oracle.Reference]
    keeps it) bit for bit, ties included. On 600-node Meridian-like
    subsamples at k = 20…100 the scan reads 0.3–1% of the full scan's
    matrix cells.

    @raise Invalid_argument unless [0 <= k <= dim]. *)

val optimal : ?node_limit:int -> Dia_latency.Matrix.t -> k:int -> int array
(** Exact minimum K-center by branch-and-bound over center sets, seeded
    with the greedy solution. Exponential — small instances only; used to
    verify the 2-approximation bound in tests and to calibrate placements
    in examples.

    @raise Invalid_argument unless [0 <= k <= dim].
    @raise Failure if [node_limit] (default [5_000_000]) search nodes are
    exceeded. *)

val radius : Dia_latency.Matrix.t -> int array -> float
(** [radius m centers] is the K-center objective: the maximum over
    nodes of the distance to the nearest centre ([infinity] when
    [centers] is empty and the matrix is non-empty, [0.] on an empty
    matrix). *)
