(** The interactivity objective: maximum interaction-path length.

    The interaction path between clients [ci] and [cj] under assignment
    [A] is [d(ci, sA(ci)) + d(sA(ci), sA(cj)) + d(sA(cj), cj)] (Section
    II-A). Its maximum over all client pairs, [D(A)], equals the minimum
    achievable interaction time of the DIA under consistency and fairness
    (Section II-C), and is what every algorithm minimises.

    The fast evaluator exploits that the path length decomposes through
    per-server eccentricities: with
    [l(s) = max {d(c, s) | A(c) = s}],
    [D(A) = max over used servers s1, s2 of l(s1) + d(s1, s2) + l(s2)]
    (the [s1 = s2] case covers client pairs sharing a server and a
    client's round trip to itself), costing O(|C| + |S|²) instead of the
    naive O(|C|²). Both the eccentricities and the pair scan are
    {!Ecc}'s; the naive evaluator the tests diff against is
    [Dia_oracle.Reference.max_interaction_path]. *)

val eccentricities : ?delay:Delay.t -> Problem.t -> Assignment.t -> float array
(** Per-server eccentricity [l(s)], plus [delay(load s)] under a delay
    model (the {e effective} eccentricity); [neg_infinity] for servers
    with no assigned clients. The load term is constant over a server's
    clients, so [D_load] decomposes through this array exactly as [D]
    does. [delay] defaults to {!Delay.zero}, which gives the plain
    [l(s)]. O(|C| + |S|). *)

val max_interaction_path : ?delay:Delay.t -> Problem.t -> Assignment.t -> float
(** [D(A)], the maximum interaction-path length over all client pairs —
    including a client paired with itself (round trip). [neg_infinity]
    for instances with no clients. O(|C| + |S|²).

    Under a [delay] model each hop additionally pays its server's
    load-dependent delay, giving [D_load(A)]: the maximum over client
    pairs of
    [d(ci,s1) + delay(load s1) + d(s1,s2) + delay(load s2) + d(cj,s2)].
    Every delay is [>= 0], so [D_load(A) >= D(A)] pointwise. The default
    {!Delay.zero} adds exact zeros, so this {e is} [D(A)] bit for
    bit. *)

val path_length : Problem.t -> Assignment.t -> int -> int -> float
(** Interaction-path length between two client indices (equal indices give
    the round-trip [2 d(c, sA(c))]). *)

val longest_pair : Problem.t -> Assignment.t -> int * int * float
(** Some client pair achieving [D(A)] (as [ci, cj, length]); [ci] may
    equal [cj]. The pair is {!Ecc.longest}'s server pair, each side
    represented by its first client (in index order) realising that
    server's eccentricity.

    @raise Invalid_argument if the instance has no clients. *)

val average_interaction_path : Problem.t -> Assignment.t -> float
(** Mean interaction-path length over ordered client pairs including
    self-pairs — a secondary statistic used in reports. O(|C| + |S|²)
    via per-server totals. *)
