(** Per-server eccentricity arithmetic.

    Every algorithm in this library manipulates the objective through
    per-server eccentricities
    [l(s) = max {d(c, s) | A(c) = s}] (with [neg_infinity] for unused
    servers), exploiting that
    [D(A) = max over s1, s2 of l(s1) + d(s1, s2) + l(s2)]; under a
    delay model the same arithmetic runs on {!effective}
    eccentricities. This module is the one {!Problem}-level home of that
    arithmetic: {!Objective}, the search algorithms
    ({!Distributed_greedy}, {!Local_search}, {!Brute_force}) and the
    protocol simulators build on it.

    The scans read the latency store through
    [Bigarray.Array1.unsafe_get] on {!Dia_latency.Matrix.unsafe_buffer},
    a primitive the compiler expands in place: a distance read costs no
    call and boxes no float, even when modules are compiled [-opaque]
    (dune's dev profile), where each [Matrix.unsafe_get] was an
    out-of-line call returning a boxed float. What still crosses a
    module boundary boxed is a scan's own float result, once per call.

    {!Dynamic} keeps its own copies ([objective_of], [bump_objective],
    [attach_cost]) over its flat distance tables, for two reasons: a
    session holds no {!Problem}, and a per-join kernel cannot afford
    that one boxed result per call. *)

val of_assignment : Problem.t -> int array -> float array * int array
(** [of_assignment p a] is the raw eccentricity [l(s)] and the load
    (number of assigned clients) of every server under the assignment
    array [a] (indexed by client), as fresh arrays. O(|C| + |S|).

    @raise Invalid_argument if an entry of [a] is not a server index. *)

val longest : Problem.t -> float array -> int
(** The used server pair [s1 <= s2] maximising
    [(l(s1) + d(s1, s2)) + l(s2)] over an eccentricity array, encoded
    [s1 * |S| + s2]: the first strict maximum in the scan order
    ([s1] ascending, then [s2] ascending). [-1] when no server is used.
    O(|used|²) after an O(|S|) gather. *)

val objective : Problem.t -> float array -> float
(** [D] from an eccentricity array: the length of the {!longest} pair,
    or [0.] when no server is used — the identity of the objective, so
    an empty configuration composes with downstream arithmetic instead
    of leaking [neg_infinity] (contrast {!Dynamic.objective}, whose
    [neg_infinity]-on-empty is part of its protocol and pinned). *)

val effective : delay:Delay.t -> float array -> load:int array -> float array
(** Effective eccentricities [l(s) + delay(load s)] of the used servers
    ([neg_infinity] stays unused), as a fresh array. {!objective} of the
    result is [D_load], grouped exactly like
    {!Objective.max_interaction_path} under the same model, so the two
    agree bit for bit. *)

val excluding : Problem.t -> int array -> server:int -> client:int -> float
(** Eccentricity of [server] if [client] were removed from it. O(|C|). *)

val attach :
  ?bound:float -> Problem.t -> float array -> client:int -> server:int -> float
(** Longest interaction path involving [client] if it were attached to
    [server], given the other assignments' eccentricities: the maximum of
    its round trip [2 d(c, s)] and [d(c, s) + d(s, s'') + l(s'')] over
    used servers [s''], visited in index order. O(|S|).

    [bound] (default [infinity]) lets a caller that only needs to know
    whether the path beats [bound] stop early: the scan ends as soon as
    the running maximum reaches [bound], and the result is then some
    value [>= bound] instead of the exact maximum. A result below
    [bound] is always exact. The default never changes the result. *)
