(** Per-server eccentricity arithmetic.

    Every algorithm in this library manipulates the objective through
    per-server eccentricities
    [l(s) = max {d(c, s) | A(c) = s}] (with [neg_infinity] for unused
    servers), exploiting that
    [D(A) = max over s1 <= s2 of l(s1) + d(s1, s2) + l(s2)]; under a
    delay model the same arithmetic runs on {!effective}
    eccentricities. This module is the one home of that arithmetic:
    {!Objective}, the search algorithms ({!Distributed_greedy},
    {!Brute_force}, and the oracle's [Local_search]) and the online
    session ({!Dynamic}) build on it.

    The server-level scans take a flat k x k server-server table [~ss]
    in the layout of {!Problem.ss_table} (entry [s1 * k + s2] is
    [d(s1, s2)]) and an eccentricity array [e] of length [k]: an
    offline solver builds the table once per run, and a session passes
    the one it keeps. A pair [s1 <= s2] is always evaluated as
    [(e s1 + d(s1, s2)) + e s2]. The hot scans return indices or write
    into a caller's array, never a float, because under dune's [-opaque]
    dev profile a float crossing a module boundary is boxed on every
    call. *)

val of_assignment : Problem.t -> int array -> float array * int array
(** [of_assignment p a] is the raw eccentricity [l(s)] and the load
    (number of assigned clients) of every server under the assignment
    array [a] (indexed by client), as fresh arrays. O(|C| + |S|).

    @raise Invalid_argument if an entry of [a] is not a server index. *)

val length : ss:float array -> float array -> int -> int -> float
(** [length ~ss e s1 s2] is the length of the server pair [s1], [s2]
    in the canonical orientation: [(e a + d(a, b)) + e b] with [a] the
    smaller index. What {!longest} and {!through} maximise. *)

val longest : ss:float array -> float array -> int
(** The used server pair [s1 <= s2] maximising its {!length}, encoded
    [s1 * k + s2]: the first strict maximum in the scan order ([s1]
    ascending, then [s2] ascending). [-1] when no server is used.
    O(k²). *)

val objective : ss:float array -> float array -> float
(** [D] from an eccentricity array: the length of the {!longest} pair,
    or [0.] when no server is used — the identity of the objective, so
    an empty configuration composes with downstream arithmetic instead
    of leaking [neg_infinity] (contrast {!Dynamic.objective}, whose
    [neg_infinity]-on-empty is part of its protocol and pinned). *)

val through : ss:float array -> float array -> int -> int
(** [through ~ss e s] is the partner [s'] of the longest used pair
    through server [s] (the pair [(s, s)] included), each pair measured
    by its {!length}: the first strict maximum in ascending [s'], or
    [-1] when [s] is unused. O(k).

    When only [e s] rose since [D] was the maximum over all pairs, the
    new maximum is [max D (length ~ss e s (through ~ss e s))] exactly:
    float addition is monotone, so no pair away from [s] grew. *)

val attach :
  ss:float array -> float array -> hop:float array -> best:int -> int -> unit
(** [attach ~ss e ~hop ~best s] measures a client that attaches to
    server [s] with access hop [hop.(s)]: the longest interaction path
    through it, given the other clients' eccentricities [e], is its
    round trip [2 hop.(s)] or [(hop.(s) + d(s, s'')) + e s''] for a used
    [s''], visited in index order. The result replaces [hop.(s)].
    O(k), and allocation-free.

    [best] is [-1], or a server whose [hop] entry already holds such a
    result: the scan then stops as soon as the running maximum reaches
    [hop.(best)], because [s] can no longer beat [best], and the result
    is some value [>= hop.(best)] instead of the exact maximum. A result
    below [hop.(best)] is always exact, so a caller that keeps [best] at
    its running minimum picks the same server as a full scan. *)

val rowmax : ss:float array -> int -> float array
(** [rowmax ~ss k] is, for each [s1], the largest [d(s1, s2)] over
    [s2 >= s1]: the bound {!on_longest} prunes rows with. O(k²). *)

val on_longest : ss:float array -> rowmax:float array -> float array -> float -> bool array
(** [on_longest ~ss ~rowmax e d] flags every used server on a pair
    whose {!length} is within [1e-9] of [d]: the servers whose
    eccentricity-realising clients lie on a longest interaction path. A
    row [s1] whose rounded bound [(e s1 + rowmax s1) + max e] falls
    short is skipped; the bound is at least every sum in the row, so
    the flags are those of the full scan. *)

val effective : delay:Delay.t -> float array -> load:int array -> float array
(** Effective eccentricities [l(s) + delay(load s)] of the used servers
    ([neg_infinity] stays unused), as a fresh array. {!objective} of the
    result is [D_load], grouped exactly like
    {!Objective.max_interaction_path} under the same model, so the two
    agree bit for bit. *)

val excluding : Problem.t -> int array -> server:int -> client:int -> float
(** Eccentricity of [server] if [client] were removed from it. O(|C|). *)
