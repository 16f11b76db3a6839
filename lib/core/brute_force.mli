(** Exact optimal assignment by branch-and-bound.

    The client assignment problem is NP-complete (Section III), so this
    is exponential in the worst case and intended for small instances:
    validating that the heuristics are near-optimal, and ground truth in
    tests. The search assigns clients one at a time in decreasing order of
    nearest-server distance (hard clients first), tracks per-server
    eccentricities incrementally, prunes any branch whose partial
    objective already reaches the best complete one, and seeds the
    incumbent with the better of Greedy and Longest-First-Batch so pruning
    bites immediately. Respects capacities. *)

val optimal :
  ?node_limit:int -> ?delay:Delay.t -> Problem.t -> Assignment.t * float
(** [optimal p] is an optimal assignment and its objective value: [D],
    or [D_load] under a [delay] model ({!Objective.max_interaction_path}
    with the same model; the default {!Delay.zero} is [D]). The partial
    objective is recomputed whenever a placement raises its server's
    effective eccentricity — its eccentricity, or its delay through the
    load bump — and stays a valid pruning bound because both only grow
    as clients are added.

    [node_limit] (default [50_000_000]) bounds the number of search nodes
    explored.

    @raise Failure if the limit is exceeded — the instance is too big for
    exact search. *)

val optimal_value : ?node_limit:int -> ?delay:Delay.t -> Problem.t -> float
(** Objective value only. *)
