(** Greedy Assignment (Section IV-C, pseudocode of Fig. 6).

    Starts from the empty assignment. Each iteration evaluates every
    (unassigned client [c], server [s]) pair: assigning [c] to [s] would
    also batch onto [s] every unassigned client at most as far from [s],
    giving [Δn] new assignments and increasing the maximum
    interaction-path length by [Δl]. The pair minimising the amortised
    cost [Δl / Δn] wins and its batch is committed. Repeats until all
    clients are assigned.

    As in the paper, each server keeps its clients in a list sorted by
    distance ([Ls]) with per-client indices counting unassigned
    predecessors, so [Δn] is an O(1) lookup and the index tables are
    rebuilt in O(|S| |C|) per iteration; total complexity
    O(|S||C| log |C| + m |S||C|) for [m] iterations.

    Capacitated variant (Section IV-E): only unsaturated servers are
    considered, and a candidate pair [(c, s)] is only admissible when its
    whole batch fits in [s]'s remaining capacity (equivalently, [Δn] is
    capped by remaining capacity — candidate batches never overflow, and
    the nearest unassigned client to an unsaturated server is always
    admissible, so the algorithm always progresses). *)

val assign : ?delay:Delay.t -> Problem.t -> Assignment.t
(** Runs the capacitated variant automatically when the instance has a
    capacity.

    Under a [delay] model the same batch selection runs on the [D_load]
    objective: a candidate batch additionally pays the marginal delay it
    inflicts — the target's effective eccentricity becomes
    [max(l(s), d) + delay(load s + Δn)] — while other used servers keep
    [l(s') + delay(load s')]; delay monotonicity makes the running
    maximum exact. The default {!Delay.zero} is the paper's algorithm:
    its delay table holds exact zeros, so every cost is the plain
    [Δl / Δn].

    Per-server live lists of the unassigned clients in [Ls] order are
    sorted once and compacted after each commit, and the delay table
    [delay(l)] for [l = 0 .. |C|] is built once per call.
    O(|S||C| log |C|) for the initial sorts, then at most O(|S||C| +
    |S|²) per iteration. The scan skips, exactly, candidates that cannot
    win: when some server has a zero-cost batch, a binary search per
    server finds the longest one in O(|S| log |C|) past the O(|S|²)
    [m'] pass, and otherwise a server's scan stops once every later
    candidate loses strictly. Bit-identical to the re-sorting reference
    the oracle keeps, under any delay model. *)
