(** Nearest-Server Assignment (Section IV-A).

    Assigns every client to its closest server. This is the intuitive
    baseline; the paper proves it is a (tight) 3-approximation under the
    triangle inequality and shows experimentally that it is the worst of
    the four heuristics on real latency data (which violate the triangle
    inequality, so the ratio 3 does not even apply).

    Under a capacity limit each client takes the nearest server with
    room (Section IV-E); clients are processed in index order, which
    models their arrival order. *)

val assign :
  ?delay:Delay.t -> ?index:Dia_latency.Landmark.t -> Problem.t -> Assignment.t
(** Clients arrive in index order and each joins the feasible server
    minimising its marginal hop cost [d(c,s) + delay(load(s) + 1)] — the
    delay its own join inflicts — with ties to the lowest server index.
    Under the default {!Delay.zero} that is the paper's rule: the
    nearest server, or under a capacity the nearest one with room.
    O(|C| |S|).

    [index] — a {!Dia_latency.Landmark} index built over this problem's
    matrix with the server nodes as candidates — prunes the per-client
    scan under any delay model and capacity: every cost is at least
    [d(c,s)], which is at least the index's certified bound. The
    assignment is bit-identical with or without it (the index skips only
    provably losing candidates, and prunes nothing on non-metric
    instances). Raises [Invalid_argument] if the index does not match
    the instance or the delay model is invalid. *)
