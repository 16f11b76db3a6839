(** Nearest-Server Assignment (Section IV-A).

    Assigns every client to its closest server. This is the intuitive
    baseline; the paper proves it is a (tight) 3-approximation under the
    triangle inequality and shows experimentally that it is the worst of
    the four heuristics on real latency data (which violate the triangle
    inequality, so the ratio 3 does not even apply).

    Under a capacity limit each client takes the nearest server with
    room (Section IV-E); clients are processed in index order, which
    models their arrival order. *)

val assign : ?delay:Delay.t -> Problem.t -> Assignment.t
(** Clients arrive in index order and each joins the feasible server
    minimising its marginal hop cost [d(c,s) + delay(load(s) + 1)] — the
    delay its own join inflicts — with ties to the lowest server index.
    Under the default {!Delay.zero} that is the paper's rule: the
    nearest server, or under a capacity the nearest one with room.
    O(|C| |S|). Raises [Invalid_argument] if the delay model is
    invalid. *)
