(** Local-search solvers: steepest-descent hill climbing and simulated
    annealing.

    The paper bounds its heuristics against an unachievable lower bound
    because exact optimisation is intractable (Theorem 1). On mid-sized
    instances, local search gives a complementary {e achievable}
    reference point: hill climbing certifies local optimality of a
    solution, and annealing escapes the local optima that trap the
    constructive heuristics. Both respect capacities and are
    deterministic for a fixed seed. Neither is part of the paper's
    algorithm suite — they are the "how far from achievable optimum are
    we really" instrument used in EXPERIMENTS.md. *)

val hill_climb :
  ?max_rounds:int ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  Dia_core.Assignment.t * float
(** Steepest descent from a starting assignment: repeatedly apply the
    single client move that most reduces the maximum interaction-path
    length, until no move improves (or [max_rounds] moves were made,
    default unlimited). Returns the final assignment and objective.
    O(|C| |S|²) per round. *)

type annealing_params = {
  initial_temperature : float;  (** in objective units (ms) *)
  cooling : float;  (** geometric factor per step, in (0, 1) *)
  steps : int;  (** total proposed moves *)
}

val default_annealing : annealing_params

val anneal :
  ?params:annealing_params ->
  ?seed:int ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  Dia_core.Assignment.t * float
(** Simulated annealing from a starting assignment with single-client
    move proposals (uniform client, uniform unsaturated server),
    Metropolis acceptance on the objective, geometric cooling, and a
    final hill-climb polish. Tracks the best-ever assignment and returns
    it. Deterministic per [seed] (default 0).

    @raise Invalid_argument on invalid parameters. *)

val anneal_restarts :
  ?pool:Dia_parallel.Pool.t ->
  ?params:annealing_params ->
  ?restarts:int ->
  Dia_core.Problem.t ->
  Dia_core.Assignment.t ->
  Dia_core.Assignment.t * float
(** [anneal_restarts p a] runs {!anneal} from [a] under seeds
    [0 .. restarts - 1] (default 4) and returns the best result (lowest
    objective, ties to the lowest seed). With [pool], restarts run on
    the pool's domains; each restart derives its own [Random.State] from
    its seed, so the result is identical for any pool size.

    @raise Invalid_argument if [restarts < 1]. *)
