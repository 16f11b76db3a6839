(** Distributed-Greedy Assignment (Section IV-D).

    Starts from Nearest-Server Assignment and repeatedly reassigns a
    client involved in a longest interaction path to the server that
    minimises the resulting maximum path length involving that client,
    committing a move only when it strictly reduces the global objective
    [D]. Terminates when no client on any longest path can improve [D]
    (moves are examined one at a time, modelling the paper's concurrency
    control that serialises modifications).

    Although conceptually a protocol run by the servers themselves, the
    computation here is sequential; {!stats} reports the communication the
    protocol would have used (broadcasts, per-server probe measurements),
    and {!trace} records [D] after every committed modification — the data
    behind the paper's Fig. 9. The simulated message-level version of the
    protocol lives in [Dia_sim.Dgreedy_protocol].

    Capacitated variant (Section IV-E): clients may only move to
    unsaturated servers and the initial assignment is the capacitated
    Nearest-Server Assignment. *)

type stats = {
  modifications : int;  (** committed reassignments *)
  examined : int;  (** candidate clients examined (incl. rejected) *)
  broadcasts : int;
      (** server-to-all-servers messages: initial distance/eccentricity
          exchange, per-candidate announcements, post-move updates *)
  probes : int;
      (** client-to-server latency measurements performed on demand *)
}

type result = {
  assignment : Assignment.t;
  initial : Assignment.t;  (** the Nearest-Server starting point *)
  trace : float array;
      (** [trace.(0)] is the initial [D]; [trace.(i)] the objective after
          the [i]-th committed modification — strictly decreasing *)
  stats : stats;
}

val run : ?initial:Assignment.t -> Problem.t -> result
(** Run to convergence. [initial] overrides the Nearest-Server starting
    point (it must respect the instance's capacity).

    Two scans stop early without changing a result: each target's
    {!Ecc.attach} is bounded by the best target so far, and the
    longest-path scan skips a row of server pairs whose rounded upper
    bound falls short of [D]. The assignment, trace and stats are those
    of the full scans, which the oracle keeps as
    [Dia_oracle.Reference.distributed_greedy].

    @raise Invalid_argument if [initial] is invalid or violates
    capacity. *)

val assign : Problem.t -> Assignment.t
(** [run] and keep only the final assignment. *)

val run_load : ?initial:Assignment.t -> delay:Delay.t -> Problem.t -> result
(** Load-aware protocol: the same candidate-driven improvement loop run
    on the [D_load] objective (each hop pays its server's
    load-dependent delay — {!Objective.max_interaction_path} under
    [delay]). A move changes the loads of both endpoint servers, so
    targets are judged by a full trial evaluation instead of the local
    {!Ecc.attach} estimate; every committed move still strictly
    improves [D_load], so the protocol terminates. Starts from
    {!Nearest.assign} under [delay] unless [initial] is given; the trace
    records [D_load] after every committed modification.

    This is the one algorithm that keeps a separate load-aware entry
    point: the trial evaluation is a different search from {!run}'s
    [Ecc.attach] scoring, so even under {!Delay.zero} the two can end at
    different assignments (229 of 4000 oracle instances do), and folding
    them would change Fig. 7 and every soak's repair epochs.

    @raise Invalid_argument if [initial] is invalid or violates
    capacity. *)

val assign_load : delay:Delay.t -> Problem.t -> Assignment.t
(** [run_load] and keep only the final assignment. *)
