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

val run : ?initial:Assignment.t -> ?delay:Delay.t -> Problem.t -> result
(** Run to convergence from the Nearest-Server assignment (under
    [delay], if given), or from [initial], which must respect the
    instance's capacity.

    Without [delay] this is the paper's protocol on [D]: a candidate's
    target minimises {!Ecc.attach}, and the move commits only if the
    recomputed [D] strictly drops. Each target's {!Ecc.attach} is
    bounded by the best target so far, and the longest-path scan skips
    rows of server pairs whose rounded upper bound falls short of [D];
    neither changes a result, which the oracle checks against the full
    scans of [Dia_oracle.Reference.distributed_greedy].

    With [delay] the same loop runs on [D_load]
    ({!Objective.max_interaction_path} under [delay]). A move changes
    the loads of both endpoints, so each target is judged by a full
    trial evaluation of [D_load] instead; every committed move still
    strictly lowers [D_load], and the trace records it. This is a
    different search: even [~delay:Delay.zero] ends elsewhere than no
    [delay] on 229 of 4000 oracle instances, so Fig. 7 and the soak's
    repair epochs pass no [delay].

    @raise Invalid_argument if [delay] or [initial] is invalid, or
    [initial] violates capacity. *)

val assign : ?delay:Delay.t -> Problem.t -> Assignment.t
(** [run] and keep only the final assignment. *)
