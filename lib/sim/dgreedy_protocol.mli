(** Message-level Distributed-Greedy Assignment (Section IV-D),
    hardened against an unreliable network.

    [Dia_core.Distributed_greedy] computes the algorithm's result
    centrally; this module actually {e runs the protocol} over the
    simulated {!Network}, with every quantity obtained the way the paper
    says the servers obtain it:

    + {b bootstrap} — each client probes every server (round-trip
      latency measurement), picks the nearest, and joins it, reporting
      its measured distance: the Nearest-Server initial assignment,
      computed by the clients themselves;
    + {b initialisation} — each server probes the other servers,
      computes its longest client distance [l(s)], and broadcasts both,
      exactly the exchange of Section IV-D;
    + {b modification rounds under concurrency control} — a token
      serialises modifications (the paper's requirement that concurrent
      reassignments not interleave). The token holder picks a client of
      its own on a longest interaction path and broadcasts it with its
      eccentricity-without-that-client; every other server probes the
      client and replies with the resulting [L(s')]; the holder commits
      the best move only if it strictly reduces the global objective,
      broadcasting the updated eccentricities (acknowledged before the
      next round). A server with no improving client passes the token;
      [|S|] consecutive tokenless passes terminate the protocol.

    {2 Fault tolerance}

    Every protocol payload travels over a reliable-transport layer:
    per-channel sequence numbers, per-frame acknowledgements, duplicate
    suppression, and retransmission with capped exponential backoff — so
    message loss and duplication (see {!Fault}) are masked. A frame
    whose retry budget runs out doubles as a failure detection: servers
    expel the unresponsive peer from the computation, clients fail over
    to their next-nearest live server, and a probe to a dead client is
    answered on its behalf so token rounds always complete. Distances
    are measured NTP-style (the probe carries its transmit time, the
    reply echoes it plus the receiver's hold time), so retransmission
    waits cancel out and measured distances stay exact under loss. If
    the token dies with a crashed holder, a watchdog regenerates it
    under a fresh epoch number; stale-epoch messages are discarded. With
    any loss rate below 1 and at least one live server, the run
    terminates with a valid assignment onto live servers, locally
    optimal for the surviving system in the same sense as the
    centralized algorithm. *)

type fault_stats = {
  dropped : int;  (** transmissions lost to faults or down actors *)
  duplicated : int;  (** extra copies delivered by the fault plan *)
  undeliverable : int;  (** arrivals at actors with no handler *)
  retransmissions : int;  (** frames sent again after an unacked wait *)
  give_ups : int;
      (** frames abandoned after [max_attempts] — each one is a
          failure-detector verdict *)
  regenerations : int;  (** watchdog token regenerations *)
  failovers : int;
      (** clients re-homed off a crashed server, during the run or in
          final-assignment fixup *)
}

type result = {
  assignment : Dia_core.Assignment.t;
  objective : float;  (** final [D] of the assignment, true matrix *)
  initial_objective : float;
      (** [D] of the bootstrap NSA assignment as believed by the first
          token holder ([nan] if the run died before the token started) *)
  modifications : int;
  messages : int;  (** total transmissions, acks and retries included *)
  wall_duration : float;  (** simulated protocol runtime (ms) *)
  stalled : bool;
      (** the run was force-stopped by the watchdog rather than
          terminating through token passes: the hard deadline fired, the
          regeneration budget ran out, or no live server remained. The
          returned assignment is still valid, but the protocol never
          declared local optimality — supervisors should treat a stalled
          epoch as restartable (with backoff) rather than converged. *)
  faults : fault_stats;
}

type tuning = {
  rto : float;  (** initial retransmission timeout *)
  rto_cap : float;  (** backoff ceiling *)
  backoff : float;  (** wait multiplier per retry *)
  max_attempts : int;  (** transmissions before giving up on a frame *)
  ping_period : float;  (** client keepalive interval (fault runs only) *)
  regen_timeout : float;  (** token silence before watchdog regeneration *)
  max_regenerations : int;  (** regeneration budget before forced stop *)
  deadline : float;  (** hard simulated-time stop for any faulty run *)
}

val settle_time : Dia_core.Problem.t -> float
(** The fault-free bootstrap horizon: when servers exchange their
    initial state and the token starts. Useful for scheduling fault
    events relative to protocol phases. (Faulty runs stretch the actual
    horizon to three times this value, to absorb first-round retries.) *)

val run :
  ?jitter:(src:int -> dst:int -> base:float -> float) ->
  ?fault:Fault.t ->
  ?tuning:tuning ->
  Dia_core.Problem.t ->
  result
(** Execute the protocol to termination. With [jitter], latency
    measurements are noisy and the servers optimise measured — not true —
    distances, as a real deployment would. [fault] injects seeded loss,
    duplication, latency spikes, partitions, and crashes (see {!Fault});
    [tuning] overrides the retry/timeout parameters (default:
    conservative values scaled to the instance's maximum latency). Without [fault], behaviour reduces to the
    classic reliable-network protocol (keepalives and the token watchdog
    are only armed under fault injection).

    @raise Invalid_argument if the instance has no clients (there is
    nothing to assign). Capacities are respected: clients only move to
    unsaturated servers, and the bootstrap uses capacitated
    nearest-server joining (a client rejected by a full server tries the
    next nearest). *)
