(** Empirical competitive-ratio harness for the online assignment.

    Competitive analysis of online assignment (cf. Harada & Itoh's
    online facility assignment bounds) compares an online algorithm —
    here the soak's sticky policy: greedy joins, greedy re-homing on
    crashes, budget-bounded repair — against an offline yardstick on
    the same input. An exact offline optimum is intractable at soak
    sizes, so the yardstick is the paper's Greedy re-solve, not an
    optimum: {!run} replays [traces] churn/crash/drift traces
    (scenario seeds [seed], [seed+1], …), each with
    [offline_baseline = true], so at every lower-bound refresh the soak
    samples the pair (online D(A), offline Greedy re-solve D). The
    per-sample quotient is the instantaneous competitive ratio; the
    harness reports per-trace mean/max/final ratios and the aggregate —
    the empirical competitive ratio is the worst quotient observed
    anywhere. Because the yardstick is itself a heuristic, the online
    policy sometimes beats it: a quotient can fall below 1 (trace 28
    of 200 on the default scenario ends at 0.902).

    The documented constant: the online policy stays within
    {!default_bound} (4.0×) of the offline Greedy re-solve over the 20
    seeded default traces CI enforces. The constant absorbs the
    transient spike right after a crash and the stickiness cost of not
    rushing clients back onto a recovered server — the worst ratio
    over those 20 traces is 3.75, at trace 10; most samples sit near 1.
    It is not a bound on every trace: over 200 traces the worst is
    7.24. Everything is deterministic — same scenario/config, same
    numbers, bit-exactly. *)

type trace_result = {
  index : int;  (** 0-based trace number *)
  seed : int;  (** the scenario seed this trace ran with *)
  samples : int;  (** baseline points observed *)
  mean : float;  (** mean online/offline ratio (nan when unmeasured) *)
  max : float;  (** worst ratio in this trace *)
  final : float;  (** ratio at the last sample *)
}

type summary = {
  traces : int;
  bound : float;
  samples : int;  (** total samples across traces *)
  mean : float;  (** mean of the measured traces' mean ratios *)
  max : float;  (** the empirical competitive ratio *)
  ok : bool;  (** [max] is finite and within [bound] *)
  per_trace : trace_result list;  (** ascending by [index] *)
}

val default_bound : float
(** 4.0 — the documented constant the soak's online policy is held to. *)

val run : ?traces:int -> ?bound:float -> Soak.scenario -> Soak.config -> summary
(** Replay [traces] (default 20) seeded variations of the scenario with
    offline-baseline sampling forced on, and judge the worst observed
    online/offline ratio against [bound] (default {!default_bound}).

    @raise Invalid_argument if [traces < 1], [bound < 1] or the
    scenario/config are invalid. *)

val to_csv : summary -> string
(** One header line plus one row per trace
    ([trace,seed,samples,mean,max,final]); floats via
    {!Codec.float_str}, so the artifact is deterministic. *)

val render : summary -> string
(** Human-readable per-trace table, aggregate, and the bound verdict. *)
