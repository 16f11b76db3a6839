(** Differential testing of the full algorithm suite on one instance.

    Runs all nine assignment algorithms — the six of
    {!Dia_core.Algorithm} plus {!Dia_core.Zone_based},
    {!Dia_core.Local_search.hill_climb} and
    {!Dia_core.Local_search.anneal} — on the same generated instance and
    checks every relation the paper (or the implementations' own
    contracts) promises between them:

    - validity and capacity feasibility of every output (Single-Server
      deliberately ignores capacity, so only its validity is checked on
      capacitated instances);
    - [D(A) >= LB] for every algorithm, and the synthesized clock is
      tight;
    - per-instance dominance: LFB and Distributed-Greedy never worse
      than Nearest-Server (LFB only uncapacitated), local search never
      worse than its starting point;
    - Distributed-Greedy is a fixed point: re-running it from its own
      output commits zero modifications, and its trace is strictly
      decreasing;
    - the early-exit kernels match the full scans they replaced:
      Distributed-Greedy's assignment, trace and stats against
      {!Reference.distributed_greedy}, and K-center-B's centers on the
      instance's matrix at its server count against
      {!Reference.kcenter_greedy};
    - on brute-force-sized instances ({!Gen.brute_sized}): nothing beats
      the exact optimum, [LB <= OPT], the 3-approximation bounds of
      Nearest-Server and LFB on metric uncapacitated instances, and
      adding a server never worsens [OPT] or [LB];
    - metamorphic checks: [D] and [LB] are invariant under index
      relabeling and linear under scaling — for the evaluators always,
      and (on a seed-selected slice) for the algorithms themselves:
      every algorithm but annealing is scale-stable, while
      relabel-stability is only enforced for Nearest-Server, LFB and
      Single-Server — Greedy, Zone-Based, Distributed-Greedy and hill
      climbing resolve equally-improving moves in index order and
      genuinely land in different local optima under permutation;
    - on seed-selected slices, a full protocol simulation checked
      per-event by {!Sim_invariant}, and bit-identity of the
      Distributed-Greedy protocol under 15% message loss versus a clean
      network (tie-free instances only — a client equidistant from two
      servers legitimately resolves the tie by message arrival order);
    - the load-aware objective, under a delay-model family cycling with
      the seed (constant, linear, unsaturated and saturated M/M/1):
      validity of the load-aware Nearest/Greedy/Distributed-Greedy
      outputs, load-aware Greedy bit-identical to
      {!Reference.greedy_load}, [D_load >= D] exactly, the fast
      effective-eccentricity evaluator against the O(|C|^2) definition
      bit-for-bit, [D_load] under [Constant 0.] bit-equal to [D],
      [Delay.eval] monotone through saturation,
      [D_load >= LB_load = LB + 2*delay(1)], and on brute-force-sized
      instances the exact sandwich
      [LB_load <= OPT_load <= D_load] for every load-aware output.

    Greedy is {e not} server-monotone (adding a server can worsen its
    [D] — refuted empirically), so that property is tallied as a
    diagnostic, never enforced. The same holds for "load-aware Greedy
    beats load-blind Greedy on [D_load]" — usually true, not always
    (both are tallied; see DESIGN §9). *)

val algo_keys : string list
(** The nine algorithm keys, in report order. *)

val conformance_annealing : Dia_core.Local_search.annealing_params
(** Reduced annealing schedule used by the harness so thousands of
    instances stay fast. *)

type outcome = {
  seed : int;  (** the absolute instance seed — replays this instance *)
  instance : string;  (** rendered descriptor *)
  capacitated : bool;
  checks : int;  (** checks evaluated on this instance *)
  failures : string list;  (** rendered violations, empty when clean *)
  values : (string * float) list;  (** algorithm key -> its [D(A)] *)
  lb : float;
  opt : float option;  (** exact optimum on brute-force-sized instances *)
  sim_checked : bool;
  transport_checked : bool;
  greedy_monotonic : bool option;
      (** diagnostic only: did adding a server not worsen Greedy here? *)
  load_greedy_better : bool;
      (** diagnostic only: was load-aware Greedy no worse than
          load-blind Greedy on [D_load] under this instance's delay
          model? *)
}

val run_algo : seed:int -> string -> Dia_core.Problem.t -> Dia_core.Assignment.t
(** Run one algorithm by key ({!algo_keys}); exposed for the qcheck
    properties and replay tooling. *)

val check_instance : seed:int -> outcome
(** Generate instance [seed] (via {!Gen.descriptor_of_seed}) and run
    every applicable check. Pure function of [seed] — safe to fan out on
    a {!Dia_parallel.Pool} and replayable with
    [oracle --seed N --count 1]. *)
