(** The conformance harness driver.

    [run ~seed ~count ()] checks [count] generated instances with
    absolute seeds [seed .. seed + count - 1] — each one a pure function
    of its seed, fanned out on a {!Dia_parallel.Pool} and folded back in
    seed order, so the report is bit-identical for any [jobs]. On top of
    the per-instance checks ({!Differential.check_instance}) the driver
    adds whole-suite checks that cannot run inside the fan-out:

    - {b pool identity}: {!Local_search.anneal_restarts} on the pool
      must be bit-identical to its sequential run (nested pool
      submissions execute inline, so this is only a real test at top
      level);
    - {b aggregate dominance}: over a large enough sample ([>= 100]
      instances with a usable [LB]), the paper's quality ordering of the
      mean normalized objective must hold — Greedy and LFB no worse on
      average than Nearest-Server, within a small statistical slack;
    - {b soak determinism}: a control-plane soak run
      ({!Dia_runtime.Soak}) killed at its first checkpoint and resumed
      through the checkpoint codec must produce a report and event log
      bit-identical to the uninterrupted run.

    Every failure is reported with the absolute instance seed; replay
    one with [bin/main.exe oracle --seed N --count 1]. *)

type report = {
  base_seed : int;
  instances : int;
  checks : int;  (** total individual checks evaluated *)
  failures : (int * string) list;
      (** [(instance_seed, message)] — suite-level failures carry
          [base_seed] *)
  brute_checked : int;  (** instances cross-checked against the optimum *)
  sim_checked : int;  (** instances run through the checked simulation *)
  transport_checked : int;  (** instances run through the lossy protocol *)
  mean_normalized : (string * float) list;
      (** algorithm key -> mean [D / LB] over the uncapacitated
          instances with [LB > 0] (capacity changes the dominance
          relations, so they are excluded from the aggregate) *)
  normalized_instances : int;  (** instances included in the means *)
  greedy_monotonic_violations : int;
      (** diagnostic: instances where one more server worsened Greedy *)
  greedy_monotonic_total : int;
  load_greedy_losses : int;
      (** diagnostic: instances where load-aware Greedy was worse than
          load-blind Greedy on [D_load] (measured over every instance) *)
}

val run : ?jobs:int -> ?count:int -> seed:int -> unit -> report
(** [count] defaults to [200]; [jobs] to
    {!Dia_parallel.Pool.default_jobs} (the [DIA_JOBS] environment
    variable). *)

val ok : report -> bool

val render : report -> string
(** Human-readable multi-line summary including replay commands for
    every failure. *)
