(** Shared per-instance evaluation used by every figure runner.

    One "evaluation" places servers, runs each requested algorithm, and
    normalises its objective against the super-optimal lower bound —
    exactly the quantity on the y-axis of every figure in Section V.

    One evaluation runs sequentially. A figure gains from a pool by
    fanning whole evaluations out ({!average_normalized}'s seeds, the
    Fig. 7 k-sweep, the Fig. 8 seed sweep); results are bit-identical
    for any pool size. *)

type evaluation = {
  servers : int array;  (** node ids of the placed servers *)
  lower_bound : float;
  results : (Dia_core.Algorithm.t * float) list;  (** raw objective D(A) *)
}

val algorithms : Dia_core.Algorithm.t list
(** The paper's four heuristics, figure order. *)

val evaluate :
  ?capacity:int ->
  ?algorithms:Dia_core.Algorithm.t list ->
  Dia_latency.Matrix.t ->
  servers:int array ->
  evaluation
(** Clients at every node; run the algorithms and the lower bound. *)

val normalized : evaluation -> (Dia_core.Algorithm.t * float) list
(** [D(A) / LB] per algorithm. *)

val place_and_evaluate :
  ?capacity:int ->
  ?seed:int ->
  Dia_latency.Matrix.t ->
  strategy:Dia_placement.Placement.strategy ->
  k:int ->
  evaluation
(** Place [k] servers with the strategy (seeded for random placement and
    K-center-A), then {!evaluate}. *)

val average_normalized :
  ?capacity:int ->
  ?pool:Dia_parallel.Pool.t ->
  Dia_latency.Matrix.t ->
  runs:int ->
  k:int ->
  (Dia_core.Algorithm.t * Dia_stats.Summary.t) list
(** Random placement repeated over seeds [0 .. runs-1]: the per-algorithm
    distribution of normalized interactivity (Fig. 7a / Fig. 10a style
    averaging). With [pool], seeds are evaluated on worker domains and
    aggregated in seed order — same bits as the sequential loop. *)

val with_timing : label:string -> jobs:int -> (unit -> 'a) -> 'a
(** Run a thunk, logging its wall time and worker count on the
    [dia.experiments] log source — only when the [DIA_VERBOSE]
    environment variable is set (which also installs a stderr reporter
    if none is configured). *)
