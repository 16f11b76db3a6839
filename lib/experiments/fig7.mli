(** Fig. 7 — normalized interactivity vs number of servers.

    Three panels: (a) random placement, averaged over repeated runs;
    (b) K-center-A placement; (c) K-center-B placement. Each curve is one
    of the four assignment algorithms; y-values are normalized against
    the super-optimal lower bound (1.0 = ideal). Uncapacitated. *)

type point = {
  servers : int;
  algorithm : Dia_core.Algorithm.t;
  normalized : float;  (** mean over runs for random placement *)
  stddev : float;  (** 0 for the deterministic placements *)
}

type panel = {
  strategy : Dia_placement.Placement.strategy;
  points : point list;
}

type result = {
  dataset : Config.dataset;
  profile : Config.profile;
  panels : panel list;  (** one per placement strategy, paper order *)
}

val run :
  ?dataset:Config.dataset ->
  ?profile:Config.profile ->
  ?jobs:int ->
  unit ->
  result
(** Defaults: Meridian-like data, [Config.default] profile, [jobs] from
    [DIA_JOBS] (then 1). The k-sweep of each panel fans out over a pool
    of [jobs] domains; results are bit-identical for any [jobs]. *)

val render : result -> string
(** Tables plus an ASCII plot per panel. *)

val csv : result -> string
(** CSV export: [placement,servers,algorithm,normalized,stddev]. *)
