(** Load sweep — how much of the interaction path is queueing delay.

    Not a figure from the paper: the paper's capacitated experiment
    (Fig. 10) hard-caps servers but keeps latency load-independent. This
    sweep ramps the client population from near-empty to 95% of total
    capacity on a fixed deployment and scores every point under both the
    classic objective [D] and the load-aware [D_load] (see
    [lib/core/delay] and DESIGN section 14). With the default M/M/1
    model ([mu = capacity]) the gap between the two curves is exactly
    the queueing cost of ignoring load, and it explodes as utilization
    approaches 1 — the motivation for the load-aware variants. *)

type point = {
  utilization : float;  (** clients / (servers * capacity), the target *)
  clients : int;  (** actual population, [max 1 (round target)] *)
  d_blind : float;  (** [D] of load-blind Greedy *)
  d_load_blind : float;  (** [D_load] of that same assignment *)
  d_load_aware : float;  (** [D_load] of load-aware Greedy *)
  lb : float;
  lb_load : float;  (** [lb + 2 * delay(1)] *)
}

type result = {
  dataset : Config.dataset;
  profile : Config.profile;
  servers : int;
  capacity : int;
  delay : Dia_core.Delay.t;
  points : point list;
}

val run :
  ?dataset:Config.dataset ->
  ?profile:Config.profile ->
  ?capacity:int ->
  ?delay:Dia_core.Delay.t ->
  ?steps:float list ->
  unit ->
  result
(** Deterministic: random placement with seed 0, clients cycling over
    the matrix nodes. [capacity] defaults to 25 (paper units); [delay]
    to [Queueing { mu = float capacity }]; [steps], the utilizations
    swept, to [0, 0.1 .. 0.9, 0.95]. *)

val render : result -> string

val csv : result -> string
(** CSV export:
    [utilization,clients,d,d_load_blind,d_load_aware,lb,lb_load]. *)
