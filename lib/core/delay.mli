(** Load-dependent server delay models.

    The paper's [D(A)] charges a pure network distance per hop; under
    production load a server also charges for its queue. A delay model
    maps a server's integer load (assigned clients) to the extra delay
    that server adds to {e each} hop through it, extending the
    objective to [D_load]. Every evaluator and solver that takes a
    [?delay] argument ({!Objective.max_interaction_path},
    {!Greedy.assign}, {!Nearest.assign}, {!Brute_force.optimal},
    {!Dynamic.create}) defaults it to {!zero}, under which [D_load] is
    the paper's [D] bit for bit: there is one code path per concept,
    and the paper's objective is its zero-delay case.

    Every model is {b non-negative} and {b monotone non-decreasing} in
    the load — both are load-bearing: non-negativity keeps
    [D_load >= D] pointwise, monotonicity makes a join a monotone raise of
    its server's effective eccentricity, so the O(k) incremental bump
    machinery carries over unchanged. *)

type t =
  | Constant of float  (** fixed per-hop delay, independent of load *)
  | Linear of { base : float; coeff : float }
      (** [base + coeff * load] — a processor-sharing style model *)
  | Queueing of { mu : float }
      (** M/M/1-style response time [1 / (mu - load)], clamped to stay
          finite and totally ordered near and past saturation: values
          are capped at {!saturation} while [load < mu], and a
          saturated server pays [saturation + (load - mu + 1)] — still
          strictly increasing in the backlog, never infinite or NaN. *)

val saturation : float
(** The finite stand-in for an unbounded queueing delay ([1e9]) —
    large enough to dominate any network distance. *)

val zero : t
(** [Constant 0.]: no load-dependent delay. The default model everywhere
    one is optional; adding its exact zeros leaves every distance sum
    unchanged. *)

val validate : t -> unit
(** @raise Invalid_argument unless all parameters are finite,
    [Constant]/[Linear] parameters are in [\[0, saturation\]] and
    [mu > 0]. The cap keeps {!eval} finite: a larger constant or
    coefficient would overflow a path sum to infinity. *)

val eval : t -> int -> float
(** [eval t load] is the per-hop delay a server with [load] assigned
    clients charges. Always finite, [>= 0], and monotone non-decreasing
    in [load].

    @raise Invalid_argument on negative load. *)

val to_string : t -> string
(** Canonical spec syntax: [constant:C], [linear:BASE,COEFF] or
    [mm1:MU], with parameters printed so {!of_string} round-trips
    exactly. *)

val of_string : string -> (t, string) result
(** Parse the spec syntax ([constant:C] | [linear:BASE,COEFF] |
    [mm1:MU]); rejects non-finite or out-of-range parameters (the same
    ranges as {!validate}) with an [Error] naming the parameter. *)

val pp : Format.formatter -> t -> unit
