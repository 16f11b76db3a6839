(** Registry of the client assignment algorithms.

    A single dispatch point used by the CLI, the experiment harness, and
    the benches, so every consumer names and orders the algorithms
    identically to the paper's figures. *)

type t =
  | Nearest_server
  | Longest_first_batch
  | Greedy
  | Distributed_greedy
  | Single_server  (** baseline: all clients on the best single server *)
  | Random_assignment  (** baseline: uniform random *)

val heuristics : t list
(** The paper's four algorithms, in figure order. *)

val all : t list
(** Heuristics plus baselines. *)

val name : t -> string
(** Display name matching the paper's figures (e.g.
    ["Nearest-Server"]). *)

val key : t -> string
(** Machine-friendly identifier (e.g. ["nearest"]). *)

val of_key : string -> t option

val run : ?seed:int -> ?delay:Delay.t -> t -> Problem.t -> Assignment.t
(** Execute the algorithm. [seed] (default [0]) only affects
    [Random_assignment]. Capacitated variants are selected automatically
    by the instance's capacity.

    [delay] selects the load-aware variant where one exists:
    {!Nearest.assign} and {!Greedy.assign} take the model (omitting it
    is {!Delay.zero}, the paper's algorithm), and Distributed-Greedy
    switches to {!Distributed_greedy.assign_load} — a different search,
    so even [~delay:Delay.zero] can end elsewhere than the paper's
    protocol. The remaining algorithms return their load-blind
    assignment (callers score it under [D_load] all the same). *)
