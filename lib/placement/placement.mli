(** Server placement strategies.

    The paper's experiments place [k] servers at selected network nodes in
    three ways: uniformly at random, and with two minimum-K-center
    algorithms (Section V): a 2-approximation ("K-center-A") and a greedy
    heuristic ("K-center-B"). A placement is an array of distinct node
    indices into the latency matrix. *)

type strategy = Random_placement | K_center_a | K_center_b

val strategy_name : strategy -> string
(** ["random"], ["kcenter-a"], ["kcenter-b"]. *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name}. *)

val all_strategies : strategy list

val random : seed:int -> k:int -> n:int -> int array
(** [random ~seed ~k ~n] draws [k] distinct nodes from [0 .. n-1]
    uniformly (partial Fisher-Yates), sorted ascending.

    @raise Invalid_argument unless [0 <= k <= n]. *)

val place : strategy -> ?seed:int -> Dia_latency.Matrix.t -> k:int -> int array
(** Place [k] servers on the nodes of a latency matrix with the given
    strategy. [seed] (default [0]) only affects [Random_placement] and
    K-center-A's choice of initial centre.

    @raise Invalid_argument unless [0 <= k <= dim]. *)
