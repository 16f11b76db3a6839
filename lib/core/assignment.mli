(** Client assignments.

    An assignment maps every client index of a {!Problem} instance to a
    server index — the paper's [sA : C -> S]. Stored as a plain int array
    indexed by client. *)

type t

val of_array : Problem.t -> int array -> t
(** [of_array p a] validates that [a] has one entry per client and every
    entry is a valid server index. The array is copied.

    @raise Invalid_argument otherwise. *)

val unsafe_of_array : int array -> t
(** Wrap without validation or copy — for algorithm internals that build
    the array themselves. *)

val to_array : t -> int array
(** A fresh copy of the underlying array. *)

val server_of : t -> int -> int
(** [server_of a c] is the server index client [c] is assigned to. *)

val num_clients : t -> int

val loads : Problem.t -> t -> int array
(** [loads p a] counts assigned clients per server index. *)

val used_servers : Problem.t -> t -> int array
(** Server indices with at least one client, ascending. *)

val respects_capacity : Problem.t -> t -> bool
(** Whether no server exceeds the instance capacity (always true for
    uncapacitated instances). *)

val equal : t -> t -> bool

val constant : Problem.t -> int -> t
(** [constant p s] assigns every client to server [s].

    @raise Invalid_argument if [s] is out of range. *)

val random : Problem.t -> seed:int -> t
(** Uniform random server per client. Ignores capacity. *)
