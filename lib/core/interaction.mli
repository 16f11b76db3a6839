(** Interaction-path diagnostics.

    Operators do not just want the objective value — they want to know
    {e which} client pairs are slow and through which servers. These
    inspectors decompose the objective of Section II-A into its parts.
    {!worst_pairs} ranks only O(|S|²) candidate pairs and materialises
    the requested number. *)

type path = {
  from_client : int;
  to_client : int;
  from_server : int;  (** assigned server of [from_client] *)
  to_server : int;
  client_leg : float;  (** d(from_client, from_server) *)
  server_leg : float;  (** d(from_server, to_server) *)
  exit_leg : float;  (** d(to_server, to_client) *)
  length : float;
}

val path : Problem.t -> Assignment.t -> int -> int -> path
(** Decomposed interaction path between two client indices. *)

val worst_pairs : ?count:int -> Problem.t -> Assignment.t -> path list
(** The [count] (default 10) longest interaction paths, longest first.
    Computed from per-server worst clients, so only O(|S|²) candidate
    pairs are ranked — for each used server pair, the worst client on
    each side. Includes a client's round trip to itself. *)

val breakdown : Problem.t -> Assignment.t -> float * float
(** Of the objective [D(A)]: [(client_legs, server_leg)] — how much of
    the worst path is access latency vs inter-server latency. Their sum
    is [D(A)]. The paper's critique of Nearest-Server is precisely that
    it minimises the first at the expense of the second. *)
