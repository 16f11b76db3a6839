(** Client assignment problem instances.

    An instance is a complete latency matrix over network nodes, a set of
    server nodes [S], a set of client nodes [C], and an optional uniform
    per-server capacity (Section IV-E of the paper). Clients and servers
    are identified by {e indices} ([0 .. |C|-1] and [0 .. |S|-1]) into the
    instance's node arrays; all algorithm code works in index space and
    only touches node ids when reading the latency matrix. *)

type t

val make :
  ?capacity:int ->
  latency:Dia_latency.Matrix.t ->
  servers:int array ->
  clients:int array ->
  unit ->
  t
(** Build an instance. Server and client node ids must be in range for the
    matrix; servers must be distinct and non-empty (clients may coincide
    with servers or each other — the paper places a client at every node,
    including server nodes). Every server's row must be materialised
    ({!Dia_latency.Matrix.has_row}); clients need not be, since the
    instance only ever reads [d(c, s)] and [d(s, s')]. If [capacity] is
    given it must satisfy [capacity * |S| >= |C|], otherwise no
    assignment exists.

    @raise Invalid_argument if any constraint is violated. *)

val all_nodes_clients :
  ?capacity:int -> Dia_latency.Matrix.t -> servers:int array -> t
(** The paper's experimental setup: a client at every node of the matrix,
    servers at the given nodes. *)

val latency : t -> Dia_latency.Matrix.t
val servers : t -> int array
(** Server node ids (do not mutate). *)

val clients : t -> int array
(** Client node ids (do not mutate). *)

val num_servers : t -> int
val num_clients : t -> int

val capacity : t -> int option
(** Per-server capacity, [None] if uncapacitated. *)

val with_capacity : t -> int option -> t
(** Same instance under a different capacity regime.

    @raise Invalid_argument if the capacity is infeasible. *)

val d_cs : t -> int -> int -> float
(** [d_cs p c s] is the latency between client index [c] and server index
    [s]. O(1), no bounds re-checking beyond the matrix's. *)

val d_ss : t -> int -> int -> float
(** [d_ss p s1 s2] is the latency between two server indices. *)

val d_cc : t -> int -> int -> float
(** [d_cc p c1 c2] is the direct latency between two client indices (not
    used by the objective, which always routes through servers, but useful
    for diagnostics). *)

val cs_table : t -> float array
(** [cs_table p] is a fresh flat client-major snapshot of the
    client-server distance block: entry [c * |S| + s] is [d_cs p c s],
    bit-identical. O(|C||S|) to build with one bounds check per client
    row; callers index it unchecked. Being a snapshot, it does not track
    later in-place mutation of the latency matrix. *)

val sc_table : t -> float array
(** [sc_table p] is the server-major transpose of {!cs_table}: entry
    [s * |C| + c] is [d_cs p c s]. Preferred when inner loops run over
    clients at a fixed server. *)

val ss_table : t -> float array
(** [ss_table p] is a fresh flat snapshot of the server-server block:
    entry [s * |S| + s'] is [d_ss p s s']. *)

val nearest_server : t -> int -> int
(** [nearest_server p c] is the server index minimising [d_cs p c], ties
    broken by lowest index. O(|S|). *)
