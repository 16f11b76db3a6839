(** Online client assignment under churn.

    Section VI of the paper contrasts client assignment with server
    placement: placement is a long-term decision, while "client
    assignment deals with only software connections ... it can be
    adjusted promptly to adapt to system dynamics". This module provides
    that dynamic counterpart of the offline algorithms: clients join and
    leave one at a time, each join is placed greedily to minimise the
    resulting maximum interaction-path length (the same rule an iteration
    of Greedy Assignment applies), and {!rebalance} runs
    Distributed-Greedy-style improving moves to repair accumulated
    drift.

    All operations are incremental: joins cost O(|S|²), leaves
    O(|S| + load), and a {!rebalance} round O(|S|·n) plus O(|S|²) per
    (node, server) pair at a longest-pair eccentricity, with an O(|C|)
    member fold only in a round that moves someone — no full re-solve.
    Every scan reads distances from two flat tables the session keeps,
    node × server and server × server, O(n·|S|) floats for an
    [n]-node network, both built by {!Dia_latency.Matrix.block}. The
    pair and row scans over eccentricities are {!Ecc}'s, on the
    server × server table: {!Ecc.longest} and {!Ecc.through} for the
    objective, {!Ecc.attach} for every placement scan, and
    {!Ecc.on_longest} for {!rebalance}'s candidates.

    {b Failover.} {!fail_server} re-homes a failed server's clients by
    the same join rule, one at a time — the paper's §IV greedy rule, so
    a crash needs no state armed in advance. *)

type t
(** A mutable dynamic assignment session. *)

type client_id = int
(** Stable handle for a joined client (never reused within a session). *)

val create :
  ?capacity:int -> ?delay:Delay.t -> Dia_latency.Matrix.t -> servers:int array -> t
(** A session over the given network with servers at the given nodes and
    no clients yet. The session's objective is [D] under its [delay]
    model ({!Objective.max_interaction_path} with that model): [D_load]
    under a load-dependent model, and the paper's [D] under the default
    {!Delay.zero}. {!objective}, {!lower_bound} and every placement scan
    (join, failover re-homing, {!rebalance}) read it.

    The session reads only the servers' rows of the matrix, so a
    rows-only matrix ({!Dia_latency.Synthetic.internet_like} [~rows])
    listing the servers serves it exactly as the full one does.

    @raise Invalid_argument on invalid servers (out of range, or a row
    that is not materialised), non-positive capacity, or an invalid
    delay model ({!Delay.validate}). *)

val join : t -> node:int -> client_id
(** A client at network node [node] joins; it is assigned to the
    unsaturated server that minimises the resulting objective (ties to
    the lowest server index).

    @raise Invalid_argument if [node] is out of range.
    @raise Failure if every server is saturated. *)

val leave : t -> client_id -> unit
(** The client departs; its server's eccentricity is recomputed.

    @raise Invalid_argument for unknown or already-departed ids. *)

val server_of : t -> client_id -> int
(** Current server index of a client.

    @raise Invalid_argument for unknown or departed ids. *)

val num_clients : t -> int
(** Currently connected clients. *)

val capacity : t -> int option
(** The per-server capacity the session was created with ([None] when
    uncapacitated). *)

val load : t -> int -> int
(** Number of clients currently assigned to a server.

    @raise Invalid_argument if the server index is out of range. *)

val move : t -> client_id -> int -> unit
(** Force-move a client to the given server (no-op when already there),
    updating loads, eccentricities and the move counter. Used by
    supervisors to apply an externally computed (e.g. protocol-level)
    repair plan move by move.

    @raise Invalid_argument for unknown/departed ids, out-of-range,
    failed, or saturated target servers. *)

val objective : t -> float
(** Current maximum interaction-path length under the session's delay
    model ([neg_infinity] when empty): each hop pays its server's
    network distance plus the delay of that server's current load, so
    without a model this is the paper's [D(A)]. Maintained
    incrementally over per-server effective eccentricities
    [l(s) + delay(load s)]: events that can only raise one (joins,
    move-ins, failover landings) fold their server's longest pair
    ({!Ecc.through}) into the cached value in O(|S|); events that lower
    one (a departure that lowers the eccentricity, or the delay — every
    departure under a load-dependent model) mark it dirty and the next
    call re-scans the pairs ({!Ecc.longest}) in O(|S|²). Either way the cost is independent of the number
    of clients, and the value is bit-identical to {!objective_scratch}. *)

val objective_scratch : t -> float
(** Reference recompute of {!objective} from the member table alone —
    O(|C| + |S|²), sharing no cached state and reading every distance
    from the (drifted) matrix rather than the session's tables. Exposed
    so tests can pin the incremental value to the from-scratch one
    exactly. *)

val lower_bound : t -> float
(** Super-optimal lower bound on D(A) over the {e live} servers and the
    currently occupied client nodes ([neg_infinity] when empty):
    bit-identical to {!Lower_bound.compute} on the problem whose clients
    are the occupied nodes in ascending order, whose servers are the
    live ones, over the current (drifted) matrix. Occupying a fresh node
    extends the cached maximum with that node's pairs in O(m·|S| +
    |S|²) for m occupied nodes; vacating one invalidates only when it
    carried the witness pair. Every server failure, recovery and drift,
    and {!restore}, invalidates, and the next call rebuilds with the
    pruned {!Lower_bound.scan} kernel, which computes only the reach
    entries its tests read; the session keeps those partial rows, and
    an extend completes a row on its first read. At about 210 occupied
    nodes and 20 servers a rebuild takes about 0.16 ms, against 0.40 ms
    when the scan filled every reach row and 9.6 ms with the former
    unpruned pair loop.

    Under a delay model the bound adds [2 · delay(1)]: in any assignment
    every serving server hosts at least one client and delay is monotone
    in load, so the witness pair pays at least one unit of delay at each
    end on top of its network path. Under {!Delay.zero} that term is an
    exact zero. *)

val lower_bound_scratch : t -> float
(** Reference recompute of {!lower_bound} sharing no cached state and
    reading the matrix, not the session's tables — O(m²·|S| + m·|S|²)
    for m occupied nodes. The incremental value is
    bit-identical to this, which tests enforce. *)

val rebalance : ?max_moves:int -> t -> int
(** Perform up to [max_moves] (default unlimited) strictly improving
    single-client moves, Distributed-Greedy style, and return how many
    were made. Each round moves the lowest-id client that realises its
    server's eccentricity on a longest pair and has an improving target.
    A move depends only on the client's (node, server), so a round first
    tries each occupied node at a longest-pair server's eccentricity and
    ends at once, skipping the member scan, when none would move.
    Afterwards (when not cut short by [max_moves]) no single move can
    reduce the objective. [max_moves <= 0] is a guaranteed no-op
    returning [0] — the migration budget can always be exhausted
    safely. *)

val snapshot : t -> Problem.t * Assignment.t
(** Materialise the current membership as an offline instance — for
    comparing against the offline algorithms or feeding the simulator.

    @raise Invalid_argument when no clients are connected. *)

type stats = { joins : int; leaves : int; moves : int }

val stats : t -> stats

val problem_version : t -> int
(** A counter that changes whenever the offline problem {!snapshot}
    materialises (its client nodes in id order, its servers and the
    drifted matrix) or {!active_servers} may have changed: {!join},
    {!leave}, {!fail_server} (stranded removals included),
    {!recover_server}, and a {!set_drift}
    that actually changes the factor each bump it by one. {!move} and
    {!rebalance} change only the assignment, and a
    same-factor {!set_drift} changes nothing, so they leave it alone. Equal
    versions of one session therefore mean an identical survivor problem,
    which lets callers memoise any pure function of it. A fresh or
    {!restore}d session starts at 0; the counter is not part of its
    {!image}. *)

val members : t -> (client_id * int * int) list
(** Current membership as [(id, node, server)] triples, ascending by id. *)

val active_servers : t -> int list
(** Server indices currently accepting clients (all of them until
    {!fail_server} is used), ascending. *)

val has_room : t -> bool
(** Whether some live server has a free slot, so a {!join} would be
    placed; O(|S|) and allocation-free. Always [true] uncapacitated. *)

val failed_servers : t -> int list
(** Complement of {!active_servers}, ascending. *)

val drift : t -> int -> float
(** Current latency-drift factor of a server (1.0 until {!set_drift}).

    @raise Invalid_argument if the server index is out of range. *)

val set_drift : t -> server:int -> factor:float -> unit
(** Rescale every latency to and from [server]'s node by [factor]
    (replacing any previous factor for that server; links between two
    drifted server nodes carry the product of the two factors). Models
    congestion or route change at a server site. The session's
    distance tables are patched where the matrix changed (the server
    node's row and column, O(n + |S|)), the eccentricities of the
    servers whose members moved are re-derived (those on a server at
    the drifted node, and those located at it: O(|C|) for the member
    pass plus O(log load) per re-filed member), and
    {!snapshot} materialises the drifted distances, so offline re-solves
    and lower bounds stay comparable with {!objective}. D and the lower
    bound are recomputed on their next query. The caller's matrix is
    never mutated: the first drift copies it, which costs the matrix's
    store — [r * n + n] doubles for a matrix holding [r < n - 1] rows
    (64 KB for 20 rows of 400 nodes), [n * n] for a full one. A drift
    writes the drifted row and that column of every other held row
    directly: O(n + r).

    @raise Invalid_argument if [server] is out of range or [factor] is
    not a positive finite number, or a drifted latency overflows; the
    session is then left half-patched. *)

type image = {
  capacity : int option;
  members : (client_id * int * int) list;  (** as {!members} returns them *)
  next_id : client_id;  (** the id the next {!join} will receive *)
  failed : int list;  (** as {!failed_servers} returns them *)
  drift : (int * float) list;  (** (server, factor), ascending, only factors <> 1 *)
  stats : stats;
}
(** The session's persisted state: everything {!restore} needs, and
    nothing it can recompute (loads, eccentricities, caches). *)

val image : t -> image

val restore :
  ?delay:Delay.t -> Dia_latency.Matrix.t -> servers:int array -> image -> t
(** Rebuild a session from its image: the exact inverse of {!image}.
    Loads and eccentricities are recomputed, so the restored session is
    behaviourally identical to the one that was saved, and
    [image (restore m ~servers (image t)) = image t].

    @raise Invalid_argument on out-of-range ids/nodes/servers, duplicate
    client ids, members on failed servers, ids at or above [next_id], a
    non-positive capacity, or capacity violations. *)

type failover = {
  rehomed : int;  (** orphans placed by the join rule *)
  stranded : (client_id * int) list;
      (** [(id, node)] of the orphans no live server had room for —
          disconnected from the session and reported here (never
          silently dropped), ascending by client id, with the network
          node so supervisors can requeue them; empty whenever the live
          servers have a free slot per orphan *)
}

val fail_server : t -> int -> failover
(** [fail_server t s] takes server [s] out of service: it stops
    accepting joins, and each client on it, in ascending id order, is
    re-homed by the {!join} rule — onto the live server with room that
    minimises the resulting objective. An orphan is stranded only when
    no live server has room, so [rehomed] is the smaller of the orphan
    count and the free slots the other live servers had. Callers that
    want the objective before or after, or a from-scratch re-solve,
    compute it themselves.

    @raise Invalid_argument if [s] is out of range, already failed, or
    the last live server (failing it would leave the session with no
    live servers — callers must treat that as total outage instead). *)

val recover_server : t -> int -> unit
(** Bring a failed server back into service (existing clients stay where
    they are; {!rebalance} will start using it again).

    @raise Invalid_argument if [s] is out of range or not failed. *)
