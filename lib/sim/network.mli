(** Simulated message-passing network.

    Delivers messages between {e actors} over an {!Engine}: a message
    from [src] to [dst] arrives after the latency given by a pairwise
    latency function, optionally perturbed by a jitter sampler. Actors
    are dense integers chosen by the caller — typically matrix node
    indices, or a role-split address space when one network node hosts
    both a server and a client (as in the paper, where a client sits at
    every node). Counts messages for protocol-cost reporting.

    An optional {!Fault} state makes the network unreliable: each
    transmission is resolved to deliver / drop / duplicate / delay, and
    actors can be down on the fault plan's crash schedule. Messages to
    or from a down actor are dropped,
    including messages already in flight when the destination goes down.
    All losses are counted, never silent. *)

type 'payload t

val create :
  ?jitter:(src:int -> dst:int -> base:float -> float) ->
  ?fault:Fault.t ->
  Engine.t ->
  actors:int ->
  latency:(int -> int -> float) ->
  'payload t
(** [create engine ~actors ~latency] is a network over actor ids
    [0 .. actors-1]. [latency src dst] must be non-negative and finite;
    [jitter] maps each transmission's base latency to the realised one
    (default: identity) and must also return a non-negative value.
    [fault] (default: none) injects seeded loss, duplication, latency
    spikes, partitions, and crashes — see {!Fault}. *)

val of_matrix :
  ?jitter:(src:int -> dst:int -> base:float -> float) ->
  ?fault:Fault.t ->
  Engine.t ->
  Dia_latency.Matrix.t ->
  'payload t
(** Actors are exactly the matrix's nodes. *)

val on_receive : 'payload t -> int -> (src:int -> 'payload -> unit) -> unit
(** [on_receive net actor handler] registers [actor]'s message handler
    (replacing any previous one). *)

val send : 'payload t -> src:int -> dst:int -> 'payload -> unit
(** Send a message; it is delivered to [dst]'s handler after the (possibly
    jittered) latency, unless the fault state drops, delays, or duplicates
    it. Self-sends deliver after the self-latency (usually zero), still
    asynchronously. Jitter is drawn independently for each duplicate copy.

    @raise Invalid_argument on out-of-bounds actors or invalid latency. *)

val messages_sent : 'payload t -> int
(** Total [send] calls (duplicate copies not included). *)

val messages_dropped : 'payload t -> int
(** Messages lost to faults or down actors (at send or delivery time). *)

val messages_duplicated : 'payload t -> int
(** Extra copies delivered beyond the original transmissions. *)

val undeliverable : 'payload t -> int
(** Messages that arrived at an actor with no registered handler —
    previously dropped silently, now observable. *)

val latency_of_last_message : 'payload t -> float
(** Realised latency of the most recent scheduled delivery ([nan] before
    any; unchanged by dropped sends). *)
