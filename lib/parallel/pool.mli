(** Deterministic multicore execution for the assignment pipeline.

    A fixed-size pool of worker {!Domain}s (stdlib only — no domainslib)
    over which embarrassingly parallel loops are fanned out in chunks.

    Pools reach the sites that ran faster on two domains than on one
    (2-core host, interleaved): [Local_search.anneal_restarts],
    [Oracle.run]'s seed fan-out, and the Fig. 7 k-sweep and Fig. 8 seed
    sweep. The lower bound and the K-center placements run
    sequentially: the bound saved at most about 3 ms of a [dia assign]
    command on two domains, and the placements read 0.48-0.93x.

    {b Determinism contract.} Every primitive returns results that are
    bit-identical to a sequential execution of the same loop, for any
    pool size:

    - chunk boundaries are a pure function of the input size and the
      pool size — never of scheduling;
    - each chunk writes only its own disjoint slots, and results are
      combined on the caller's domain in chunk (= index) order;
    - stochastic tasks run under {!run_seeds} must derive their own
      [Random.State] from the seed they are handed, never share one.

    A pool with [jobs = 1] spawns no domains and runs every primitive as
    straight sequential code. Nested submissions (a task running on the
    pool calling back into the same — or any — pool) are detected and
    run inline sequentially, so a kernel that takes a pool may also run
    inside a pool task without deadlock. *)

type t

val max_jobs : int
(** [128]: OCaml 5's limit on domains running at once. *)

val default_jobs : unit -> int
(** The [DIA_JOBS] environment variable if set to an integer in
    [1 .. max_jobs], else [1]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the submitting
    domain participates in every batch, so [jobs] domains cooperate).
    [jobs] defaults to {!default_jobs}.

    @raise Invalid_argument unless [1 <= jobs <= max_jobs], before any
    domain is spawned. *)

val jobs : t -> int
(** The pool size it was created with. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent. Any later submission
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exceptions. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** Order-preserving parallel [Array.init], over {!chunk_map}. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]. *)

val run_seeds : t -> seeds:int -> (int -> 'a) -> 'a array
(** [run_seeds t ~seeds f] fans [f 0 .. f (seeds - 1)] out to the
    workers and collects the results in seed order. Each task must seed
    its own [Random.State] from its argument. *)

val chunk_map : t -> n:int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [chunk_map t ~n f] splits [0 .. n-1] into contiguous chunks and
    returns [f ~lo ~hi] per chunk, in chunk order: the one batch body
    every other primitive runs. The number of chunks depends on the pool
    size (sequentially it is a single chunk), so the caller's combine
    step must be chunking-invariant — exact operations such as [max] or
    first-strict-improvement argmin qualify, float addition does not
    (map with {!init}, then fold in index order).

    {b Chunk granularity.} A batch is oversplit into [4 * jobs] chunks
    so uneven loops balance — but only when every chunk keeps at least
    4 items; smaller batches are issued as at most one chunk per worker,
    because per-chunk dispatch and setup overhead would otherwise
    dominate (a small seed sweep at [jobs = 4] once ran 6.7x slower than
    sequentially). *)

val exercised : t -> int
(** Number of batches that actually ran on worker domains — exposed so
    tests can assert the parallel path was taken. *)
