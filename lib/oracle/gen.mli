(** Seeded problem-instance generators for the conformance harness.

    Every instance the oracle checks is described by a small, pure
    {!descriptor}; {!instantiate} derives the actual {!Dia_core.Problem}
    deterministically from it. The descriptor — not the instance — is
    what the harness enumerates, shrinks, and prints, so a failing check
    is always reproducible from one integer seed
    ([dia oracle --seed N --count 1]).

    The kinds cover the paper's experimental regimes plus the degenerate
    corners the algorithms must survive: true metrics (random Euclidean
    embeddings, grid graphs), Internet-like matrices with triangle
    violations, aggressively non-metric i.i.d. matrices, clustered/Zipf
    client populations (many clients per node), capacitated variants,
    one-server instances, instances with at least as many servers as
    clients, and duplicate coordinates (zero inter-node distances and
    massive distance ties). *)

type kind =
  | Metric_euclidean  (** random points in a square; true metric *)
  | Metric_grid  (** grid-graph shortest paths; metric with many ties *)
  | Internet  (** clustered, heavy-tailed, triangle violations *)
  | Uniform_nonmetric  (** i.i.d. uniform entries; adversarially non-metric *)
  | Clustered_zipf  (** Internet-like matrix, Zipf-weighted client placement *)
  | Single_server  (** |S| = 1 *)
  | Server_heavy  (** |S| >= |C| *)
  | Duplicate_coords  (** duplicated embedding points: zero distances, ties *)
  | Weighted_stacked
      (** the whole population stacked on a few hub nodes of an
          Internet-like matrix — the weighted/coreset regime, clients
          well beyond the node count *)
  | Clustered_scale
      (** tight Euclidean clusters with clients beyond the node count;
          metric, and the geometry a coreset collapses best *)
  | Load_heavy
      (** a big population crowding the nodes of at most four servers
          (Internet-like matrix): per-server utilisation is high and the
          queueing term of [D_load] dominates the network term — the
          regime where load-blind and load-aware assignment disagree *)

val kinds : kind list

val is_metric : kind -> bool
(** Whether instances of this kind satisfy the triangle inequality — the
    precondition of the paper's 3-approximation theorems. *)

type descriptor = {
  kind : kind;
  seed : int;  (** drives every random choice during instantiation *)
  nodes : int;  (** latency-matrix dimension (before normalisation) *)
  servers : int;  (** requested server count *)
  clients : int;  (** requested client count (kinds with free clients) *)
  capacitated : bool;  (** derive a feasible per-server capacity *)
}

val descriptor_of_seed : int -> descriptor
(** The harness's enumeration: a deterministic descriptor per integer
    seed, cycling uniformly over the kinds with randomised sizes.
    Seeds with [seed mod 4 = 0] produce brute-force-sized instances
    ({!brute_sized}), so one quarter of any contiguous seed range is
    cross-checked against the exact optimum. *)

val brute_sized : descriptor -> bool
(** Small enough (<= 10 clients, <= 4 servers after normalisation) that
    {!Dia_core.Brute_force.optimal} is cheap and the exact-optimality
    checks run. *)

val instantiate : descriptor -> Dia_core.Problem.t
(** Build the instance. Total: out-of-range fields are normalised (e.g.
    [servers] is clamped to the node count), never rejected, so shrunk
    descriptors always instantiate. *)

val tie_free : Dia_core.Problem.t -> bool
(** The distance function is injective over the distinct node pairs the
    algorithms consult, and no client sees two servers at the same
    distance. The same matrix entry appearing twice — a server that is
    also a client, two clients on one node — relabels consistently and
    is {e not} a tie. Index-based tie-breaking is then immaterial, which
    is the precondition for the {e algorithm-level}
    relabeling-invariance and lossy-transport-identity checks (the
    evaluator-level checks need no such guard). *)

val pp_descriptor : Format.formatter -> descriptor -> unit

val arbitrary : descriptor QCheck.arbitrary
(** QCheck generator over descriptors with deterministic shrinking:
    node/server/client counts shrink toward the minimum, the capacity
    toward absent, and the seed toward 0 — so qcheck failures surface
    minimal counterexample instances. *)

(** {2 Persisted floats}

    Draws for diffing {!Dia_runtime.Codec.float_str} against the C
    rendering it replaced ({!Reference.float_str}). *)

val codec_float : Random.State.t -> int -> float
(** Draw [i] comes from family [i mod 7]: uniform in [\[0, 350)] (event
    times), in [\[0, 1e6)] and in [(-2, 0\]]; a random bit pattern of
    either sign (subnormals, infinities and nans included); [1 + u]
    times [2^e] for [e] in [-8 .. 61], the OCaml renderer's range and
    just past its lower end; [k / 10^4] at -1, 0 or +1 ulp; and an odd
    integer of 1 to 53 bits times a power of two, whose decimal
    expansion is short enough to put an exact tie in the 17th digit. *)

val codec_edges : float list
(** +0 and -0, the smallest subnormal, [min_float], 2^-7 and 2^62 and
    their predecessors, [max_float], the infinities, nan, and %g's style
    switch points 1e-5, 1e-4, 1e6, 1e12 and 1e17, each at -1, 0 and +1
    ulp. *)
