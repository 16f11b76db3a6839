(** The super-optimal lower bound on the maximum interaction-path length.

    Section V of the paper normalises every algorithm against
    [LB = max over client pairs (c, c') of
         min over server pairs (s, s') of d(c,s) + d(s,s') + d(s',c')].
    Each client pair may pick its own best server pair, so the bound is
    generally unachievable by any single assignment ("super-optimum"), but
    [LB <= D(A)] for every assignment [A]. *)

val compute : ?pool:Dia_parallel.Pool.t -> Problem.t -> float
(** The lower bound. [neg_infinity] for instances with no clients.
    Runs in O(|C| |S|² + |C|² |S|) with an O(1)-per-pair pruning test
    that skips most inner scans on Internet-like data.

    With [pool], both the reach-cost table and the client-pair scan fan
    out over the pool's domains, one contiguous block of client rows per
    chunk; the result is bit-identical to the sequential scan for any
    pool size (pruning never changes the max, and per-chunk bests are
    combined by an exact max in chunk order). *)

type scan = {
  value : float;  (** the bound, [neg_infinity] with no clients *)
  wa : int;
  wb : int;  (** a client pair [wa <= wb] realising [value]; [-1] with none *)
  reach : float array;  (** [reach.(c * k + s') = min_s d(c,s) + d(s,s')] *)
}

val scan :
  ?pool:Dia_parallel.Pool.t -> k:int -> cs:float array -> ss:float array -> int -> scan
(** [scan ~k ~cs ~ss n]: the kernel behind {!compute} on a flat snapshot
    of [n] clients and [k] servers in the layouts of {!Problem.cs_table}
    and {!Problem.ss_table}. A pair [c <= c'] is evaluated as
    [min_s' reach(c,s') + d(c',s')], so the client order fixes each
    pair value's float association. *)

val normalized : Problem.t -> Assignment.t -> float
(** [normalized p a] is [D(A) / LB], the paper's "normalized
    interactivity" (1.0 is ideal). [nan] when the bound is zero or the
    instance has no clients. *)
