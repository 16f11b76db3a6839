(** Exact textual encoding helpers shared by the checkpoint format and
    the event log.

    Everything the control plane persists must survive a
    serialize/parse cycle {e bit-identically} — resume correctness is
    proved by comparing whole reports for equality, so a float that
    comes back off by one ulp is a determinism bug. These helpers
    guarantee exact round trips while staying human-readable. *)

val float_str : float -> string
(** Shortest of [%g]/[%.12g]/[%.17g] that parses back to the identical
    double; [inf], [-inf] and [nan] spelled so {!float_of_str} accepts
    them. *)

val float_of_str : string -> float
(** Inverse of {!float_str}.

    @raise Failure on malformed input. *)

