(** Exact textual encoding helpers shared by the checkpoint format, the
    event log and the journal.

    Everything the control plane persists must survive a
    serialize/parse cycle {e bit-identically} — resume correctness is
    proved by comparing whole reports for equality, so a float that
    comes back off by one ulp is a determinism bug. These helpers
    guarantee exact round trips while staying human-readable.

    {b The decimal renderer.} {!float_str} is C's [%.Pg] for
    [P] ∈ \{6, 12, 17\}, computed in OCaml on native ints. A positive
    double is [m * 2^e] with a 53-bit [m]; for [2^-7 <= |f| < 2^62],
    [-59 <= e <= 9], so the integer part [m lsl e] fits an int and each
    fraction digit is [k * 10 lsr q] for the remaining numerator
    [k < 2^q], [q = -e <= 59]: [k * 10 < 10 * 2^59 < 2^63], exact in an
    int read unsigned. The [P] digits round half to even from the next
    digit and a sticky bit (any non-zero digit after it), the rounding
    glibc's [printf] applies in the default rounding mode; the layout is
    [%g]'s (style by the rounded exponent, trailing zeros dropped). The
    round-trip test compares the cut-off tail with half the gap to each
    neighbouring double in the same ints, instead of parsing the
    rendering back.

    {b Fallback.} Zero, subnormals, [|f| < 2^-7], [|f| >= 2^62], the
    infinities and nan go through C's [printf] ([caml_format_float]) and
    [float_of_string], exactly as before the OCaml renderer existed.

    {b Referee.} glibc's [printf]: [Dia_oracle.Reference.float_str]
    keeps the three-format C rendering, and the test suite requires the
    two to agree byte for byte on seeded draws (CI runs 10^7 of them). *)

val float_str : float -> string
(** Shortest of [%g]/[%.12g]/[%.17g] that parses back to the identical
    double; [inf], [-inf] and [nan] spelled so {!float_of_str} accepts
    them. *)

val add_float : Buffer.t -> float -> unit
(** [Buffer.add_string b (float_str f)] without the intermediate
    string. *)

val add_int : Buffer.t -> int -> unit
(** [Buffer.add_string b (string_of_int n)] without the C call or the
    intermediate string. *)

val add_hex : Buffer.t -> float -> unit
(** [Printf.bprintf b "%h" f]: OCaml's exact hexadecimal float notation,
    which {!float_of_str} reads back. *)

val float_of_str : string -> float
(** Inverse of {!float_str} and {!add_hex}.

    @raise Failure on malformed input. *)
