(** Reference implementations kept only to be diffed against the
    production kernels.

    Each function is the straightforward form of an algorithm whose
    production version trades clarity for speed; the oracle and the
    test suite require the two to agree bit for bit. *)

val greedy_load :
  delay:Dia_core.Delay.t -> Dia_core.Problem.t -> Dia_core.Assignment.t
(** Load-aware Greedy as first written: every step re-sorts the
    unassigned clients per server with a comparison sort and boxes
    every candidate. O(|S||C| log |C|) per iteration. Same batch
    selection, float expressions and tie order as
    {!Dia_core.Greedy.assign} under the same model, which must return
    the identical assignment. *)

val greedy : Dia_core.Problem.t -> Dia_core.Assignment.t
(** Greedy Assignment as first written, without the sorted-list/index
    bookkeeping: every iteration recomputes Δn by scanning all
    unassigned clients per candidate pair. O(|S||C|²) per iteration
    instead of O(|S||C|); produces the same assignment as
    {!Dia_core.Greedy.assign} on tie-free data (exact distance ties may
    batch in a different order). The bench harness times it as
    [assign/greedy-reference]. *)

val kcenter_greedy : Dia_latency.Matrix.t -> k:int -> int array
(** K-center-B as first written: every step computes every candidate's
    full radius over all nodes in index order. O(k n²). Same centers as
    {!Dia_placement.Kcenter.greedy}, whose scans stop early, bit for bit
    (ties included).

    @raise Invalid_argument unless [0 <= k <= dim]. *)

val distributed_greedy : Dia_core.Problem.t -> Dia_core.Distributed_greedy.result
(** Distributed-Greedy from the Nearest-Server start, as first written:
    every pair scan and every target's {!Dia_core.Ecc.attach} runs in
    full. Same assignment, trace and stats as
    {!Dia_core.Distributed_greedy.run}, whose scans stop early. *)
