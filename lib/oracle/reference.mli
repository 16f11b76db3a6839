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
