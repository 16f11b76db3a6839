(* Direct implementation of the paper's Fig. 6, with one strengthening:
   line 11's max over assigned clients b of d(s, sA(b)) + d(sA(b), b) is
   computed from per-server eccentricities (O(|S|) instead of O(|C|)).

   Tie-breaking on the cost Δl/Δn: costs are compared as cross-products
   (Δl1 * Δn2 vs Δl2 * Δn1) to avoid float division, with ties broken by
   larger Δn (bigger batch for the same amortised cost), then by server
   and client index for determinism. *)

(* Per-server live lists: every client in Ls order (distance to s
   ascending, ties by client index) from the server-major snapshot. *)
let live_lists dsc ~n ~k =
  Array.init k (fun s ->
      let order = Array.init n Fun.id in
      Keysort.by_key ~base:(s * n) dsc order;
      order)

(* Drop the clients a commit just assigned from every live list,
   keeping the survivors' order. *)
let compact unass ulen result =
  for s = 0 to Array.length unass - 1 do
    let live = unass.(s) in
    let w = ref 0 in
    for i = 0 to ulen.(s) - 1 do
      let c = Array.unsafe_get live i in
      if Array.unsafe_get result c < 0 then begin
        Array.unsafe_set live !w c;
        incr w
      end
    done;
    ulen.(s) <- !w
  done

(* [Float.max] with its common cases decided inline. When one argument
   is strictly greater it is Float.max's answer; equal arguments (where
   Float.max puts +0. above -0.) and NaN fall through to Float.max
   itself, so the result is Float.max's bit for bit. The stdlib version
   reads sign bits through a C call whenever [y > x] fails. *)
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

(* The batch selection on the D_load objective; under the default
   [Delay.zero] that is the paper's D. A candidate batch (s, Δn closest
   unassigned clients, farthest c) raises s's effective eccentricity to
   [max(ecc s, d) + delay(load s + Δn)] — the batch pays the marginal
   delay it inflicts on everything routed through s — while every other
   used server keeps [eff s' = ecc s' + delay(load s')]. Because delay
   is monotone in load, stale s-pairs in the running maximum are
   dominated by the new terms, so
   [len = max(cur_max, 2·new_eff, new_eff + m')] is exactly the
   resulting D_load. Candidates are compared as the file header says:
   cross-product Δl/Δn, ties by larger Δn then (s, c).

   Flat server-major snapshots ([dsc.(s * n + c) = d_cs p c s]) keep
   every inner loop contiguous and unchecked. [unass.(s)] holds the
   unassigned clients in Ls order (distance to s ascending, ties by
   client index), compacted after every commit: the paper's index[s, c]
   — the Δn of candidate (s, c) — is then c's position + 1, a batch is
   a prefix (so Δn = 1 stays feasible on an unsaturated server even
   under massive distance ties), and both the candidate scan and the
   commit walk only live entries. That comparison is a strict total
   order, so the winner does not depend on enumeration order. [dtab.(l)] holds
   [Delay.eval delay l] for every reachable load (load s + Δn never
   exceeds n), [eff] is refreshed only for the server a commit changes,
   and the best candidate lives in scalars, so the inner loop allocates
   nothing. Every float expression is the one the load-greedy reference
   in the oracle evaluates ([fmax] is its [Float.max], signed zeros
   included), over the same doubles in the same candidate order, so the
   assignment is bit-identical to it. *)
let assign ?(delay = Delay.zero) p =
  Delay.validate delay;
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let result = Array.make n (-1) in
  if n > 0 then begin
    let dsc = Problem.sc_table p in
    let dss = Problem.ss_table p in
    let dtab = Array.init (n + 1) (Delay.eval delay) in
    let unass = live_lists dsc ~n ~k in
    let ulen = Array.make k n in
    let ecc = Array.make k neg_infinity in
    let eff = Array.make k neg_infinity in
    let load = Array.make k 0 in
    let max_len = ref 0. in
    let remaining = ref n in
    let best_num = ref 0. and best_den = ref 0 and best_len = ref 0. in
    let best_c = ref (-1) and best_s = ref (-1) in
    while !remaining > 0 do
      best_c := -1;
      for s = 0 to k - 1 do
        let ls = load.(s) in
        if ls < capacity then begin
          (* m' over used servers other than s: their load is unchanged
             by this batch, so their effective eccentricity stands. *)
          let m = ref neg_infinity in
          let sbase = s * k in
          for s' = 0 to k - 1 do
            if s' <> s && ecc.(s') > neg_infinity then
              m := fmax !m (Array.unsafe_get dss (sbase + s') +. eff.(s'))
          done;
          let m = !m in
          let es = ecc.(s) in
          let cur_max = !max_len in
          let room = capacity - ls in
          let base = s * n in
          let live = unass.(s) in
          let stop = if room < ulen.(s) then room else ulen.(s) in
          for i = 0 to stop - 1 do
            let c = Array.unsafe_get live i in
            let d = Array.unsafe_get dsc (base + c) in
            let den = i + 1 in
            let new_eff = fmax es d +. Array.unsafe_get dtab (ls + den) in
            let len =
              fmax (2. *. new_eff) (fmax (new_eff +. m) cur_max)
            in
            let num = len -. cur_max in
            let take =
              !best_c < 0
              ||
              let cross =
                Float.compare
                  (num *. float_of_int !best_den)
                  (!best_num *. float_of_int den)
              in
              if cross <> 0 then cross < 0
              else if den <> !best_den then den > !best_den
              else s < !best_s || (s = !best_s && c < !best_c)
            in
            if take then begin
              best_num := num;
              best_den := den;
              best_len := len;
              best_c := c;
              best_s := s
            end
          done
        end
      done;
      assert (!best_c >= 0);
      let s_star = !best_s in
      let live = unass.(s_star) in
      let sbase = s_star * n in
      for i = 0 to !best_den - 1 do
        let c = Array.unsafe_get live i in
        result.(c) <- s_star;
        ecc.(s_star) <-
          fmax ecc.(s_star) (Array.unsafe_get dsc (sbase + c))
      done;
      load.(s_star) <- load.(s_star) + !best_den;
      eff.(s_star) <- ecc.(s_star) +. dtab.(load.(s_star));
      remaining := !remaining - !best_den;
      max_len := !best_len;
      compact unass ulen result
    done
  end;
  Assignment.unsafe_of_array result
