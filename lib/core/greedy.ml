(* Direct implementation of the paper's Fig. 6, with one strengthening:
   line 11's max over assigned clients b of d(s, sA(b)) + d(sA(b), b) is
   computed from per-server eccentricities (O(|S|) instead of O(|C|)).

   Tie-breaking on the cost Δl/Δn: costs are compared as cross-products
   (Δl1 * Δn2 vs Δl2 * Δn1) to avoid float division, with ties broken by
   larger Δn (bigger batch for the same amortised cost), then by server
   and client index for determinism.

   Each commit evaluates only the candidates that can win: when a
   server has a zero-cost batch, only each server's longest one
   (binary search), and otherwise each server's candidates up to the
   point where every later one loses strictly. The batch length never
   decreases along a server's distance-sorted list, which makes both
   skips exact; [assign]'s comment has the argument. *)

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

(* The running maximum after candidate batch [(s, i)]: the first [i +
   1] clients of [s]'s live list, [d] the farthest of them, onto a
   server holding [ls] clients at eccentricity [es], with [m] the best
   [d(s, s') + eff s'] over the other used servers. *)
let[@inline] batch_len ~es ~m ~cur_max ~dtab ~ls d i =
  let new_eff = fmax es d +. Array.unsafe_get dtab (ls + i + 1) in
  fmax (2. *. new_eff) (fmax (new_eff +. m) cur_max)

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
   under massive distance ties), and the candidate scan and the commit
   walk only live entries. [dtab.(l)] holds [Delay.eval delay l] for
   every reachable load (load s + Δn never exceeds n), [eff] is
   refreshed only for the server a commit changes, and the best
   candidate lives in scalars, so the inner loop allocates nothing.

   The scan skips candidates that cannot win, exactly. Along a live
   list the distance d rises, delay is monotone in the load, and fmax
   and float addition round monotonically, so [batch_len] — and with it
   the cost numerator [num = len - cur_max >= 0] — does not decrease in
   the position. Two consequences:
   - the zero-cost candidates of a server form a prefix, found by
     binary search. A zero-cost candidate beats every positive one, and
     among them the larger Δn wins, then the lower s, so when any
     server has one the winner is the longest zero-cost prefix, ties to
     the lowest s; no other candidate is scanned;
   - otherwise a server's scan stops at the first position where
     [num · best_den > best_num · stop], [stop] its largest Δn: every
     later candidate has a numerator at least [num] and a Δn at most
     [stop], so its cross product loses strictly to the current best.
   Every candidate the scan does evaluate is evaluated in the full
   scan's order, so the sequence of best updates — and every float
   expression, the one the load-greedy reference in the oracle
   evaluates ([fmax] is its [Float.max], signed zeros included) — is
   the full scan's, and the assignment is bit-identical to it. *)
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
    (* [ms.(s)]: m' of the current commit, for the servers with room *)
    let ms = Array.make k neg_infinity in
    let max_len = ref 0. in
    let remaining = ref n in
    let best_num = ref 0. and best_den = ref 0 and best_len = ref 0. in
    let best_c = ref (-1) and best_s = ref (-1) in
    while !remaining > 0 do
      best_c := -1;
      best_den := 0;
      let cur_max = !max_len in
      (* Pass 1: m' per open server, and the longest zero-cost prefix. *)
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
          ms.(s) <- m;
          let es = ecc.(s) in
          let base = s * n in
          let live = unass.(s) in
          let room = capacity - ls in
          let stop = if room < ulen.(s) then room else ulen.(s) in
          let zero i =
            batch_len ~es ~m ~cur_max ~dtab ~ls
              (Array.unsafe_get dsc (base + Array.unsafe_get live i))
              i
            -. cur_max
            = 0.
          in
          (* A prefix no longer than the best one so far cannot win. *)
          if stop > !best_den && zero 0 then begin
            (* the zero-cost prefix is [0, lo) *)
            let lo = ref 1 and hi = ref stop in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if zero mid then lo := mid + 1 else hi := mid
            done;
            if !lo > !best_den then begin
              best_den := !lo;
              best_s := s;
              best_c := Array.unsafe_get live (!lo - 1)
            end
          end
        end
      done;
      if !best_c >= 0 then begin
        let s = !best_s in
        best_num := 0.;
        best_len :=
          batch_len ~es:ecc.(s) ~m:ms.(s) ~cur_max ~dtab ~ls:load.(s)
            (Array.unsafe_get dsc ((s * n) + !best_c))
            (!best_den - 1)
      end
      else
        (* Pass 2: no zero-cost candidate; the pruned cost scan. *)
        for s = 0 to k - 1 do
          let ls = load.(s) in
          if ls < capacity then begin
            let m = ms.(s) in
            let es = ecc.(s) in
            let room = capacity - ls in
            let base = s * n in
            let live = unass.(s) in
            let stop = if room < ulen.(s) then room else ulen.(s) in
            let fstop = float_of_int stop in
            let i = ref 0 in
            while !i < stop do
              let c = Array.unsafe_get live !i in
              let d = Array.unsafe_get dsc (base + c) in
              let den = !i + 1 in
              let len = batch_len ~es ~m ~cur_max ~dtab ~ls d !i in
              let num = len -. cur_max in
              if !best_c >= 0 && num *. float_of_int !best_den > !best_num *. fstop
              then i := stop
              else begin
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
                end;
                incr i
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
