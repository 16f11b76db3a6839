(* For a fixed client c, define f_c(s') = min over s of d(c,s) + d(s,s'):
   the cheapest way to reach "exit server" s' from c via any entry server.
   Then LB = max over pairs (c, c') of min over s' of f_c(s') + d(s',c').

   Pruning: with ns(c') the nearest server to c' and nd(c') its distance,
   g(c, c') <= f_c(ns(c')) + nd(c'), so whenever that upper bound does not
   beat the best pair found so far the O(|S|) inner minimisation is
   skipped.

   Reach entries on demand: the full f table is O(|C| |S|²), but the
   pruned scan reads a small share of it (on Fig. 7's 600-node sweeps,
   one row in ten is ever read whole). An entry is computed only when a
   test reads it, in three steps per (row c, partner group b):
   - the group test first uses the free bound d(c,b) + d(b,b) >= f_c(b):
     it is one of the candidate sums f_c(b) minimises, and float
     addition rounds monotonically, so a group it retires is one the
     exact test retires too;
   - when it passes, the exact f_c(b) is computed (O(|S|)) and the exact
     test runs as before;
   - the whole row is filled (O(|S|²)) only when a pair of row c
     survives its upper-bound test, since only then does the inner
     minimisation read every f_c(s').
   An entry is the same min over the same sums in the same order
   whichever step computes it, so every evaluated pair, the value and
   the witness are those of the full table. Entries the scan never
   needed stay nan in [reach].

   Memory layout: everything runs over flat snapshots ([Problem.cs_table],
   a transposed server-server block and a flat n*k reach table) so the
   inner loops are contiguous unchecked float64 reads — the bounds
   checks are paid once when the snapshot is built. A row fill is
   cache-blocked: four exit servers share one pass over the client's
   distance row, keeping four independent running minima in registers
   (the min-reduction chains no longer serialise, and each cs entry is
   loaded once per block instead of once per exit server). Each min
   still ranges over exactly the same candidate sums in a fixed order,
   so every entry is bit-identical to the naive double loop. [scan]
   runs all of this on a caller's flat snapshot; [compute] and
   Dynamic's lower-bound rebuild both call it.

   Parallel path: rows of the pair scan are independent, so they fan out
   over a Pool, and each chunk fills only its own rows of f. Pruning
   against a shared best is sound even when the shared value is read
   racily — a skipped pair satisfies g <= upper <= best-so-far <= final
   best, so it can never change the max — and the per-chunk bests are
   combined by an exact max, which makes the result bit-identical to
   the sequential scan. *)

module Pool = Dia_parallel.Pool

(* f is flat n*k, row base c*k; cs is Problem.cs_table; sst is the
   transposed server block, sst.(s' * k + s) = d(s, s'). Every entry is
   the strict-< running min over entry servers s ascending. *)

(* One entry, f_c(s'). *)
let fill_reach_entry ~k ~cs ~sst (f : float array) c s' =
  let cbase = c * k and t = s' * k in
  let m = ref infinity in
  for s = 0 to k - 1 do
    let v = Array.unsafe_get cs (cbase + s) +. Array.unsafe_get sst (t + s) in
    if v < !m then m := v
  done;
  Array.unsafe_set f (cbase + s') !m

(* The whole row c. Exit servers are processed four at a time: one pass
   over the client's cs row per block, four independent minima in
   registers, each visiting s ascending like [fill_reach_entry]. *)
let fill_reach_row ~k ~cs ~sst (f : float array) c =
  let cbase = c * k in
  let s' = ref 0 in
  while !s' + 4 <= k do
    let t0 = !s' * k and t1 = (!s' + 1) * k in
    let t2 = (!s' + 2) * k and t3 = (!s' + 3) * k in
    let m0 = ref infinity and m1 = ref infinity in
    let m2 = ref infinity and m3 = ref infinity in
    for s = 0 to k - 1 do
      let d = Array.unsafe_get cs (cbase + s) in
      let v0 = d +. Array.unsafe_get sst (t0 + s) in
      if v0 < !m0 then m0 := v0;
      let v1 = d +. Array.unsafe_get sst (t1 + s) in
      if v1 < !m1 then m1 := v1;
      let v2 = d +. Array.unsafe_get sst (t2 + s) in
      if v2 < !m2 then m2 := v2;
      let v3 = d +. Array.unsafe_get sst (t3 + s) in
      if v3 < !m3 then m3 := v3
    done;
    Array.unsafe_set f (cbase + !s') !m0;
    Array.unsafe_set f (cbase + !s' + 1) !m1;
    Array.unsafe_set f (cbase + !s' + 2) !m2;
    Array.unsafe_set f (cbase + !s' + 3) !m3;
    s' := !s' + 4
  done;
  while !s' < k do
    fill_reach_entry ~k ~cs ~sst f c !s';
    incr s'
  done

(* Best pair over rows [lo, hi): c in the range, c' >= c, returned as
   (value, c, c') with the first pair found at that value — (seed, -1,
   -1) when no pair beats [seed], a sound lower bound on the final
   answer used to prime the pruning. Fills the rows of f it needs, as
   the file header says; a row is visited once, so whether it is full
   is a local of the row loop.

   Partners c' are visited grouped by their nearest server b, members
   ascending. Each group carries a suffix max of nd over its remaining
   members, so one comparison — f_c(b) + suffmax >= f_c(b) + nd(c') >=
   g(c,c'), both steps monotone under float rounding — retires the whole
   group when it cannot beat the current best. Groups visit pairs in a
   different order than the plain triangular loop, but every evaluated
   pair value is the same exact double and max is order-insensitive, so
   the result is unchanged. *)
let scan_rows ~k ~cs ~sst ~f ~nearest_dist ~groups ~suffmax ~seed lo hi =
  let best = ref seed and wa = ref (-1) and wb = ref (-1) in
  let ptr = Array.make k 0 in
  for c = lo to hi - 1 do
    let fbase = c * k in
    let full = ref false in
    for b = 0 to k - 1 do
      let g = Array.unsafe_get groups b in
      let len_g = Array.length g in
      (* Skip members below the triangle row; pointers only move
         forward, so the advances amortise over the whole chunk. *)
      let i0 = ref (Array.unsafe_get ptr b) in
      while !i0 < len_g && Array.unsafe_get g !i0 < c do incr i0 done;
      Array.unsafe_set ptr b !i0;
      if !i0 < len_g then begin
        let sm = Array.unsafe_get (Array.unsafe_get suffmax b) !i0 in
        let free =
          Array.unsafe_get cs (fbase + b) +. Array.unsafe_get sst ((b * k) + b)
        in
        if free +. sm > !best then begin
          if not !full then fill_reach_entry ~k ~cs ~sst f c b;
          let fb = Array.unsafe_get f (fbase + b) in
          if fb +. sm > !best then
            for i = !i0 to len_g - 1 do
              let c' = Array.unsafe_get g i in
              let upper = fb +. Array.unsafe_get nearest_dist c' in
              if upper > !best then begin
                if not !full then begin
                  fill_reach_row ~k ~cs ~sst f c;
                  full := true
                end;
                let gv = ref upper in
                let cbase = c' * k in
                for s' = 0 to k - 1 do
                  let len =
                    Array.unsafe_get f (fbase + s')
                    +. Array.unsafe_get cs (cbase + s')
                  in
                  if len < !gv then gv := len
                done;
                if !gv > !best then begin
                  best := !gv;
                  wa := c;
                  wb := c'
                end
              end
            done
        end
      end
    done
  done;
  (!best, !wa, !wb)

type scan = { value : float; wa : int; wb : int; reach : float array }

let scan ?pool ~k ~cs ~ss n =
  if n = 0 then { value = neg_infinity; wa = -1; wb = -1; reach = [||] }
  else begin
    (* Transposed server block for the fill: sst.(s' * k + s) = d(s,s'),
       the exact double from the snapshot, so the fill's inner loop is
       contiguous in s. *)
    let sst = Array.make (max 1 (k * k)) 0. in
    for s = 0 to k - 1 do
      for s'' = 0 to k - 1 do
        Array.unsafe_set sst ((s'' * k) + s) (Array.unsafe_get ss ((s * k) + s''))
      done
    done;
    (* Nearest server per client, ties to the lowest index — the same
       strict-< ascending scan as [Problem.nearest_server]. *)
    let nearest = Array.make n 0 in
    let nearest_dist = Array.make n 0. in
    for c = 0 to n - 1 do
      let base = c * k in
      let best = ref 0 in
      let bd = ref (Array.unsafe_get cs base) in
      for s = 1 to k - 1 do
        let d = Array.unsafe_get cs (base + s) in
        if d < !bd then begin
          best := s;
          bd := d
        end
      done;
      nearest.(c) <- !best;
      nearest_dist.(c) <- !bd
    done;
    let f = Array.make (n * k) nan in
    (* Partner groups for the scan: clients sharing a nearest server, in
       ascending order, with suffix maxima of nd over the tail of each
       group. *)
    let counts = Array.make k 0 in
    for c = 0 to n - 1 do
      counts.(nearest.(c)) <- counts.(nearest.(c)) + 1
    done;
    let groups = Array.map (fun len -> Array.make len 0) counts in
    let fill_pos = Array.make k 0 in
    for c = 0 to n - 1 do
      let b = nearest.(c) in
      groups.(b).(fill_pos.(b)) <- c;
      fill_pos.(b) <- fill_pos.(b) + 1
    done;
    let suffmax =
      Array.map
        (fun g ->
          let len = Array.length g in
          let sm = Array.make (len + 1) neg_infinity in
          for i = len - 1 downto 0 do
            let nd = nearest_dist.(g.(i)) in
            sm.(i) <- (if nd > sm.(i + 1) then nd else sm.(i + 1))
          done;
          sm)
        groups
    in
    let value, wa, wb =
      match pool with
      | None ->
          scan_rows ~k ~cs ~sst ~f ~nearest_dist ~groups ~suffmax
            ~seed:neg_infinity 0 n
      | Some pool ->
          let shared = Atomic.make neg_infinity in
          let publish v =
            let rec go () =
              let cur = Atomic.get shared in
              if v > cur && not (Atomic.compare_and_set shared cur v) then go ()
            in
            go ()
          in
          let chunk_bests =
            Pool.chunk_map pool ~n (fun ~lo ~hi ->
                let ((v, _, _) as b) =
                  scan_rows ~k ~cs ~sst ~f ~nearest_dist ~groups ~suffmax
                    ~seed:(Atomic.get shared) lo hi
                in
                publish v;
                b)
          in
          (* A chunk seeded at the final value reports no pair; the one
             that published the value did, so skipping witness-less
             chunks still finds it. *)
          Array.fold_left
            (fun ((bv, _, _) as acc) ((v, a, _) as b) ->
              if a >= 0 && v > bv then b else acc)
            (neg_infinity, -1, -1) chunk_bests
    in
    { value; wa; wb; reach = f }
  end

let compute ?pool p =
  (scan ?pool ~k:(Problem.num_servers p) ~cs:(Problem.cs_table p)
     ~ss:(Problem.ss_table p) (Problem.num_clients p))
    .value

let normalized p a =
  let lb = compute p in
  if not (Float.is_finite lb) || lb <= 0. then nan
  else Objective.max_interaction_path p a /. lb
