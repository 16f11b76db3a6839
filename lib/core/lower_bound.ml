(* For a fixed client c, define f_c(s') = min over s of d(c,s) + d(s,s'):
   the cheapest way to reach "exit server" s' from c via any entry server.
   Then LB = max over pairs (c, c') of min over s' of f_c(s') + d(s',c').

   Pruning: with ns(c') the nearest server to c' and nd(c') its distance,
   g(c, c') <= f_c(ns(c')) + nd(c'), so whenever that upper bound does not
   beat the best pair found so far the O(|S|) inner minimisation is
   skipped.

   Memory layout: everything runs over flat snapshots ([Problem.cs_table],
   a transposed server-server block and a flat n*k reach table) so the
   inner loops are contiguous unchecked float64 reads — the bounds
   checks are paid once when the snapshot is built. The reach fill is
   cache-blocked: four exit servers share one pass over the client's
   distance row, keeping four independent running minima in registers
   (the min-reduction chains no longer serialise, and each cs entry is
   loaded once per block instead of once per exit server). Each min
   still ranges over exactly the same candidate sums in a fixed order,
   so the table — and therefore the result — is bit-identical to the
   boxed implementation. [scan] runs all of this on a caller's flat
   snapshot; [compute] and Dynamic's lower-bound rebuild both call it.

   Parallel path: rows of f and rows of the pair scan are independent, so
   both fan out over a Pool. Pruning against a shared best is sound even
   when the shared value is read racily — a skipped pair satisfies
   g <= upper <= best-so-far <= final best, so it can never change the
   max — and the per-chunk bests are combined by an exact max, which
   makes the result bit-identical to the sequential scan. *)

module Pool = Dia_parallel.Pool

(* f is flat n*k, row base c*k; cs is Problem.cs_table; sst is the
   transposed server block, sst.(s' * k + s) = d(s, s').

   Exit servers are processed four at a time: one pass over the client's
   cs row per block, four independent minima in registers. The diagonal
   candidate s = s' contributes d(c,s') + 0 = d(c,s') on its own, so no
   separate seeding is needed; the blocked order visits the same
   candidate set per exit server, and min is order-insensitive, so every
   entry is bit-identical to the naive double loop. *)
let fill_reach_row ~k ~cs ~sst (f : float array) c =
  let fbase = c * k in
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
    Array.unsafe_set f (fbase + !s') !m0;
    Array.unsafe_set f (fbase + !s' + 1) !m1;
    Array.unsafe_set f (fbase + !s' + 2) !m2;
    Array.unsafe_set f (fbase + !s' + 3) !m3;
    s' := !s' + 4
  done;
  while !s' < k do
    let t = !s' * k in
    let m = ref infinity in
    for s = 0 to k - 1 do
      let v = Array.unsafe_get cs (cbase + s) +. Array.unsafe_get sst (t + s) in
      if v < !m then m := v
    done;
    Array.unsafe_set f (fbase + !s') !m;
    incr s'
  done

let reach_costs ?pool ~n ~k ~cs ~sst () =
  let f = Array.make (max 1 (n * k)) infinity in
  (match pool with
  | None ->
      for c = 0 to n - 1 do
        fill_reach_row ~k ~cs ~sst f c
      done
  | Some pool ->
      (* A reach row is O(k²) contiguous flops since the flat
         conversion — cheap enough that the 4x oversplit only pays for
         itself once chunks carry a few dozen rows. The triangular pair
         scan below keeps the default: its rows are uneven, so the
         balancing is worth the dispatch. *)
      Pool.parallel_for ~grain:32 pool ~n (fill_reach_row ~k ~cs ~sst f));
  f

(* Best pair over rows [lo, hi): c in the range, c' >= c, returned as
   (value, c, c') with the first pair found at that value — (seed, -1,
   -1) when no pair beats [seed], a sound lower bound on the final
   answer used to prime the pruning.

   Partners c' are visited grouped by their nearest server b, members
   ascending. Each group carries a suffix max of nd over its remaining
   members, so one comparison — f_c(b) + suffmax >= f_c(b) + nd(c') >=
   g(c,c'), both steps monotone under float rounding — retires the whole
   group when it cannot beat the current best. Groups visit pairs in a
   different order than the plain triangular loop, but every evaluated
   pair value is the same exact double and max is order-insensitive, so
   the result is unchanged. *)
let scan_rows ~k ~cs ~f ~nearest_dist ~groups ~suffmax ~seed lo hi =
  let best = ref seed and wa = ref (-1) and wb = ref (-1) in
  let ptr = Array.make k 0 in
  for c = lo to hi - 1 do
    let fbase = c * k in
    for b = 0 to k - 1 do
      let g = Array.unsafe_get groups b in
      let len_g = Array.length g in
      (* Skip members below the triangle row; pointers only move
         forward, so the advances amortise over the whole chunk. *)
      let i0 = ref (Array.unsafe_get ptr b) in
      while !i0 < len_g && Array.unsafe_get g !i0 < c do incr i0 done;
      Array.unsafe_set ptr b !i0;
      if !i0 < len_g then begin
        let fb = Array.unsafe_get f (fbase + b) in
        let sm = Array.unsafe_get suffmax b in
        if fb +. Array.unsafe_get sm !i0 > !best then
          for i = !i0 to len_g - 1 do
            let c' = Array.unsafe_get g i in
            let upper = fb +. Array.unsafe_get nearest_dist c' in
            if upper > !best then begin
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
    let f = reach_costs ?pool ~n ~k ~cs ~sst () in
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
          scan_rows ~k ~cs ~f ~nearest_dist ~groups ~suffmax
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
                  scan_rows ~k ~cs ~f ~nearest_dist ~groups ~suffmax
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

let naive p =
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let best = ref neg_infinity in
  for c = 0 to n - 1 do
    for c' = c to n - 1 do
      let g = ref infinity in
      for s = 0 to k - 1 do
        for s' = 0 to k - 1 do
          let len = Problem.d_cs p c s +. Problem.d_ss p s s' +. Problem.d_cs p c' s' in
          if len < !g then g := len
        done
      done;
      if !g > !best then best := !g
    done
  done;
  !best

let normalized p a =
  let lb = compute p in
  if not (Float.is_finite lb) || lb <= 0. then nan
  else Objective.max_interaction_path p a /. lb
