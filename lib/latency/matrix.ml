(* The canonical store is a flat float64 Bigarray. Entries are identical
   IEEE-754 doubles to the previous [float array] backing, so every
   bit-identity guarantee in the repo (parallel = sequential,
   checkpoint/resume, incremental = scratch) survives the layout change.

   A matrix stores the rows it holds, n doubles each, ascending by node:
   a full matrix holds every row, so its store is the row-major n*n
   square with no tail. A rows-only matrix ([create ~rows] with at least
   two nodes left out) holds r < n - 1 rows, then one tail entry per
   node: the offset of the node's row in the store as a float (exact
   below 2^53), or -1. when the row is not held. Its store therefore has
   r*n + n < n*n entries, so the length alone tells the layouts apart,
   and a full matrix is exactly as large on the OCaml heap as before.
   Every pair that touches a held row is stored in that row (in both
   rows when both are held), so d(i, j) is read from whichever of the
   two is held; a pair touching no held row is absent. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { n : int; data : buffer }

let check_value v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg (Printf.sprintf "Matrix: latency %g is not a finite non-negative value" v)

let alloc len v =
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill data v;
  data

let create ?rows n =
  if n < 0 then invalid_arg "Matrix.create: negative dimension";
  match rows with
  | None -> { n; data = alloc (n * n) 0. }
  | Some rows ->
      let listed = Bytes.make n '\000' in
      Array.iter
        (fun r ->
          if r < 0 || r >= n then
            invalid_arg
              (Printf.sprintf "Matrix.create: row %d out of bounds [0, %d)" r n);
          Bytes.unsafe_set listed r '\001')
        rows;
      let held = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr held) listed;
      (* With at most one node left out every pair touches a held row:
         the matrix is complete, and stored full. *)
      if !held >= n - 1 then { n; data = alloc (n * n) 0. }
      else begin
        let tail = !held * n in
        let data = alloc (tail + n) 0. in
        let next = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.unsafe_get listed i = '\000' then
            Bigarray.Array1.unsafe_set data (tail + i) (-1.)
          else begin
            Bigarray.Array1.unsafe_set data (tail + i) (float_of_int !next);
            next := !next + n
          end
        done;
        { n; data }
      end

let dim m = m.n

let check_index m i =
  if i < 0 || i >= m.n then
    invalid_arg (Printf.sprintf "Matrix: index %d out of bounds [0, %d)" i m.n)

let[@inline] full m = Bigarray.Array1.dim m.data = m.n * m.n

(* Where row [i] starts in the store, or -1 when it is not held. *)
let[@inline] offset m i =
  if full m then i * m.n
  else
    Float.to_int
      (Bigarray.Array1.unsafe_get m.data (Bigarray.Array1.dim m.data - m.n + i))

let has_row m i =
  check_index m i;
  offset m i >= 0

let row_offset m i =
  check_index m i;
  let o = offset m i in
  if o < 0 then
    invalid_arg (Printf.sprintf "Matrix.row_offset: row %d is not materialised" i);
  o

let row_offsets m nodes = Array.map (row_offset m) nodes

let rows m =
  let held = ref [] in
  for i = m.n - 1 downto 0 do
    if offset m i >= 0 then held := i :: !held
  done;
  Array.of_list !held

let absent label i j =
  invalid_arg
    (Printf.sprintf "Matrix.%s: pair (%d, %d) is absent (neither row is materialised)"
       label i j)

(* A rows-only matrix leaves at least two nodes out, so it always has an
   absent pair; the first in upper-triangle order is the two lowest
   nodes without a row. *)
let check_complete label m =
  if not (full m) then begin
    let rec unheld i = if offset m i < 0 then i else unheld (i + 1) in
    let a = unheld 0 in
    absent label a (unheld (a + 1))
  end

let unsafe_get m i j =
  let oi = offset m i in
  if oi >= 0 then Bigarray.Array1.unsafe_get m.data (oi + j)
  else
    let oj = offset m j in
    if oj >= 0 then Bigarray.Array1.unsafe_get m.data (oj + i)
    else if i = j then 0.
    else nan

(* Only an absent pair reads NaN: no stored latency is one. *)
let get m i j =
  check_index m i;
  check_index m j;
  let v = unsafe_get m i j in
  if Float.is_nan v then absent "get" i j else v

let set m i j v =
  check_index m i;
  check_index m j;
  let oi = offset m i and oj = offset m j in
  if oi < 0 && oj < 0 && i <> j then absent "set" i j;
  check_value v;
  if i = j && v <> 0. then invalid_arg "Matrix.set: non-zero diagonal";
  if oi >= 0 then Bigarray.Array1.unsafe_set m.data (oi + j) v;
  if oj >= 0 then Bigarray.Array1.unsafe_set m.data (oj + i) v

let unsafe_buffer m = m.data

let block m ~rows ~cols =
  Array.iter (check_index m) rows;
  Array.iter (check_index m) cols;
  let nr = Array.length rows and nc = Array.length cols in
  let t = Array.make (max 1 (nr * nc)) 0. in
  let cols_at = if full m then [||] else Array.map (offset m) cols in
  for r = 0 to nr - 1 do
    let node = Array.unsafe_get rows r and base = r * nc in
    let row = offset m node in
    if row >= 0 then
      for j = 0 to nc - 1 do
        Array.unsafe_set t (base + j)
          (Bigarray.Array1.unsafe_get m.data (row + Array.unsafe_get cols j))
      done
    else
      (* An unheld row: each entry comes from its column's row. *)
      for j = 0 to nc - 1 do
        let col = Array.unsafe_get cols_at j in
        Array.unsafe_set t (base + j)
          (if col >= 0 then Bigarray.Array1.unsafe_get m.data (col + node)
           else if Array.unsafe_get cols j = node then 0.
           else nan)
      done
  done;
  t

let init n f =
  let m = create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      set m i j (f i j)
    done
  done;
  m

let copy m =
  let data =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Bigarray.Array1.dim m.data)
  in
  Bigarray.Array1.blit m.data data;
  { m with data }

let sub m nodes =
  Array.iter (check_index m) nodes;
  let k = Array.length nodes in
  init k (fun i j -> get m nodes.(i) nodes.(j))

(* The whole-matrix calls below run on a full matrix only
   ([check_complete]), whose store is the row-major square. *)
let fold_pairs m f acc =
  let acc = ref acc in
  for i = 0 to m.n - 1 do
    for j = i + 1 to m.n - 1 do
      acc := f !acc i j (Bigarray.Array1.unsafe_get m.data ((i * m.n) + j))
    done
  done;
  !acc

let iter_pairs m f =
  check_complete "iter_pairs" m;
  fold_pairs m (fun () i j v -> f i j v) ()

(* One fused pass over the upper triangle; entries are validated finite
   non-negative at [set] time, so plain comparisons match
   [Float.min]/[Float.max] and the running sum is the same
   left-to-right order the separate folds used. *)
let entry_stats m =
  let mn = ref infinity and mx = ref 0. and sum = ref 0. in
  for i = 0 to m.n - 1 do
    let base = i * m.n in
    for j = i + 1 to m.n - 1 do
      let v = Bigarray.Array1.unsafe_get m.data (base + j) in
      if v < !mn then mn := v;
      if v > !mx then mx := v;
      sum := !sum +. v
    done
  done;
  let pairs = m.n * (m.n - 1) / 2 in
  let mean = if pairs = 0 then nan else !sum /. float_of_int pairs in
  (!mn, mean, !mx)

let max_entry m =
  check_complete "max_entry" m;
  fold_pairs m (fun acc _ _ v -> Float.max acc v) 0.

let min_entry m =
  check_complete "min_entry" m;
  fold_pairs m (fun acc _ _ v -> Float.min acc v) infinity

let mean_entry m =
  check_complete "mean_entry" m;
  let pairs = m.n * (m.n - 1) / 2 in
  if pairs = 0 then nan
  else fold_pairs m (fun acc _ _ v -> acc +. v) 0. /. float_of_int pairs

let of_rows rows =
  let n = Array.length rows in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Matrix.of_rows: not square")
    rows;
  init n (fun i j ->
      let a = rows.(i).(j) and b = rows.(j).(i) in
      check_value a;
      check_value b;
      (a +. b) /. 2.)

let to_rows m =
  check_complete "to_rows" m;
  Array.init m.n (fun i -> Array.init m.n (fun j -> get m i j))

let equal ?(eps = 1e-9) a b =
  check_complete "equal" a;
  check_complete "equal" b;
  a.n = b.n
  &&
  let len = a.n * a.n in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < len do
    let x = Bigarray.Array1.unsafe_get a.data !i
    and y = Bigarray.Array1.unsafe_get b.data !i in
    if not (Float.abs (x -. y) <= eps) then ok := false;
    incr i
  done;
  !ok

let pp ppf m =
  check_complete "pp" m;
  (* Dimensions without an off-diagonal entry get a plain tag: the
     summary statistics would be vacuous ([min=inf mean=nan max=0]). *)
  if m.n <= 1 then Format.fprintf ppf "<matrix %dx%d>" m.n m.n
  else if m.n <= 12 then begin
    Format.fprintf ppf "@[<v>";
    for i = 0 to m.n - 1 do
      Format.fprintf ppf "@[<h>";
      for j = 0 to m.n - 1 do
        Format.fprintf ppf "%8.2f " (get m i j)
      done;
      Format.fprintf ppf "@]@,"
    done;
    Format.fprintf ppf "@]"
  end
  else
    let mn, mean, mx = entry_stats m in
    Format.fprintf ppf "<matrix %dx%d min=%.2f mean=%.2f max=%.2f>" m.n m.n mn
      mean mx
