(* The canonical store is a flat row-major float64 Bigarray. Entries are
   identical IEEE-754 doubles to the previous [float array] backing, so
   every bit-identity guarantee in the repo (parallel = sequential,
   checkpoint/resume, incremental = scratch) survives the layout change.

   A matrix may hold only some rows ([create ~rows]). Such a matrix
   appends one flag per node after its n*n entries, [1.] when the node's
   row (and column) is materialised; a full matrix has no tail. Keeping
   the flags in the buffer leaves a full matrix exactly as large on the
   OCaml heap as before. Absent entries hold NaN, which [set] refuses to
   store, so no absent entry passes for a latency. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { n : int; data : buffer }

let check_value v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg (Printf.sprintf "Matrix: latency %g is not a finite non-negative value" v)

let create ?rows n =
  if n < 0 then invalid_arg "Matrix.create: negative dimension";
  match rows with
  | None ->
      let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * n) in
      Bigarray.Array1.fill data 0.;
      { n; data }
  | Some rows ->
      let nn = n * n in
      let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (nn + n) in
      Bigarray.Array1.fill data nan;
      Bigarray.Array1.fill (Bigarray.Array1.sub data nn n) 0.;
      Array.iter
        (fun r ->
          if r < 0 || r >= n then
            invalid_arg
              (Printf.sprintf "Matrix.create: row %d out of bounds [0, %d)" r n);
          Bigarray.Array1.unsafe_set data (nn + r) 1.)
        rows;
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set data ((i * n) + i) 0.;
        if Bigarray.Array1.unsafe_get data (nn + i) = 1. then
          for j = 0 to n - 1 do
            Bigarray.Array1.unsafe_set data ((i * n) + j) 0.;
            Bigarray.Array1.unsafe_set data ((j * n) + i) 0.
          done
      done;
      { n; data }

let dim m = m.n

let check_index m i =
  if i < 0 || i >= m.n then
    invalid_arg (Printf.sprintf "Matrix: index %d out of bounds [0, %d)" i m.n)

let[@inline] partial m = Bigarray.Array1.dim m.data > m.n * m.n
let[@inline] held m i = Bigarray.Array1.unsafe_get m.data ((m.n * m.n) + i) = 1.

let has_row m i =
  check_index m i;
  (not (partial m)) || held m i

let absent label i j =
  invalid_arg
    (Printf.sprintf "Matrix.%s: pair (%d, %d) is absent (neither row is materialised)"
       label i j)

(* Indices already checked. *)
let check_pair label m i j =
  if partial m && not (i = j || held m i || held m j) then absent label i j

(* The first absent pair in upper-triangle order is the two lowest nodes
   without a row. *)
let check_complete label m =
  if partial m then begin
    let rec unheld i = if i >= m.n then None else if held m i then unheld (i + 1) else Some i in
    match unheld 0 with
    | None -> ()
    | Some a -> Option.iter (fun b -> absent label a b) (unheld (a + 1))
  end

let get m i j =
  check_index m i;
  check_index m j;
  check_pair "get" m i j;
  Bigarray.Array1.unsafe_get m.data ((i * m.n) + j)

let set m i j v =
  check_index m i;
  check_index m j;
  check_pair "set" m i j;
  check_value v;
  if i = j && v <> 0. then invalid_arg "Matrix.set: non-zero diagonal";
  Bigarray.Array1.unsafe_set m.data ((i * m.n) + j) v;
  Bigarray.Array1.unsafe_set m.data ((j * m.n) + i) v

let unsafe_get m i j = Bigarray.Array1.unsafe_get m.data ((i * m.n) + j)

let unsafe_buffer m = m.data

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
