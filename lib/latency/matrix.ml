(* The canonical store is a flat row-major float64 Bigarray. Entries are
   identical IEEE-754 doubles to the previous [float array] backing, so
   every bit-identity guarantee in the repo (parallel = sequential,
   checkpoint/resume, incremental = scratch) survives the layout change. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { n : int; data : buffer }

let check_value v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg (Printf.sprintf "Matrix: latency %g is not a finite non-negative value" v)

let create n =
  if n < 0 then invalid_arg "Matrix.create: negative dimension";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * n) in
  Bigarray.Array1.fill data 0.;
  { n; data }

let dim m = m.n

let check_index m i =
  if i < 0 || i >= m.n then
    invalid_arg (Printf.sprintf "Matrix: index %d out of bounds [0, %d)" i m.n)

let get m i j =
  check_index m i;
  check_index m j;
  Bigarray.Array1.unsafe_get m.data ((i * m.n) + j)

let set m i j v =
  check_index m i;
  check_index m j;
  check_value v;
  if i = j && v <> 0. then invalid_arg "Matrix.set: non-zero diagonal";
  Bigarray.Array1.unsafe_set m.data ((i * m.n) + j) v;
  Bigarray.Array1.unsafe_set m.data ((j * m.n) + i) v

let unsafe_get m i j = Bigarray.Array1.unsafe_get m.data ((i * m.n) + j)

let init n f =
  let m = create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      set m i j (f i j)
    done
  done;
  m

let copy m =
  let c = create m.n in
  Bigarray.Array1.blit m.data c.data;
  c

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

let iter_pairs m f = fold_pairs m (fun () i j v -> f i j v) ()

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

let max_entry m = fold_pairs m (fun acc _ _ v -> Float.max acc v) 0.

let min_entry m = fold_pairs m (fun acc _ _ v -> Float.min acc v) infinity

let mean_entry m =
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

let to_rows m = Array.init m.n (fun i -> Array.init m.n (fun j -> get m i j))

let equal ?(eps = 1e-9) a b =
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
