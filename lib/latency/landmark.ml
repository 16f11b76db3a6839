(* The pruning bound and its certificate.

   For a query node q and candidate s, every landmark l gives
   |d(q,l) -. d(l,s)| <= d(q,s) when the three distances satisfy the
   triangle inequality. Latency matrices routinely violate it, so
   instead of trusting the inequality we verify, at build time, the
   exact float expression [bound] evaluates at query time against every
   possible query: all dim(m) matrix nodes. Query nodes come from the
   same matrix, so a passing verification covers every query the index
   can ever receive — there is no epsilon and no rounding argument left,
   the certified fact is precisely "bound(q, s) <= d(q, s) as doubles".

   A skipped candidate therefore satisfies d(q,s) >= bound >= best, and
   since the scan updates on strict <, skipping it cannot change the
   argmin or the tie (lowest index wins, as in the exhaustive scan). *)

type t = {
  matrix : Matrix.t;
  candidates : int array;
  landmarks : int array;
  table : float array;
      (* table.(i * m + j) = d(candidates.(i), landmarks.(j)) *)
  metric_ok : bool;
}

(* max over landmarks j of |dq.(j) -. table.(i*m + j)| — the one float
   expression shared by verification and queries. *)
let bound ~table ~m (dq : float array) i =
  let base = i * m in
  let lb = ref 0. in
  for j = 0 to m - 1 do
    let v = Array.unsafe_get dq j -. Array.unsafe_get table (base + j) in
    let v = Float.abs v in
    if v > !lb then lb := v
  done;
  !lb

let farthest_point_sample ~dist ~count (candidates : int array) =
  let k = Array.length candidates in
  let chosen = Array.make count candidates.(0) in
  let mind = Array.make k infinity in
  let taken = ref 1 in
  let update_mind last =
    for i = 0 to k - 1 do
      let d = dist candidates.(i) last in
      if d < mind.(i) then mind.(i) <- d
    done
  in
  update_mind chosen.(0);
  (try
     while !taken < count do
       let best = ref 0 and bd = ref neg_infinity in
       for i = 0 to k - 1 do
         if mind.(i) > !bd then begin
           bd := mind.(i);
           best := i
         end
       done;
       (* Every remaining candidate coincides with a chosen landmark:
          more landmarks add no pruning power. *)
       if !bd <= 0. then raise Exit;
       chosen.(!taken) <- candidates.(!best);
       incr taken;
       update_mind candidates.(!best)
     done
   with Exit -> ());
  Array.sub chosen 0 !taken

let verify matrix ~landmarks ~candidates ~table =
  let n = Matrix.dim matrix in
  let m = Array.length landmarks in
  let k = Array.length candidates in
  let dq = Array.make m 0. in
  let ok = ref true in
  let u = ref 0 in
  while !ok && !u < n do
    for j = 0 to m - 1 do
      dq.(j) <- Matrix.unsafe_get matrix !u landmarks.(j)
    done;
    let i = ref 0 in
    while !ok && !i < k do
      if bound ~table ~m dq !i > Matrix.unsafe_get matrix !u candidates.(!i)
      then ok := false;
      incr i
    done;
    incr u
  done;
  !ok

let build ?(num_landmarks = 4) ?coords matrix ~candidates =
  let n = Matrix.dim matrix in
  if Array.length candidates = 0 then
    invalid_arg "Landmark.build: no candidates";
  Array.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg
          (Printf.sprintf "Landmark.build: candidate node %d out of bounds [0, %d)" c n);
      if not (Matrix.has_row matrix c) then
        invalid_arg
          (Printf.sprintf "Landmark.build: candidate node %d has no materialised row" c))
    candidates;
  if num_landmarks <= 0 then
    invalid_arg "Landmark.build: num_landmarks must be positive";
  let candidates = Array.copy candidates in
  let count = min num_landmarks (Array.length candidates) in
  let dist =
    match coords with
    | Some v -> fun a b -> Vivaldi.predict v a b
    | None -> fun a b -> Matrix.get matrix a b
  in
  let landmarks = farthest_point_sample ~dist ~count candidates in
  let m = Array.length landmarks in
  let k = Array.length candidates in
  let table = Array.make (k * m) 0. in
  for i = 0 to k - 1 do
    for j = 0 to m - 1 do
      table.((i * m) + j) <- Matrix.unsafe_get matrix candidates.(i) landmarks.(j)
    done
  done;
  let metric_ok = verify matrix ~landmarks ~candidates ~table in
  { matrix; candidates; landmarks; table; metric_ok }

let metric_ok t = t.metric_ok
let num_landmarks t = Array.length t.landmarks
let landmarks t = Array.copy t.landmarks
let candidates t = Array.copy t.candidates
let matrix t = t.matrix

let check_query t query =
  if query < 0 || query >= Matrix.dim t.matrix then
    invalid_arg (Printf.sprintf "Landmark: query node %d out of range" query)

let nearest t ~query =
  check_query t query;
  let k = Array.length t.candidates in
  let best = ref 0 in
  let bd = ref (Matrix.unsafe_get t.matrix query t.candidates.(0)) in
  if t.metric_ok then begin
    let m = Array.length t.landmarks in
    let dq = Array.make m 0. in
    for j = 0 to m - 1 do
      dq.(j) <- Matrix.unsafe_get t.matrix query t.landmarks.(j)
    done;
    for i = 1 to k - 1 do
      if bound ~table:t.table ~m dq i < !bd then begin
        let d = Matrix.unsafe_get t.matrix query t.candidates.(i) in
        if d < !bd then begin
          best := i;
          bd := d
        end
      end
    done
  end
  else
    for i = 1 to k - 1 do
      let d = Matrix.unsafe_get t.matrix query t.candidates.(i) in
      if d < !bd then begin
        best := i;
        bd := d
      end
    done;
  (!best, !bd)

let lower_bounds t ~query dst =
  check_query t query;
  let k = Array.length t.candidates in
  if Array.length dst <> k then
    invalid_arg
      (Printf.sprintf "Landmark.lower_bounds: array length %d, expected %d"
         (Array.length dst) k);
  if not t.metric_ok then Array.fill dst 0 k 0.
  else begin
    let m = Array.length t.landmarks in
    let dq = Array.make m 0. in
    for j = 0 to m - 1 do
      dq.(j) <- Matrix.unsafe_get t.matrix query t.landmarks.(j)
    done;
    for i = 0 to k - 1 do
      dst.(i) <- bound ~table:t.table ~m dq i
    done
  end
