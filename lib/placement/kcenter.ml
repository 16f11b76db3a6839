module Matrix = Dia_latency.Matrix

let check_k m k =
  let n = Matrix.dim m in
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Kcenter: k = %d out of range [0, %d]" k n)

(* Index of the maximum of [dist], lowest index on ties. *)
let argmax_dist dist n =
  let best = ref 0 in
  for v = 1 to n - 1 do
    if dist.(v) > dist.(!best) then best := v
  done;
  !best

(* [v] ranges over [0, n) and [center] is an in-range node, so the reads
   are unchecked; [d(center, v)] is read from [center]'s row — the same
   double as [d(v, center)] because [Matrix.set] mirrors both triangles. *)
let relax dist m center n =
  for v = 0 to n - 1 do
    dist.(v) <- Float.min dist.(v) (Matrix.unsafe_get m center v)
  done

let two_approx ?(seed = 0) m ~k =
  check_k m k;
  let n = Matrix.dim m in
  if k = 0 then [||]
  else begin
    let rng = Random.State.make [| seed |] in
    let centers = Array.make k 0 in
    centers.(0) <- Random.State.int rng n;
    (* dist.(v) = distance from v to the closest chosen centre so far. *)
    let dist = Array.init n (fun v -> Matrix.get m v centers.(0)) in
    for step = 1 to k - 1 do
      let farthest = argmax_dist dist n in
      centers.(step) <- farthest;
      relax dist m farthest n
    done;
    Array.sort compare centers;
    centers
  end

(* Nodes in decreasing [dist] order, produced lazily: [order.(0 ..
   sorted - 1)] is the prefix handed out so far (ties in any order), the
   rest wait in a binary max-heap on [dist]. A step pays O(n) to
   heapify and O(log n) per position a radius scan reaches — a few dozen
   positions, where a full sort cost more than the whole scan. *)
type by_dist = {
  dist : float array;
  heap : int array;
  order : int array;
  mutable size : int;
  mutable sorted : int;
}

let sift_down h i =
  let dist = h.dist and heap = h.heap in
  let rec go i =
    let l = (2 * i) + 1 in
    if l < h.size then begin
      let c =
        if l + 1 < h.size && dist.(heap.(l + 1)) > dist.(heap.(l)) then l + 1 else l
      in
      if dist.(heap.(c)) > dist.(heap.(i)) then begin
        let t = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- t;
        go c
      end
    end
  in
  go i

let reset h =
  let n = Array.length h.dist in
  for v = 0 to n - 1 do
    h.heap.(v) <- v
  done;
  h.size <- n;
  h.sorted <- 0;
  for i = (n / 2) - 1 downto 0 do
    sift_down h i
  done

let extend h i =
  while h.sorted <= i do
    h.order.(h.sorted) <- h.heap.(0);
    h.sorted <- h.sorted + 1;
    h.size <- h.size - 1;
    h.heap.(0) <- h.heap.(h.size);
    sift_down h 0
  done;
  h.order.(i)

(* The node at position [i < n] of the decreasing-[dist] order. *)
let[@inline] nth h i = if i < h.sorted then Array.unsafe_get h.order i else extend h i

let greedy m ~k =
  check_k m k;
  let n = Matrix.dim m in
  let chosen = Array.make n false in
  let dist = Array.make n infinity in
  let h = { dist; heap = Array.make n 0; order = Array.make n 0; size = 0; sorted = 0 } in
  let centers = ref [] in
  (* The candidate minimising the resulting radius max_v min(dist v,
     d(v, candidate)), lowest index on ties. Candidates are scanned in
     index order with a strict [<]; each radius walks the nodes in
     decreasing [dist] order and stops at the first of two exits, neither
     of which can change the winner:
     - the next node's [dist] is <= the running radius: every later
       min(dist v, _) is too, so the radius is final (a max over
       non-NaN doubles does not depend on the order it is taken in);
     - the running radius reached the best so far: the full radius is
       at least as large, so under the strict [<] this candidate loses. *)
  for _ = 1 to k do
    reset h;
    let best = ref (-1) and best_radius = ref infinity in
    for cand = 0 to n - 1 do
      if not chosen.(cand) then begin
        let radius = ref 0. and i = ref 0 in
        (* Unchecked reads: [nth] yields nodes in [0, n), and cand's
           row equals its column because [Matrix.set] mirrors both
           triangles. *)
        while
          !i < n
          && Array.unsafe_get dist (nth h !i) > !radius
          && !radius < !best_radius
        do
          let v = nth h !i in
          let dv = Array.unsafe_get dist v in
          let dc = Matrix.unsafe_get m cand v in
          let d = if dv <= dc then dv else dc in
          if d > !radius then radius := d;
          incr i
        done;
        if !radius < !best_radius then begin
          best_radius := !radius;
          best := cand
        end
      end
    done;
    chosen.(!best) <- true;
    centers := !best :: !centers;
    relax dist m !best n
  done;
  let centers = Array.of_list !centers in
  Array.sort compare centers;
  centers

let radius m centers =
  let n = Matrix.dim m in
  let worst = ref 0. in
  for v = 0 to n - 1 do
    let nearest =
      Array.fold_left (fun acc c -> Float.min acc (Matrix.get m v c)) infinity centers
    in
    if nearest > !worst then worst := nearest
  done;
  if n = 0 then 0. else !worst

exception Node_limit

(* Branch-and-bound over ordered center sets. The prune uses a sound
   lower bound: with centers chosen so far giving distances [dist] and
   only candidates >= [first] still available, node v's final distance is
   at least min(dist.(v), suffix.(first).(v)) where suffix.(first).(v) is
   v's distance to its closest remaining candidate. *)
let optimal ?(node_limit = 5_000_000) m ~k =
  check_k m k;
  let n = Matrix.dim m in
  if k = 0 || n = 0 then [||]
  else begin
    let best_centers = ref (greedy m ~k) in
    let best_radius = ref (radius m !best_centers) in
    let suffix = Array.make_matrix (n + 1) n infinity in
    for candidate = n - 1 downto 0 do
      for v = 0 to n - 1 do
        suffix.(candidate).(v) <-
          Float.min suffix.(candidate + 1).(v) (Matrix.get m v candidate)
      done
    done;
    let chosen = Array.make k 0 in
    let nodes = ref 0 in
    let rec search depth first dist =
      incr nodes;
      if !nodes > node_limit then raise Node_limit;
      if depth = k then begin
        let r = Array.fold_left Float.max 0. dist in
        if r < !best_radius then begin
          best_radius := r;
          best_centers := Array.copy chosen
        end
      end
      else begin
        let lower_bound = ref 0. in
        for v = 0 to n - 1 do
          let best_possible = Float.min dist.(v) suffix.(first).(v) in
          if best_possible > !lower_bound then lower_bound := best_possible
        done;
        if !lower_bound < !best_radius then
          for candidate = first to n - (k - depth) do
            let updated =
              Array.mapi (fun v d -> Float.min d (Matrix.get m v candidate)) dist
            in
            chosen.(depth) <- candidate;
            search (depth + 1) (candidate + 1) updated
          done
      end
    in
    (try search 0 0 (Array.make n infinity)
     with Node_limit ->
       failwith (Printf.sprintf "Kcenter.optimal: node limit %d exceeded" node_limit));
    let centers = !best_centers in
    Array.sort compare centers;
    centers
  end
