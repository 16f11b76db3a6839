(* A fixed-size Domain worker pool (stdlib only).

   One batch is in flight at a time: a chunk counter that workers (and
   the submitting caller, which always participates) pull from with
   [Atomic.fetch_and_add], a completion counter, and a chunk executor
   that captures exceptions per chunk. Workers block on a condition
   variable between batches; a generation number tells a worker whether
   the pending batch is one it has already drained, so exhausted workers
   park instead of spinning.

   Determinism is structural: chunks write disjoint slots, combination
   happens on the caller in chunk order, and no primitive lets the
   scheduling order reach the result. See pool.mli for the contract. *)

type batch = {
  chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  run_chunk : int -> unit;  (* wrapped: never raises *)
}

type t = {
  pool_jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  mutable pending : batch option;
  mutable generation : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  mutable parallel_batches : int;
}

(* OCaml 5 runs at most 128 domains at once, the main one included. *)
let max_jobs = 128

let default_jobs () =
  match Sys.getenv_opt "DIA_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 && j <= max_jobs -> j
      | _ -> 1)

let jobs t = t.pool_jobs
let exercised t = t.parallel_batches

(* True while the current domain is executing a chunk of some batch:
   nested submissions must run inline (a nested batch would wait on a
   pool whose workers are busy running its parent). *)
let in_chunk = Domain.DLS.new_key (fun () -> false)

let execute_chunks t b =
  let outer = Domain.DLS.get in_chunk in
  Domain.DLS.set in_chunk true;
  let rec loop () =
    let idx = Atomic.fetch_and_add b.next 1 in
    if idx < b.chunks then begin
      b.run_chunk idx;
      if Atomic.fetch_and_add b.completed 1 + 1 = b.chunks then begin
        Mutex.lock t.mutex;
        (match t.pending with
        | Some b' when b' == b -> t.pending <- None
        | _ -> ());
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end;
      loop ()
    end
  in
  loop ();
  Domain.DLS.set in_chunk outer

let worker t =
  let last_generation = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while
      (not t.stopped)
      && (match t.pending with
         | None -> true
         | Some _ -> t.generation = !last_generation)
    do
      Condition.wait t.work_available t.mutex
    done;
    if t.stopped then begin
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      let b = match t.pending with Some b -> b | None -> assert false in
      last_generation := t.generation;
      Mutex.unlock t.mutex;
      execute_chunks t b
    end
  done

let create ?jobs () =
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be in 1..%d" max_jobs);
  let t =
    {
      pool_jobs = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      pending = None;
      generation = 0;
      stopped = false;
      workers = [||];
      parallel_batches = 0;
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let check_alive t =
  if t.stopped then invalid_arg "Pool: used after shutdown"

(* More chunks than workers lets triangular / uneven loops balance — but
   every chunk pays fixed dispatch overhead, and per-chunk setup cost in
   the caller's [f] (scratch allocation, problem views) multiplies with
   the chunk count. On small batches the 4x oversplit therefore costs
   far more than the imbalance it cures (the fig8 seed sweep at jobs=4
   ran 6.7x slower than jobs=1). Oversplit only when every resulting
   chunk still holds at least [grain] items; otherwise issue at most one
   chunk per worker. *)
let grain = 4

let chunk_count t n =
  if n <= 1 then n
  else
    let fine = 4 * t.pool_jobs in
    if n >= grain * fine then min n fine else min n t.pool_jobs

let chunk_bounds ~n ~chunks c = (c * n / chunks, (c + 1) * n / chunks)

let run_batch t ~chunks run_chunk =
  let exns = Array.make chunks None in
  let wrapped c =
    try run_chunk c
    with e -> exns.(c) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let b =
    { chunks; next = Atomic.make 0; completed = Atomic.make 0; run_chunk = wrapped }
  in
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: used after shutdown"
  end;
  (match t.pending with
  | Some _ ->
      Mutex.unlock t.mutex;
      invalid_arg "Pool: concurrent batch submission"
  | None -> ());
  t.pending <- Some b;
  t.generation <- t.generation + 1;
  t.parallel_batches <- t.parallel_batches + 1;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  execute_chunks t b;
  Mutex.lock t.mutex;
  while match t.pending with Some b' -> b' == b | None -> false do
    Condition.wait t.work_done t.mutex
  done;
  Mutex.unlock t.mutex;
  (* Re-raise the exception of the lowest-index failed chunk — the one a
     sequential run would have hit first. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    exns

let sequential t = t.pool_jobs <= 1 || Domain.DLS.get in_chunk

let chunk_map t ~n f =
  check_alive t;
  if n <= 0 then [||]
  else if sequential t || n = 1 then [| f ~lo:0 ~hi:n |]
  else begin
    let chunks = chunk_count t n in
    let parts = Array.make chunks None in
    run_batch t ~chunks (fun c ->
        let lo, hi = chunk_bounds ~n ~chunks c in
        parts.(c) <- Some (f ~lo ~hi));
    Array.map
      (function Some v -> v | None -> assert false)
      parts
  end

let init t n f =
  match chunk_map t ~n (fun ~lo ~hi -> Array.init (hi - lo) (fun i -> f (lo + i))) with
  | [| whole |] -> whole
  | parts -> Array.concat (Array.to_list parts)

let map_array t f arr = init t (Array.length arr) (fun i -> f arr.(i))

let run_seeds t ~seeds f = init t seeds f
