module Matrix = Dia_latency.Matrix
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Clock = Dia_core.Clock

type check = (unit, string) result

let failures checks =
  List.filter_map
    (function
      | _, Ok () -> None
      | name, Error message -> Some (Printf.sprintf "%s: %s" name message))
    checks

let eps = 1e-6

let assignment_valid ?(require_capacity = true) p a =
  let n = Problem.num_clients p and k = Problem.num_servers p in
  if Assignment.num_clients a <> n then
    Error
      (Printf.sprintf "covers %d clients, instance has %d"
         (Assignment.num_clients a) n)
  else begin
    let bad = ref None in
    Array.iteri
      (fun c s -> if (s < 0 || s >= k) && !bad = None then bad := Some (c, s))
      (Assignment.to_array a);
    match !bad with
    | Some (c, s) ->
        Error (Printf.sprintf "client %d on invalid server %d" c s)
    | None ->
        if require_capacity && not (Assignment.respects_capacity p a) then
          Error "a server exceeds its capacity"
        else Ok ()
  end

let dominates_lb ~lb ~label d =
  if d >= lb -. eps then Ok ()
  else Error (Printf.sprintf "%s: D = %.9g < LB = %.9g" label d lb)

let at_least_opt ~opt ~label d =
  if d >= opt -. eps then Ok ()
  else Error (Printf.sprintf "%s: D = %.9g beats the optimum %.9g" label d opt)

let within_ratio ~ratio ~opt ~label d =
  if d <= (ratio *. opt) +. eps then Ok ()
  else
    Error
      (Printf.sprintf "%s: D = %.9g > %.3g x OPT = %.9g" label d ratio
         (ratio *. opt))

let no_worse ~label ~than a b =
  if a <= b +. eps then Ok ()
  else Error (Printf.sprintf "%s: %.9g > %s: %.9g" label a than b)

let lb_at_most_opt ~lb ~opt =
  if lb <= opt +. eps then Ok ()
  else Error (Printf.sprintf "LB = %.9g exceeds OPT = %.9g" lb opt)

let clock_tight p a =
  let clock = Clock.synthesize p a in
  let d = Objective.max_interaction_path p a in
  if not (Clock.feasible p a clock) then Error "synthesized clock infeasible"
  else if Float.abs (Clock.slack_i p a clock) > eps then
    Error
      (Printf.sprintf "constraint (i) not tight: slack %.9g"
         (Clock.slack_i p a clock))
  else if Clock.slack_ii p a clock < -.eps then
    Error
      (Printf.sprintf "constraint (ii) violated: slack %.9g"
         (Clock.slack_ii p a clock))
  else if Float.abs (Clock.interaction_time clock -. d) > eps then
    Error
      (Printf.sprintf "interaction time %.9g <> D = %.9g"
         (Clock.interaction_time clock) d)
  else Ok ()

type relabeling = {
  problem : Problem.t;
  client_perm : int array;
  server_perm : int array;
}

let shuffled rng n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

let relabel ~seed p =
  let rng = Random.State.make [| seed; 0x9e1abe1 |] in
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let client_order = shuffled rng n and server_order = shuffled rng k in
  let old_clients = Problem.clients p and old_servers = Problem.servers p in
  let clients = Array.map (fun i -> old_clients.(i)) client_order in
  let servers = Array.map (fun i -> old_servers.(i)) server_order in
  let client_perm = Array.make n 0 and server_perm = Array.make k 0 in
  Array.iteri (fun new_i old_i -> client_perm.(old_i) <- new_i) client_order;
  Array.iteri (fun new_i old_i -> server_perm.(old_i) <- new_i) server_order;
  let problem =
    Problem.make
      ?capacity:(Problem.capacity p)
      ~latency:(Problem.latency p) ~servers ~clients ()
  in
  { problem; client_perm; server_perm }

let relabel_assignment r a =
  let n = Assignment.num_clients a in
  let b = Array.make n 0 in
  for c = 0 to n - 1 do
    b.(r.client_perm.(c)) <- r.server_perm.(Assignment.server_of a c)
  done;
  Assignment.of_array r.problem b

let scale p ~factor =
  if not (factor > 0.) then invalid_arg "Invariant.scale: factor must be > 0";
  let m = Problem.latency p in
  let scaled = Matrix.init (Matrix.dim m) (fun i j -> factor *. Matrix.get m i j) in
  Problem.make
    ?capacity:(Problem.capacity p)
    ~latency:scaled
    ~servers:(Array.copy (Problem.servers p))
    ~clients:(Array.copy (Problem.clients p))
    ()

(* Visiting a server pair with its roles swapped re-associates the
   three-term sum, so relabeled values may differ in the last ulp —
   compare to 1e-9, far below any latency scale but far above ulps. *)
let relabel_eps = 1e-9

let evaluator_relabel_invariant ~seed p a =
  let r = relabel ~seed p in
  let a' = relabel_assignment r a in
  let d = Objective.max_interaction_path p a
  and d' = Objective.max_interaction_path r.problem a' in
  if Float.abs (d -. d') > relabel_eps then
    Error (Printf.sprintf "D changed under relabeling: %.17g <> %.17g" d d')
  else begin
    let lb = Lower_bound.compute p and lb' = Lower_bound.compute r.problem in
    if Float.abs (lb -. lb') > relabel_eps then
      Error (Printf.sprintf "LB changed under relabeling: %.17g <> %.17g" lb lb')
    else Ok ()
  end

let evaluator_scale_invariant p a =
  let doubled = scale p ~factor:2. in
  let a' = Assignment.of_array doubled (Assignment.to_array a) in
  let d = Objective.max_interaction_path p a
  and d' = Objective.max_interaction_path doubled a' in
  if d' <> 2. *. d then
    Error (Printf.sprintf "D not linear in scale: %.17g <> 2 x %.17g" d' d)
  else begin
    let lb = Lower_bound.compute p and lb' = Lower_bound.compute doubled in
    if lb' <> 2. *. lb then
      Error (Printf.sprintf "LB not linear in scale: %.17g <> 2 x %.17g" lb' lb)
    else Ok ()
  end

(* -- Load-aware objective (lib/core/delay) ------------------------------- *)

(* [D_load >= D] is exact, not approximate: every pair's load-aware path
   adds two non-negative delay terms to the plain path, so the max can
   only move up. Checked without epsilon on purpose — a single-ulp
   regression here means the shared pair scan drifted. *)
let load_dominates ~delay ~label p a =
  let d = Objective.max_interaction_path p a in
  let d_load = Objective.max_interaction_path ~delay p a in
  if d_load >= d then Ok ()
  else
    Error
      (Printf.sprintf "%s: D_load = %.17g < D = %.17g" label d_load d)

(* The evaluator's default model, [Delay.zero], adds exact float zeros,
   so it must agree bit for bit with the longest-pair scan, which reads
   the raw eccentricities and no delay at all. *)
let load_zero_identity ~label p a =
  if Problem.num_clients p = 0 then Ok ()
  else
    let d0 = Objective.max_interaction_path p a in
    let _, _, d = Objective.longest_pair p a in
    if d0 = d then Ok ()
    else
      Error
        (Printf.sprintf "%s: D under Delay.zero = %.17g <> longest pair = %.17g"
           label d0 d)

(* The fast evaluator (per-server effective eccentricities) against the
   O(|C|^2) definition — bit-identical, same term grouping. *)
let load_fast_naive_agree ~delay ~label p a =
  let fast = Objective.max_interaction_path ~delay p a in
  let naive = Objective.naive_max_interaction_path ~delay p a in
  if fast = naive then Ok ()
  else
    Error
      (Printf.sprintf "%s: fast D_load = %.17g <> naive = %.17g" label fast
         naive)

let delay_monotone ~max_load delay =
  let bad = ref None in
  for load = 1 to max_load do
    if !bad = None && Dia_core.Delay.eval delay load < Dia_core.Delay.eval delay (load - 1)
    then bad := Some load
  done;
  match !bad with
  | None -> Ok ()
  | Some load ->
      Error
        (Printf.sprintf "delay(%d) = %.17g < delay(%d) = %.17g" load
           (Dia_core.Delay.eval delay load)
           (load - 1)
           (Dia_core.Delay.eval delay (load - 1)))

(* -- Coreset additive bound (lib/coreset) -------------------------------- *)

let coreset_bound ~resolution ~seed p =
  (* The coreset layer refuses capacities (a point stands for an
     unbounded population), so the bound is checked on the instance's
     uncapacitated relaxation — the radius certificate does not involve
     capacities anyway. *)
  let cs =
    Dia_coreset.Coreset.build ~seed ~eps:resolution (Problem.latency p)
      ~servers:(Problem.servers p) ~clients:(Problem.clients p)
  in
  let reduced = Dia_coreset.Coreset.reduced cs in
  let a_red = Dia_core.Greedy.assign reduced in
  let d_red = Objective.max_interaction_path reduced a_red in
  let d_full =
    Objective.max_interaction_path
      (Dia_coreset.Coreset.full cs)
      (Dia_coreset.Coreset.expand cs a_red)
  in
  let gap = Float.abs (d_full -. d_red) in
  let bound = Dia_coreset.Coreset.bound cs in
  if resolution = 0. && gap <> 0. then
    Error
      (Printf.sprintf
         "eps=0 must be exact: D_reduced %.17g <> D_full %.17g" d_red d_full)
  else if gap > bound +. eps then
    Error
      (Printf.sprintf
         "|D_reduced - D_full| = |%.9g - %.9g| = %.9g exceeds bound 2r = %.9g \
          (eps %g, %d clients -> %d points)"
         d_red d_full gap bound resolution
         (Dia_coreset.Coreset.clients cs)
         (Dia_coreset.Coreset.points cs))
  else Ok ()
