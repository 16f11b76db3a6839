module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Ecc = Dia_core.Ecc

(* Both searches work on a mutable view: the assignment array, per-server
   loads, and per-server eccentricities, with the objective evaluated
   from eccentricities over the server-server table in O(|S|^2). *)

type view = {
  p : Problem.t;
  ss : float array;
  assignment : int array;
  load : int array;
  ecc : float array;
  capacity : int;
}

let view_of p a =
  let assignment = Assignment.to_array a in
  let ecc, load = Ecc.of_assignment p assignment in
  {
    p;
    ss = Problem.ss_table p;
    assignment;
    load;
    ecc;
    capacity = (match Problem.capacity p with None -> max_int | Some c -> c);
  }

(* Objective after moving client c to server s (without committing). *)
let objective_after v c s =
  let old_s = v.assignment.(c) in
  if s = old_s then Ecc.objective ~ss:v.ss v.ecc
  else begin
    let trial = Array.copy v.ecc in
    trial.(old_s) <- Ecc.excluding v.p v.assignment ~server:old_s ~client:c;
    trial.(s) <- Float.max trial.(s) (Problem.d_cs v.p c s);
    Ecc.objective ~ss:v.ss trial
  end

let commit v c s =
  let old_s = v.assignment.(c) in
  v.assignment.(c) <- s;
  v.load.(old_s) <- v.load.(old_s) - 1;
  v.load.(s) <- v.load.(s) + 1;
  v.ecc.(old_s) <- Ecc.excluding v.p v.assignment ~server:old_s ~client:c;
  v.ecc.(s) <- Float.max v.ecc.(s) (Problem.d_cs v.p c s)

let hill_climb ?(max_rounds = max_int) p a =
  let v = view_of p a in
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let hop = Array.make k 0. in
  let rounds = ref 0 in
  let improved = ref true in
  while !improved && !rounds < max_rounds do
    improved := false;
    let d = Ecc.objective ~ss:v.ss v.ecc in
    let best_c = ref (-1) and best_s = ref (-1) and best_d = ref d in
    for c = 0 to n - 1 do
      let old_s = v.assignment.(c) in
      let trial_old = Ecc.excluding v.p v.assignment ~server:old_s ~client:c in
      let trial = Array.copy v.ecc in
      trial.(old_s) <- trial_old;
      let d_rest = Ecc.objective ~ss:v.ss trial in
      for s = 0 to k - 1 do
        if s <> old_s && v.load.(s) < v.capacity then begin
          hop.(s) <- Problem.d_cs p c s;
          Ecc.attach ~ss:v.ss trial ~hop ~best:(-1) s;
          let resulting = Float.max d_rest hop.(s) in
          if resulting < !best_d -. 1e-12 then begin
            best_d := resulting;
            best_c := c;
            best_s := s
          end
        end
      done
    done;
    if !best_c >= 0 then begin
      commit v !best_c !best_s;
      incr rounds;
      improved := true
    end
  done;
  let final = Assignment.unsafe_of_array (Array.copy v.assignment) in
  (final, Ecc.objective ~ss:v.ss v.ecc)

type annealing_params = {
  initial_temperature : float;
  cooling : float;
  steps : int;
}

let default_annealing = { initial_temperature = 50.; cooling = 0.999; steps = 20_000 }

let anneal ?(params = default_annealing) ?(seed = 0) p a =
  if params.initial_temperature <= 0. then
    invalid_arg "Local_search.anneal: temperature must be positive";
  if params.cooling <= 0. || params.cooling >= 1. then
    invalid_arg "Local_search.anneal: cooling must be in (0, 1)";
  if params.steps < 0 then invalid_arg "Local_search.anneal: negative steps";
  let v = view_of p a in
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let rng = Random.State.make [| seed |] in
  let current = ref (Ecc.objective ~ss:v.ss v.ecc) in
  let best = ref !current in
  let best_assignment = ref (Array.copy v.assignment) in
  let temperature = ref params.initial_temperature in
  if n > 0 && k > 1 then
    for _ = 1 to params.steps do
      let c = Random.State.int rng n in
      let s = Random.State.int rng k in
      if s <> v.assignment.(c) && v.load.(s) < v.capacity then begin
        let proposed = objective_after v c s in
        let delta = proposed -. !current in
        let accept =
          delta <= 0.
          || Random.State.float rng 1. < exp (-.delta /. !temperature)
        in
        if accept then begin
          commit v c s;
          current := proposed;
          if proposed < !best then begin
            best := proposed;
            best_assignment := Array.copy v.assignment
          end
        end
      end;
      temperature := !temperature *. params.cooling
    done;
  (* Polish the best-ever state with hill climbing. *)
  hill_climb p (Assignment.unsafe_of_array !best_assignment)

let anneal_restarts ?pool ?(params = default_annealing) ?(restarts = 4) p a =
  if restarts < 1 then invalid_arg "Local_search.anneal_restarts: restarts must be >= 1";
  let run seed = anneal ~params ~seed p a in
  let results =
    match pool with
    | None -> Array.init restarts run
    | Some pool -> Dia_parallel.Pool.run_seeds pool ~seeds:restarts run
  in
  (* Lowest objective wins; ties go to the lowest seed, so the choice is
     independent of scheduling. *)
  let best = ref results.(0) in
  for seed = 1 to restarts - 1 do
    if snd results.(seed) < snd !best then best := results.(seed)
  done;
  !best
