(* The delay term is constant over a server's clients, so D_load
   decomposes through effective eccentricities exactly as D does
   through plain ones — and under [Delay.zero] they are the plain ones. *)
let eccentricities ?(delay = Delay.zero) p a =
  let ecc, load = Ecc.of_assignment p (Assignment.to_array a) in
  Ecc.effective ~delay ecc ~load

let max_interaction_path ?delay p a =
  if Problem.num_clients p = 0 then neg_infinity
  else Ecc.objective ~ss:(Problem.ss_table p) (eccentricities ?delay p a)

let path_length p a ci cj =
  let s1 = Assignment.server_of a ci and s2 = Assignment.server_of a cj in
  Problem.d_cs p ci s1 +. Problem.d_ss p s1 s2 +. Problem.d_cs p cj s2

(* The first client (in index order) realising [server]'s eccentricity. *)
let witness p a ecc server =
  let rec find c =
    if Assignment.server_of a c = server && Problem.d_cs p c server = ecc.(server) then c
    else find (c + 1)
  in
  find 0

let longest_pair p a =
  if Problem.num_clients p = 0 then invalid_arg "Objective.longest_pair: no clients";
  let ecc, _ = Ecc.of_assignment p (Assignment.to_array a) in
  let k = Problem.num_servers p in
  let pair = Ecc.longest ~ss:(Problem.ss_table p) ecc in
  let ci = witness p a ecc (pair / k) and cj = witness p a ecc (pair mod k) in
  (ci, cj, path_length p a ci cj)
