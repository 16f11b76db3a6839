(* The delay term is constant over a server's clients, so D_load
   decomposes through effective eccentricities exactly as D does
   through plain ones — and under [Delay.zero] they are the plain ones. *)
let eccentricities ?(delay = Delay.zero) p a =
  let ecc, load = Ecc.of_assignment p (Assignment.to_array a) in
  Ecc.effective ~delay ecc ~load

let max_interaction_path ?delay p a =
  if Problem.num_clients p = 0 then neg_infinity
  else Ecc.objective p (eccentricities ?delay p a)

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
  let pair = Ecc.longest p ecc in
  let ci = witness p a ecc (pair / k) and cj = witness p a ecc (pair mod k) in
  (ci, cj, path_length p a ci cj)

let average_interaction_path p a =
  let n = Problem.num_clients p in
  if n = 0 then nan
  else begin
    let k = Problem.num_servers p in
    let counts = Array.make k 0 in
    let sum_cs = ref 0. in
    for c = 0 to n - 1 do
      let s = Assignment.server_of a c in
      counts.(s) <- counts.(s) + 1;
      sum_cs := !sum_cs +. Problem.d_cs p c s
    done;
    let nf = float_of_int n in
    let cross = ref 0. in
    for s1 = 0 to k - 1 do
      if counts.(s1) > 0 then
        for s2 = 0 to k - 1 do
          if counts.(s2) > 0 then
            cross :=
              !cross
              +. (float_of_int counts.(s1) *. float_of_int counts.(s2)
                 *. Problem.d_ss p s1 s2)
        done
    done;
    (2. *. !sum_cs /. nf) +. (!cross /. (nf *. nf))
  end
