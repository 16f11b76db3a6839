(* Effective eccentricity l(s) + delay(load s) of every used server,
   [neg_infinity] for unused ones. The delay term is constant over a
   server's clients, so D_load decomposes through these exactly as D
   does through plain eccentricities — and under [Delay.zero] they are
   the plain ones. *)
let eccentricities ?(delay = Delay.zero) p a =
  let k = Problem.num_servers p in
  let ecc = Array.make k neg_infinity and load = Array.make k 0 in
  for c = 0 to Problem.num_clients p - 1 do
    let s = Assignment.server_of a c in
    let d = Problem.d_cs p c s in
    load.(s) <- load.(s) + 1;
    if d > ecc.(s) then ecc.(s) <- d
  done;
  for s = 0 to k - 1 do
    if ecc.(s) > neg_infinity then ecc.(s) <- ecc.(s) +. Delay.eval delay load.(s)
  done;
  ecc

(* Eccentricities together with a witness client achieving each. *)
let eccentricities_with_witness p a =
  let k = Problem.num_servers p in
  let ecc = Array.make k neg_infinity in
  let witness = Array.make k (-1) in
  for c = 0 to Problem.num_clients p - 1 do
    let s = Assignment.server_of a c in
    let d = Problem.d_cs p c s in
    if d > ecc.(s) then begin
      ecc.(s) <- d;
      witness.(s) <- c
    end
  done;
  (ecc, witness)

let max_interaction_path ?delay p a =
  let eff = eccentricities ?delay p a in
  let k = Problem.num_servers p in
  let best = ref neg_infinity in
  for s1 = 0 to k - 1 do
    if eff.(s1) > neg_infinity then
      for s2 = s1 to k - 1 do
        if eff.(s2) > neg_infinity then begin
          let len = eff.(s1) +. Problem.d_ss p s1 s2 +. eff.(s2) in
          if len > !best then best := len
        end
      done
  done;
  !best

let naive_max_interaction_path ?(delay = Delay.zero) p a =
  let n = Problem.num_clients p in
  let load = Assignment.loads p a in
  let best = ref neg_infinity in
  for ci = 0 to n - 1 do
    for cj = ci to n - 1 do
      let s1 = Assignment.server_of a ci and s2 = Assignment.server_of a cj in
      (* Same left-to-right grouping AND the same pair orientation as
         the fast evaluator's [eff(s1) +. d_ss +. eff(s2)] scan (smaller
         server index on the left): float addition is monotone, so with
         matching orientation every pair is bounded by its server pair's
         eccentricity term and the witness pair achieves exact equality
         — the two evaluators agree bit for bit. *)
      let sa, ca, sb, cb =
        if s1 <= s2 then (s1, ci, s2, cj) else (s2, cj, s1, ci)
      in
      let len =
        (Problem.d_cs p ca sa +. Delay.eval delay load.(sa))
        +. Problem.d_ss p sa sb
        +. (Problem.d_cs p cb sb +. Delay.eval delay load.(sb))
      in
      if len > !best then best := len
    done
  done;
  !best

let path_length p a ci cj =
  let s1 = Assignment.server_of a ci and s2 = Assignment.server_of a cj in
  Problem.d_cs p ci s1 +. Problem.d_ss p s1 s2 +. Problem.d_cs p cj s2

let longest_pair p a =
  if Problem.num_clients p = 0 then invalid_arg "Objective.longest_pair: no clients";
  let ecc, witness = eccentricities_with_witness p a in
  let k = Problem.num_servers p in
  let best = ref neg_infinity and pair = ref (0, 0) in
  for s1 = 0 to k - 1 do
    if ecc.(s1) > neg_infinity then
      for s2 = s1 to k - 1 do
        if ecc.(s2) > neg_infinity then begin
          let len = ecc.(s1) +. Problem.d_ss p s1 s2 +. ecc.(s2) in
          if len > !best then begin
            best := len;
            pair := (witness.(s1), witness.(s2))
          end
        end
      done
  done;
  let ci, cj = !pair in
  (ci, cj, !best)

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
