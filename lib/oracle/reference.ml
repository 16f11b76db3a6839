module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Delay = Dia_core.Delay

type candidate = { cost_num : float; cost_den : int; len : float; c : int; s : int }

(* Cross-product Δl/Δn comparison, ties by larger Δn, then (s, c). *)
let better a b =
  let cross = Float.compare (a.cost_num *. float_of_int b.cost_den)
      (b.cost_num *. float_of_int a.cost_den) in
  if cross <> 0 then cross < 0
  else if a.cost_den <> b.cost_den then a.cost_den > b.cost_den
  else (a.s, a.c) < (b.s, b.c)

let greedy_load ~delay p =
  Delay.validate delay;
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let result = Array.make n (-1) in
  let ecc = Array.make k neg_infinity in
  let load = Array.make k 0 in
  let max_len = ref 0. in
  let remaining = ref n in
  (* Unassigned clients closest to [s] first, ties by client index. A
     candidate batch is a prefix of this order, so Δn = 1 is always
     feasible on an unsaturated server even under massive distance
     ties. *)
  let sorted_unassigned s =
    let live = ref [] in
    for c = n - 1 downto 0 do
      if result.(c) < 0 then live := c :: !live
    done;
    let live = Array.of_list !live in
    Array.sort
      (fun a b ->
        match Float.compare (Problem.d_cs p a s) (Problem.d_cs p b s) with
        | 0 -> compare a b
        | cmp -> cmp)
      live;
    live
  in
  while !remaining > 0 do
    let best = ref None in
    for s = 0 to k - 1 do
      if load.(s) < capacity then begin
        let m = ref neg_infinity in
        for s' = 0 to k - 1 do
          if s' <> s && ecc.(s') > neg_infinity then
            m :=
              Float.max !m
                (Problem.d_ss p s s' +. (ecc.(s') +. Delay.eval delay load.(s')))
        done;
        let live = sorted_unassigned s in
        let room = capacity - load.(s) in
        let stop = min room (Array.length live) in
        for i = 0 to stop - 1 do
          let c = live.(i) in
          let delta_n = i + 1 in
          let d = Problem.d_cs p c s in
          let new_eff =
            Float.max ecc.(s) d +. Delay.eval delay (load.(s) + delta_n)
          in
          let len =
            Float.max (2. *. new_eff) (Float.max (new_eff +. !m) !max_len)
          in
          let cand =
            { cost_num = len -. !max_len; cost_den = delta_n; len; c; s }
          in
          match !best with
          | Some b when not (better cand b) -> ()
          | _ -> best := Some cand
        done
      end
    done;
    let chosen = match !best with Some cand -> cand | None -> assert false in
    let live = sorted_unassigned chosen.s in
    for i = 0 to chosen.cost_den - 1 do
      let c = live.(i) in
      result.(c) <- chosen.s;
      load.(chosen.s) <- load.(chosen.s) + 1;
      decr remaining;
      ecc.(chosen.s) <- Float.max ecc.(chosen.s) (Problem.d_cs p c chosen.s)
    done;
    max_len := chosen.len
  done;
  Assignment.unsafe_of_array result
