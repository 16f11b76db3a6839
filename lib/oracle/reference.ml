module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Delay = Dia_core.Delay
module Ecc = Dia_core.Ecc
module Dg = Dia_core.Distributed_greedy
module Matrix = Dia_latency.Matrix

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

let greedy p =
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let result = Array.make n (-1) in
  let ecc = Array.make k neg_infinity in
  let load = Array.make k 0 in
  let max_len = ref 0. in
  let remaining = ref n in
  (* Δn by direct scan: unassigned clients no farther from s than c. *)
  let batch_size s c =
    let d = Problem.d_cs p c s in
    let count = ref 0 in
    for c' = 0 to n - 1 do
      if result.(c') < 0 && Problem.d_cs p c' s <= d then incr count
    done;
    !count
  in
  while !remaining > 0 do
    let best = ref None in
    for s = 0 to k - 1 do
      if load.(s) < capacity then begin
        let m = ref neg_infinity in
        for s' = 0 to k - 1 do
          if ecc.(s') > neg_infinity then
            m := Float.max !m (Problem.d_ss p s s' +. ecc.(s'))
        done;
        let room = capacity - load.(s) in
        for c = 0 to n - 1 do
          if result.(c) < 0 then begin
            let delta_n = batch_size s c in
            if delta_n <= room then begin
              let d = Problem.d_cs p c s in
              let len = Float.max (2. *. d) (Float.max (d +. !m) !max_len) in
              let cand =
                { cost_num = len -. !max_len; cost_den = delta_n; len; c; s }
              in
              match !best with
              | Some b when not (better cand b) -> ()
              | _ -> best := Some cand
            end
          end
        done
      end
    done;
    let chosen = match !best with Some cand -> cand | None -> assert false in
    let radius = Problem.d_cs p chosen.c chosen.s in
    (* Commit the batch: the Δn closest unassigned clients (walk by
       distance, ties by client index, mirroring the sorted-list walk). *)
    let members =
      List.init n Fun.id
      |> List.filter (fun c -> result.(c) < 0 && Problem.d_cs p c chosen.s <= radius)
      |> List.sort (fun a b ->
             match
               Float.compare (Problem.d_cs p a chosen.s) (Problem.d_cs p b chosen.s)
             with
             | 0 -> compare a b
             | cmp -> cmp)
      |> List.filteri (fun i _ -> i < chosen.cost_den)
    in
    List.iter
      (fun c ->
        result.(c) <- chosen.s;
        load.(chosen.s) <- load.(chosen.s) + 1;
        decr remaining;
        ecc.(chosen.s) <- Float.max ecc.(chosen.s) (Problem.d_cs p c chosen.s))
      members;
    max_len := chosen.len
  done;
  Assignment.unsafe_of_array result

let kcenter_greedy m ~k =
  let n = Matrix.dim m in
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Reference.kcenter_greedy: k = %d out of range [0, %d]" k n);
  let chosen = Array.make n false in
  let dist = Array.make n infinity in
  let centers = ref [] in
  for _ = 1 to k do
    let best = ref (-1) and best_radius = ref infinity in
    for cand = 0 to n - 1 do
      if not chosen.(cand) then begin
        let radius = ref 0. in
        for v = 0 to n - 1 do
          let d = Float.min dist.(v) (Matrix.get m cand v) in
          if d > !radius then radius := d
        done;
        if !radius < !best_radius then begin
          best_radius := !radius;
          best := cand
        end
      end
    done;
    chosen.(!best) <- true;
    centers := !best :: !centers;
    for v = 0 to n - 1 do
      dist.(v) <- Float.min dist.(v) (Matrix.get m !best v)
    done
  done;
  let centers = Array.of_list !centers in
  Array.sort compare centers;
  centers

let distributed_greedy p =
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let start = Dia_core.Nearest.assign p in
  let assignment = Assignment.to_array start in
  let load = Array.make k 0 in
  Array.iter (fun s -> load.(s) <- load.(s) + 1) assignment;
  let ecc = Array.make k neg_infinity in
  Array.iteri (fun c s -> ecc.(s) <- Float.max ecc.(s) (Problem.d_cs p c s)) assignment;
  (* Every client realising its server's eccentricity, on a server that
     lies on some pair within 1e-9 of the longest path. *)
  let longest_path_clients d =
    let on_longest = Array.make k false in
    for s1 = 0 to k - 1 do
      for s2 = s1 to k - 1 do
        if ecc.(s1) > neg_infinity && ecc.(s2) > neg_infinity
           && ecc.(s1) +. Problem.d_ss p s1 s2 +. ecc.(s2) >= d -. 1e-9
        then begin
          on_longest.(s1) <- true;
          on_longest.(s2) <- true
        end
      done
    done;
    List.filter
      (fun c ->
        let s = assignment.(c) in
        on_longest.(s) && Problem.d_cs p c s >= ecc.(s) -. 1e-9)
      (List.init (Array.length assignment) Fun.id)
  in
  let broadcasts = ref k and probes = ref (Array.length assignment) in
  let examined = ref 0 in
  let ss = Problem.ss_table p and hop = Array.make k 0. in
  let trace = ref [ Ecc.objective ~ss ecc ] in
  let moved = ref true in
  while !moved do
    moved := false;
    let d = List.hd !trace in
    let rec try_candidates = function
      | [] -> ()
      | c :: rest ->
          incr examined;
          let old_s = assignment.(c) in
          incr broadcasts;
          probes := !probes + (k - 1);
          broadcasts := !broadcasts + (k - 1);
          let ecc' = Array.copy ecc in
          ecc'.(old_s) <- Ecc.excluding p assignment ~server:old_s ~client:c;
          let best_target = ref (-1) and best_l = ref infinity in
          for s' = 0 to k - 1 do
            if s' <> old_s && load.(s') < capacity then begin
              hop.(s') <- Problem.d_cs p c s';
              Ecc.attach ~ss ecc' ~hop ~best:(-1) s';
              let longest = hop.(s') in
              if longest < !best_l then begin
                best_l := longest;
                best_target := s'
              end
            end
          done;
          let committed =
            !best_target >= 0
            && !best_l < d -. 1e-12
            &&
            let s' = !best_target in
            let new_ecc = Array.copy ecc' in
            new_ecc.(s') <- Float.max new_ecc.(s') (Problem.d_cs p c s');
            let d' = Ecc.objective ~ss new_ecc in
            d' < d -. 1e-12
            && begin
                 assignment.(c) <- s';
                 load.(old_s) <- load.(old_s) - 1;
                 load.(s') <- load.(s') + 1;
                 Array.blit new_ecc 0 ecc 0 k;
                 incr broadcasts;
                 trace := d' :: !trace;
                 true
               end
          in
          if committed then moved := true else try_candidates rest
    in
    try_candidates (longest_path_clients d)
  done;
  {
    Dg.assignment = Assignment.unsafe_of_array assignment;
    initial = start;
    trace = Array.of_list (List.rev !trace);
    stats =
      {
        Dg.modifications = List.length !trace - 1;
        examined = !examined;
        broadcasts = !broadcasts;
        probes = !probes;
      };
  }

let max_interaction_path ?(delay = Delay.zero) p a =
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

let lower_bound p =
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let best = ref neg_infinity in
  for c = 0 to n - 1 do
    for c' = c to n - 1 do
      let g = ref infinity in
      for s = 0 to k - 1 do
        for s' = 0 to k - 1 do
          let len = Problem.d_cs p c s +. Problem.d_ss p s s' +. Problem.d_cs p c' s' in
          if len < !g then g := len
        done
      done;
      if !g > !best then best := !g
    done
  done;
  !best

module Boxed_matrix = struct
  type t = { n : int; data : float array }

  let of_matrix m =
    let n = Matrix.dim m in
    { n; data = Array.init (n * n) (fun i -> Matrix.get m (i / n) (i mod n)) }

  let to_matrix b = Matrix.init b.n (fun i j -> b.data.((i * b.n) + j))

  let bit_equal b m =
    b.n = Matrix.dim m
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         b.data (of_matrix m).data
end
