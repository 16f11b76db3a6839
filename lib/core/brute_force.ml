exception Node_limit

let optimal ?(node_limit = 50_000_000) ?(delay = Delay.zero) p =
  Delay.validate delay;
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  (* Seed the incumbent with the best heuristic answer. *)
  let seed =
    let candidates = [ Greedy.assign ~delay p; Longest_first_batch.assign p ] in
    let score a = Objective.max_interaction_path ~delay p a in
    List.fold_left
      (fun (best_a, best_d) a ->
        let d = score a in
        if d < best_d then (a, d) else (best_a, best_d))
      (List.hd candidates, score (List.hd candidates))
      (List.tl candidates)
  in
  let best_assignment = ref (Assignment.to_array (fst seed)) in
  let best_d = ref (snd seed) in
  if n = 0 then (Assignment.unsafe_of_array [||], neg_infinity)
  else begin
    (* Hard clients (far from every server) first: their assignments
       constrain the objective most, tightening pruning early. *)
    let order = Array.init n Fun.id in
    let difficulty = Array.init n (fun c -> Problem.d_cs p c (Problem.nearest_server p c)) in
    Array.sort (fun a b -> Float.compare difficulty.(b) difficulty.(a)) order;
    let assignment = Array.make n (-1) in
    let ecc = Array.make k neg_infinity in
    let load = Array.make k 0 in
    let dtab = Array.init (n + 1) (Delay.eval delay) in
    let nodes = ref 0 in
    let partial_d () = Ecc.objective p (Ecc.effective ~delay ecc ~load) in
    let rec search i current_d =
      incr nodes;
      if !nodes > node_limit then raise Node_limit;
      if i = n then begin
        if current_d < !best_d then begin
          best_d := current_d;
          Array.iteri (fun c s -> !best_assignment.(c) <- s) assignment
        end
      end
      else begin
        let c = order.(i) in
        for s = 0 to k - 1 do
          if load.(s) < capacity then begin
            let d_cs = Problem.d_cs p c s in
            let old_ecc = ecc.(s) in
            (* The partial objective moves only when the placement
               raises [s]'s effective eccentricity: its eccentricity or
               its delay. Both only grow as clients are added, so the
               partial value lower-bounds every completion and the
               pruning below is sound. *)
            let raised = d_cs > old_ecc || dtab.(load.(s) + 1) > dtab.(load.(s)) in
            if d_cs > old_ecc then ecc.(s) <- d_cs;
            load.(s) <- load.(s) + 1;
            let d' = if raised then partial_d () else current_d in
            if d' < !best_d then begin
              assignment.(c) <- s;
              search (i + 1) d';
              assignment.(c) <- -1
            end;
            load.(s) <- load.(s) - 1;
            ecc.(s) <- old_ecc
          end
        done
      end
    in
    (try search 0 neg_infinity
     with Node_limit ->
       failwith
         (Printf.sprintf
            "Brute_force.optimal: node limit %d exceeded (|C|=%d, |S|=%d)"
            node_limit n k));
    (Assignment.unsafe_of_array !best_assignment, !best_d)
  end

let optimal_value ?node_limit ?delay p = snd (optimal ?node_limit ?delay p)
