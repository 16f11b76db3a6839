type stats = {
  modifications : int;
  examined : int;
  broadcasts : int;
  probes : int;
}

type result = {
  assignment : Assignment.t;
  initial : Assignment.t;
  trace : float array;
  stats : stats;
}

(* The server-server block as a flat snapshot, and for each row [s1]
   the largest [d(s1, s2)] over [s2 >= s1]: fixed for a run, so built
   once per run. *)
type pairs = { ss : float array; rowmax : float array }

let pairs p =
  let k = Problem.num_servers p in
  let ss = Problem.ss_table p in
  let rowmax =
    Array.init k (fun s1 ->
        let best = ref neg_infinity in
        for s2 = s1 to k - 1 do
          best := Float.max !best ss.((s1 * k) + s2)
        done;
        !best)
  in
  { ss; rowmax }

(* Clients lying on some longest interaction path: clients that realise
   their server's eccentricity [ecc], for a server on a longest pair of
   effective eccentricities [eff] ([ecc] itself for the paper's D). The
   delay term is shared by all of a server's clients, so the witness
   filter stays on the raw eccentricity.

   A row [s1] is skipped when [(eff s1 + rowmax s1) + maxeff] falls
   short of the threshold. Every pair of the row computes
   [(eff s1 + d(s1, s2)) + eff s2] with [d(s1, s2) <= rowmax s1] and
   [eff s2 <= maxeff]; float addition rounds monotonically, so with
   the same grouping the bound is >= each pair's computed sum, and a
   skipped row holds no qualifying pair. *)
let longest_path_clients p { ss; rowmax } assignment ~ecc ~eff d =
  let k = Problem.num_servers p in
  let threshold = d -. 1e-9 in
  let maxeff = Array.fold_left Float.max neg_infinity eff in
  let on_longest = Array.make k false in
  for s1 = 0 to k - 1 do
    let e1 = eff.(s1) in
    if e1 > neg_infinity && e1 +. rowmax.(s1) +. maxeff >= threshold then begin
      let row = s1 * k in
      for s2 = s1 to k - 1 do
        let e2 = Array.unsafe_get eff s2 in
        if e2 > neg_infinity && e1 +. Array.unsafe_get ss (row + s2) +. e2 >= threshold
        then begin
          on_longest.(s1) <- true;
          on_longest.(s2) <- true
        end
      done
    end
  done;
  let candidates = ref [] in
  Array.iteri
    (fun c s ->
      if on_longest.(s) && Problem.d_cs p c s >= ecc.(s) -. 1e-9 then
        candidates := c :: !candidates)
    assignment;
  List.rev !candidates

(* The starting assignment and its per-server loads and eccentricities. *)
let prepare ~label ~default initial p =
  let k = Problem.num_servers p in
  let start =
    match initial with
    | None -> default ()
    | Some a ->
        let a = Assignment.of_array p (Assignment.to_array a) in
        if not (Assignment.respects_capacity p a) then
          invalid_arg (label ^ ": initial assignment violates capacity");
        a
  in
  let assignment = Assignment.to_array start in
  let load = Array.make k 0 in
  Array.iter (fun s -> load.(s) <- load.(s) + 1) assignment;
  let ecc =
    Array.init k (fun s ->
        let l = ref neg_infinity in
        Array.iteri
          (fun c s' -> if s' = s then l := Float.max !l (Problem.d_cs p c s))
          assignment;
        !l)
  in
  (start, assignment, load, ecc)

let result ~start assignment trace ~examined ~broadcasts ~probes =
  {
    assignment = Assignment.unsafe_of_array assignment;
    initial = start;
    trace = Array.of_list (List.rev trace);
    stats =
      {
        modifications = List.length trace - 1;
        examined;
        broadcasts;
        probes;
      };
  }

let run ?initial p =
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let start, assignment, load, ecc =
    prepare ~label:"Distributed_greedy.run" ~default:(fun () -> Nearest.assign p)
      initial p
  in
  (* Initial exchange: every server broadcasts its inter-server distances
     and its longest client distance, and measures its own clients. *)
  let broadcasts = ref k and probes = ref (Array.length assignment) in
  let examined = ref 0 in
  let trace = ref [ Ecc.objective p ecc ] in
  let pairs = pairs p in
  let continue = ref true in
  while !continue do
    let d = List.hd !trace in
    let candidates = longest_path_clients p pairs assignment ~ecc ~eff:ecc d in
    let moved = ref false in
    let rec try_candidates = function
      | [] -> ()
      | c :: rest ->
          incr examined;
          let old_s = assignment.(c) in
          (* Server old_s announces c and its eccentricity without c; the
             other servers each probe their latency to c and reply. *)
          incr broadcasts;
          probes := !probes + (k - 1);
          broadcasts := !broadcasts + (k - 1);
          let l_minus = Ecc.excluding p assignment ~server:old_s ~client:c in
          let ecc' = Array.copy ecc in
          ecc'.(old_s) <- l_minus;
          (* L(s') = longest interaction path involving c if c moved to
             s': max over servers s'' (with their clients) of
             d(c,s') + d(s',s'') + l(s''), plus c's own round trip. *)
          let best_target = ref (-1) and best_l = ref infinity in
          for s' = 0 to k - 1 do
            if s' <> old_s && load.(s') < capacity then begin
              let longest = Ecc.attach ~bound:!best_l p ecc' ~client:c ~server:s' in
              if longest < !best_l then begin
                best_l := longest;
                best_target := s'
              end
            end
          done;
          if !best_target >= 0 && !best_l < d -. 1e-12 then begin
            (* Tentative move: recompute the global objective and commit
               only on strict improvement (other longest paths may keep D
               unchanged — the multiple-longest-paths case of the paper). *)
            let s' = !best_target in
            let new_ecc = Array.copy ecc' in
            new_ecc.(s') <- Float.max new_ecc.(s') (Problem.d_cs p c s');
            let d' = Ecc.objective p new_ecc in
            if d' < d -. 1e-12 then begin
              assignment.(c) <- s';
              load.(old_s) <- load.(old_s) - 1;
              load.(s') <- load.(s') + 1;
              Array.blit new_ecc 0 ecc 0 k;
              (* The new server broadcasts its updated longest distance. *)
              incr broadcasts;
              trace := d' :: !trace;
              moved := true
            end
            else try_candidates rest
          end
          else try_candidates rest
    in
    try_candidates candidates;
    if not !moved then continue := false
  done;
  result ~start assignment !trace ~examined:!examined ~broadcasts:!broadcasts
    ~probes:!probes

let assign p = (run p).assignment

(* Load-aware protocol: the same candidate-driven improvement loop on
   the D_load objective. A move changes the loads of both endpoints, so
   a target is judged by a full trial evaluation (the donor's effective
   eccentricity drops by one unit of delay, the target's rises) rather
   than the [Ecc.attach] local estimate; every committed move still
   strictly improves the objective, so the loop terminates. *)
let run_load ?initial ~delay p =
  Delay.validate delay;
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let start, assignment, load, ecc =
    prepare ~label:"Distributed_greedy.run_load"
      ~default:(fun () -> Nearest.assign ~delay p) initial p
  in
  let broadcasts = ref k and probes = ref (Array.length assignment) in
  let examined = ref 0 in
  let trace = ref [ Ecc.objective p (Ecc.effective ~delay ecc ~load) ] in
  let pairs = pairs p in
  let continue = ref true in
  while !continue do
    let d = List.hd !trace in
    let candidates =
      longest_path_clients p pairs assignment ~ecc ~eff:(Ecc.effective ~delay ecc ~load) d
    in
    let moved = ref false in
    let rec try_candidates = function
      | [] -> ()
      | c :: rest ->
          incr examined;
          let old_s = assignment.(c) in
          incr broadcasts;
          probes := !probes + (k - 1);
          broadcasts := !broadcasts + (k - 1);
          let l_minus = Ecc.excluding p assignment ~server:old_s ~client:c in
          let best_target = ref (-1) and best_d = ref infinity in
          let trial_ecc = Array.copy ecc in
          let trial_load = Array.copy load in
          trial_ecc.(old_s) <- l_minus;
          trial_load.(old_s) <- trial_load.(old_s) - 1;
          for s' = 0 to k - 1 do
            if s' <> old_s && load.(s') < capacity then begin
              let saved_e = trial_ecc.(s') and saved_l = trial_load.(s') in
              trial_ecc.(s') <- Float.max trial_ecc.(s') (Problem.d_cs p c s');
              trial_load.(s') <- saved_l + 1;
              let d' =
                Ecc.objective p (Ecc.effective ~delay trial_ecc ~load:trial_load)
              in
              if d' < !best_d then begin
                best_d := d';
                best_target := s'
              end;
              trial_ecc.(s') <- saved_e;
              trial_load.(s') <- saved_l
            end
          done;
          if !best_target >= 0 && !best_d < d -. 1e-12 then begin
            let s' = !best_target in
            assignment.(c) <- s';
            load.(old_s) <- load.(old_s) - 1;
            load.(s') <- load.(s') + 1;
            ecc.(old_s) <- l_minus;
            ecc.(s') <- Float.max ecc.(s') (Problem.d_cs p c s');
            incr broadcasts;
            trace := !best_d :: !trace;
            moved := true
          end
          else try_candidates rest
    in
    try_candidates candidates;
    if not !moved then continue := false
  done;
  result ~start assignment !trace ~examined:!examined ~broadcasts:!broadcasts
    ~probes:!probes

let assign_load ~delay p = (run_load ~delay p).assignment
