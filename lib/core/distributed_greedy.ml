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

(* The protocol's state. [ss] is the server-server block as a flat
   snapshot and [rowmax.(s1)] the largest [d(s1, s2)] over [s2 >= s1],
   both fixed for a run; the rest changes with every committed move. *)
type state = {
  ss : float array;
  rowmax : float array;
  assignment : int array;
  load : int array;
  ecc : float array;  (* raw eccentricities *)
  mutable trace : float list;  (* the objective after each committed move, newest first *)
  mutable examined : int;
  mutable broadcasts : int;
  mutable probes : int;
}

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
let longest_path_clients p { ss; rowmax; assignment; ecc; _ } ~eff d =
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
  let rec collect c acc =
    if c < 0 then acc
    else
      let s = assignment.(c) in
      collect (c - 1)
        (if on_longest.(s) && Problem.d_cs p c s >= ecc.(s) -. 1e-9 then c :: acc else acc)
  in
  collect (Array.length assignment - 1) []

(* The first unsaturated target other than [from] minimising
   [score s' best], where [best] is the minimum so far: [(target,
   score)], or [(-1, infinity)] when no target is open. *)
let best_target ~capacity st ~from score =
  let k = Array.length st.load in
  let rec scan s' target best =
    if s' = k then (target, best)
    else if s' <> from && st.load.(s') < capacity then
      let v = score s' best in
      if v < best then scan (s' + 1) s' v else scan (s' + 1) target best
    else scan (s' + 1) target best
  in
  scan 0 (-1) infinity

(* The two scorers. Each proposes a target for [client], moving off
   [from] ([l_minus] is [from]'s eccentricity without it), and the
   objective after that move; [(-1, _)] proposes nothing. *)

(* The paper's D: the target minimising the longest path through the
   client ([Ecc.attach], bounded by the best target so far), then the
   global objective recomputed for that one target — other longest
   paths may keep D unchanged (the paper's multiple-longest-paths
   case). *)
let attach_move p ~capacity st ~client ~from ~l_minus ~d =
  let ecc = Array.copy st.ecc in
  ecc.(from) <- l_minus;
  let target, longest =
    best_target ~capacity st ~from (fun s' bound ->
        Ecc.attach ~bound p ecc ~client ~server:s')
  in
  if target >= 0 && longest < d -. 1e-12 then begin
    ecc.(target) <- Float.max ecc.(target) (Problem.d_cs p client target);
    (target, Ecc.objective p ecc)
  end
  else (-1, infinity)

(* D_load: a move changes the loads of both endpoints (the donor's
   effective eccentricity drops by one unit of delay, the target's
   rises), so every target is judged by a full trial evaluation. *)
let trial_move p ~capacity ~delay st ~client ~from ~l_minus ~d:_ =
  let ecc = Array.copy st.ecc and load = Array.copy st.load in
  ecc.(from) <- l_minus;
  load.(from) <- load.(from) - 1;
  best_target ~capacity st ~from (fun s' _ ->
      let e = ecc.(s') and l = load.(s') in
      ecc.(s') <- Float.max e (Problem.d_cs p client s');
      load.(s') <- l + 1;
      let d' = Ecc.objective p (Ecc.effective ~delay ecc ~load) in
      ecc.(s') <- e;
      load.(s') <- l;
      d')

(* One candidate's turn: commit its proposal if that strictly lowers
   the objective [d]. *)
let try_move p ~propose st d client =
  let k = Array.length st.ecc in
  st.examined <- st.examined + 1;
  let from = st.assignment.(client) in
  (* Server [from] announces the client and its eccentricity without
     it; the other servers each probe their latency to the client and
     reply. *)
  st.broadcasts <- st.broadcasts + k;
  st.probes <- st.probes + (k - 1);
  let l_minus = Ecc.excluding p st.assignment ~server:from ~client in
  let s', d' = propose st ~client ~from ~l_minus ~d in
  if s' >= 0 && d' < d -. 1e-12 then begin
    st.assignment.(client) <- s';
    st.load.(from) <- st.load.(from) - 1;
    st.load.(s') <- st.load.(s') + 1;
    st.ecc.(from) <- l_minus;
    st.ecc.(s') <- Float.max st.ecc.(s') (Problem.d_cs p client s');
    (* The new server broadcasts its updated longest distance. *)
    st.broadcasts <- st.broadcasts + 1;
    st.trace <- d' :: st.trace;
    true
  end
  else false

let run ?initial ?delay p =
  Option.iter Delay.validate delay;
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let start =
    match initial with
    | None -> Nearest.assign ?delay p
    | Some a ->
        let a = Assignment.of_array p (Assignment.to_array a) in
        if not (Assignment.respects_capacity p a) then
          invalid_arg "Distributed_greedy.run: initial assignment violates capacity";
        a
  in
  let effective, propose =
    match delay with
    | None -> ((fun ecc _ -> ecc), attach_move p ~capacity)
    | Some delay ->
        ((fun ecc load -> Ecc.effective ~delay ecc ~load), trial_move p ~capacity ~delay)
  in
  let assignment = Assignment.to_array start in
  let ecc, load = Ecc.of_assignment p assignment in
  (* Initial exchange: every server broadcasts its inter-server distances
     and its longest client distance, and measures its own clients. *)
  let ss = Problem.ss_table p in
  let st =
    {
      ss;
      rowmax =
        Array.init k (fun s1 ->
            Array.fold_left Float.max neg_infinity (Array.sub ss ((s1 * k) + s1) (k - s1)));
      assignment;
      load;
      ecc;
      trace = [ Ecc.objective p (effective ecc load) ];
      examined = 0;
      broadcasts = k;
      probes = Array.length assignment;
    }
  in
  (* Candidates take their turns in index order until one move commits;
     the protocol has converged when none does. *)
  while
    let d = List.hd st.trace in
    List.exists (try_move p ~propose st d)
      (longest_path_clients p st ~eff:(effective st.ecc st.load) d)
  do
    ()
  done;
  {
    assignment = Assignment.unsafe_of_array st.assignment;
    initial = start;
    trace = Array.of_list (List.rev st.trace);
    stats =
      {
        modifications = List.length st.trace - 1;
        examined = st.examined;
        broadcasts = st.broadcasts;
        probes = st.probes;
      };
  }

let assign ?delay p = (run ?delay p).assignment
