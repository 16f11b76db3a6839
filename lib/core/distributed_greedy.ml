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

module Matrix = Dia_latency.Matrix

(* The protocol's state. [ss] is the server-server block as a flat
   snapshot and [rowmax] its {!Ecc.rowmax}; [buf] is the latency store,
   [clients] the instance's client nodes and [srow] each server's row
   offset in [buf], which {!dist} reads client-server distances
   through. All are fixed for a run; [hop] is {!Ecc.attach}'s scratch
   row, and the rest changes with every committed move. *)
type state = {
  buf : Matrix.buffer;
  clients : int array;
  srow : int array;
  ss : float array;
  rowmax : float array;
  hop : float array;
  assignment : int array;
  load : int array;
  ecc : float array;  (* raw eccentricities *)
  mutable trace : float list;  (* the objective after each committed move, newest first *)
  mutable examined : int;
  mutable broadcasts : int;
  mutable probes : int;
}

(* [Problem.d_cs] read in place from the server's row, as [Ecc] reads:
   the Bigarray primitive expands inline and boxes nothing. *)
let[@inline] dist st c s = Bigarray.Array1.unsafe_get st.buf (st.srow.(s) + st.clients.(c))

(* The two scorers. Each proposes a target for [client] other than
   [from], among the unsaturated servers, moving off [from] ([l_minus]
   is [from]'s eccentricity without it), and the objective after that
   move; [(-1, _)] proposes nothing. Both try the move in [st]'s own
   arrays and restore every entry they set, so a target costs no
   allocation of its own. *)

(* The paper's D: the first target minimising the longest path through
   the client ([Ecc.attach], bounded by the best target so far), then
   the global objective recomputed for that one target — other longest
   paths may keep D unchanged (the paper's multiple-longest-paths
   case). *)
let attach_move ~capacity st ~client ~from ~l_minus ~d =
  let { ss; hop; load; ecc; _ } = st in
  let held = ecc.(from) in
  ecc.(from) <- l_minus;
  let best = ref (-1) in
  for s' = 0 to Array.length ecc - 1 do
    if s' <> from && load.(s') < capacity then begin
      hop.(s') <- dist st client s';
      Ecc.attach ~ss ecc ~hop ~best:!best s';
      if !best < 0 || hop.(s') < hop.(!best) then best := s'
    end
  done;
  let target = !best in
  let proposal =
    if target >= 0 && hop.(target) < d -. 1e-12 then begin
      let e = ecc.(target) in
      ecc.(target) <- Float.max e (dist st client target);
      let d' = Ecc.objective ~ss ecc in
      ecc.(target) <- e;
      (target, d')
    end
    else (-1, infinity)
  in
  ecc.(from) <- held;
  proposal

(* D_load: a move changes the loads of both endpoints (the donor's
   effective eccentricity drops by one unit of delay, the target's
   rises), so every target is judged by a full trial evaluation: the
   first minimising the resulting D_load. *)
let trial_move ~capacity ~delay st ~client ~from ~l_minus ~d:_ =
  let { ss; load; ecc; _ } = st in
  let held = ecc.(from) in
  ecc.(from) <- l_minus;
  load.(from) <- load.(from) - 1;
  let best = ref (-1) and best_d = ref infinity in
  for s' = 0 to Array.length ecc - 1 do
    if s' <> from && load.(s') < capacity then begin
      let e = ecc.(s') and l = load.(s') in
      ecc.(s') <- Float.max e (dist st client s');
      load.(s') <- l + 1;
      let d' = Ecc.objective ~ss (Ecc.effective ~delay ecc ~load) in
      ecc.(s') <- e;
      load.(s') <- l;
      if d' < !best_d then begin
        best := s';
        best_d := d'
      end
    end
  done;
  ecc.(from) <- held;
  load.(from) <- load.(from) + 1;
  (!best, !best_d)

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
    st.ecc.(s') <- Float.max st.ecc.(s') (dist st client s');
    (* The new server broadcasts its updated longest distance. *)
    st.broadcasts <- st.broadcasts + 1;
    st.trace <- d' :: st.trace;
    true
  end
  else false

(* One round: the clients lying on some longest interaction path —
   clients that realise their server's eccentricity [ecc], for a server
   on a longest pair of effective eccentricities [eff] ([ecc] itself for
   the paper's D) — take their turns in index order until one move
   commits. A turn that commits nothing leaves [st] as it was, so each
   client is tested against the round's state without listing them
   first. The delay term is shared by all of a server's clients, so the
   witness filter stays on the raw eccentricity. *)
let round p ~propose ~eff st d =
  let on_longest = Ecc.on_longest ~ss:st.ss ~rowmax:st.rowmax eff d in
  let rec from c =
    c < Array.length st.assignment
    &&
    let s = st.assignment.(c) in
    (on_longest.(s) && dist st c s >= st.ecc.(s) -. 1e-9 && try_move p ~propose st d c)
    || from (c + 1)
  in
  from 0

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
    | None -> ((fun ecc _ -> ecc), attach_move ~capacity)
    | Some delay ->
        ((fun ecc load -> Ecc.effective ~delay ecc ~load), trial_move ~capacity ~delay)
  in
  let assignment = Assignment.to_array start in
  let ecc, load = Ecc.of_assignment p assignment in
  (* Initial exchange: every server broadcasts its inter-server distances
     and its longest client distance, and measures its own clients. *)
  let ss = Problem.ss_table p in
  let m = Problem.latency p in
  let st =
    {
      buf = Matrix.unsafe_buffer m;
      clients = Problem.clients p;
      srow = Matrix.row_offsets m (Problem.servers p);
      ss;
      rowmax = Ecc.rowmax ~ss k;
      hop = Array.make k 0.;
      assignment;
      load;
      ecc;
      trace = [ Ecc.objective ~ss (effective ecc load) ];
      examined = 0;
      broadcasts = k;
      probes = Array.length assignment;
    }
  in
  (* The protocol has converged when a round commits no move. *)
  while round p ~propose ~eff:(effective st.ecc st.load) st (List.hd st.trace) do
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
