module Matrix = Dia_latency.Matrix

type client_id = int

type member = { node : int; mutable server : int }

type stats = { joins : int; leaves : int; moves : int }

(* Per-server distance multiset: exact latency value -> number of members
   at that distance. The eccentricity is the greatest key, so removals
   are O(log load) instead of the O(n) member scan a recompute needs,
   and the maintained value is bit-identical to the from-scratch maximum
   (max over a multiset does not depend on arrival order). *)
module Fmap = Map.Make (Float)

type t = {
  base : Matrix.t;  (** pristine latencies, never mutated *)
  mutable matrix : Matrix.t;  (** == [base] until drift copies it *)
  servers : int array;
  ns : float array;
      (** [ns.(node * k + s) = d(node, servers.(s))] over [matrix] *)
  ss : float array;  (** [ss.(s1 * k + s2) = d(servers.(s1), servers.(s2))] *)
  capacity : int;
  delay : Delay.t;  (** load-latency model; [Delay.zero] = the paper's D *)
  members : (client_id, member) Hashtbl.t;
  load : int array;
  ecc : float array;
  eff : float array;
      (** effective eccentricity [ecc s +. delay (load s)];
          [neg_infinity] for unused servers *)
  next_delay : float array;  (** [delay (load s + 1)]: what a join onto [s] pays *)
  delay_grows : bool array;  (** [delay (load s + 1) > delay (load s)] *)
  dists : int Fmap.t array;  (** per-server distance multiset backing [ecc] *)
  failed : bool array;
  mutable live : int array;  (** the servers not [failed], ascending *)
  node_drift : float array;  (** per-node multiplicative factor, 1.0 = none *)
  node_count : int array;  (** members per network node (occupancy) *)
  mutable d_cache : float;  (** D over [eff]; valid iff [not d_dirty] *)
  mutable d_dirty : bool;
  lb_reach : float array;
      (** flat node x live-server table of [f_u(s') = min_s (d(u,s) +.
          d(s,s'))], row [u] at [u * live]; occupied rows valid iff
          [lb_valid], except that an entry a rebuild's scan did not need
          is nan, and a row holding a nan holds one first *)
  mutable lb_cache : float;  (** super-optimal LB; valid iff [lb_valid] *)
  mutable lb_valid : bool;
  mutable lb_wa : int;  (** witness node pair realising [lb_cache]... *)
  mutable lb_wb : int;  (** ...(-1,-1) when empty *)
  mutable next_id : int;
  mutable version : int;
      (** bumped by every op that may change the problem {!snapshot} and
          {!active_servers} describe; see {!problem_version} *)
  mutable joins : int;
  mutable leaves : int;
  mutable moves : int;
}

let create ?capacity ?(delay = Delay.zero) matrix ~servers =
  if Array.length servers = 0 then invalid_arg "Dynamic.create: no servers";
  Delay.validate delay;
  Array.iter
    (fun s ->
      if s < 0 || s >= Matrix.dim matrix then
        invalid_arg (Printf.sprintf "Dynamic.create: server node %d out of range" s);
      if not (Matrix.has_row matrix s) then
        invalid_arg
          (Printf.sprintf "Dynamic.create: server node %d has no materialised row" s))
    servers;
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Dynamic.create: capacity must be positive"
  | _ -> ());
  let k = Array.length servers and n = Matrix.dim matrix in
  let ns = Array.make (n * k) 0. and ss = Array.make (k * k) 0. in
  for u = 0 to n - 1 do
    for s = 0 to k - 1 do
      ns.((u * k) + s) <- Matrix.unsafe_get matrix u servers.(s)
    done
  done;
  for s1 = 0 to k - 1 do
    for s2 = 0 to k - 1 do
      ss.((s1 * k) + s2) <- Matrix.unsafe_get matrix servers.(s1) servers.(s2)
    done
  done;
  {
    base = matrix;
    matrix;
    servers = Array.copy servers;
    ns;
    ss;
    capacity = Option.value ~default:max_int capacity;
    delay;
    members = Hashtbl.create 64;
    load = Array.make k 0;
    ecc = Array.make k neg_infinity;
    eff = Array.make k neg_infinity;
    next_delay = Array.make k (Delay.eval delay 1);
    delay_grows = Array.make k (Delay.eval delay 1 > Delay.eval delay 0);
    dists = Array.make k Fmap.empty;
    failed = Array.make k false;
    live = Array.init k Fun.id;
    node_drift = Array.make (Matrix.dim matrix) 1.0;
    node_count = Array.make (Matrix.dim matrix) 0;
    d_cache = neg_infinity;
    d_dirty = false;
    lb_reach = Array.make (Matrix.dim matrix * k) infinity;
    lb_cache = neg_infinity;
    lb_valid = true;
    lb_wa = -1;
    lb_wb = -1;
    next_id = 0;
    version = 0;
    joins = 0;
    leaves = 0;
    moves = 0;
  }

let[@inline] k t = Array.length t.servers

(* Every hot scan reads distances from the two tables: a [node] is
   range-checked once where it enters the session (join, restore), and
   server indices are the session's own. *)
let[@inline] d_ns t node s = Array.unsafe_get t.ns ((node * k t) + s)
let[@inline] d_ss t s1 s2 = Array.unsafe_get t.ss ((s1 * k t) + s2)

let active_servers t = Array.to_list t.live

let set_failed t s failed =
  t.failed.(s) <- failed;
  t.live <-
    Array.of_list (List.filter (fun s -> not t.failed.(s)) (List.init (k t) Fun.id))

(* D from per-server (effective) eccentricities: the max over used
   pairs, smaller server index on the left. *)
let objective_of t eff =
  let best = ref neg_infinity in
  for s1 = 0 to k t - 1 do
    if eff.(s1) > neg_infinity then
      for s2 = s1 to k t - 1 do
        if eff.(s2) > neg_infinity then begin
          let len = eff.(s1) +. d_ss t s1 s2 +. eff.(s2) in
          if len > !best then best := len
        end
      done
  done;
  !best

(* --- incremental D(A) ---------------------------------------------------

   The session's objective is D over the {e effective} eccentricities
   eff(s) = ecc(s) +. delay(load s) — D_load under a delay model, and
   the paper's D under [Delay.zero], whose exact zeros leave every
   eccentricity as it is. [d_cache] holds [objective_of t t.eff]
   whenever [d_dirty] is false. When a single effective eccentricity
   {e increases} (an arrival raises the eccentricity or the delay) only
   the pairs through that server can raise the maximum, and because
   float addition is monotone the grown pairs dominate their old values
   — so folding the k refreshed pairs into the cached D gives the exact
   scratch result in O(k). Decreases (a departure lowering the
   eccentricity or the delay, server failure, drift) mark the cache
   dirty and the next {!objective} call re-scans all pairs in O(k²) —
   still independent of the member count. *)

let bump_objective t s =
  if not t.d_dirty then begin
    let best = ref t.d_cache in
    for s' = 0 to k t - 1 do
      if t.eff.(s') > neg_infinity then begin
        let a = if s' < s then s' else s and b = if s' < s then s else s' in
        let len = t.eff.(a) +. d_ss t a b +. t.eff.(b) in
        if len > !best then best := len
      end
    done;
    t.d_cache <- !best
  end

(* Re-derive [eff s] after [s]'s eccentricity or load changed, keeping
   the cache exact: a rise folds [s]'s pairs in, a fall dirties it. *)
let refresh_eff t s =
  let old = t.eff.(s) in
  let now = Delay.eval t.delay t.load.(s) in
  let next = Delay.eval t.delay (t.load.(s) + 1) in
  t.next_delay.(s) <- next;
  t.delay_grows.(s) <- next > now;
  let e = if t.ecc.(s) > neg_infinity then t.ecc.(s) +. now else neg_infinity in
  t.eff.(s) <- e;
  if e > old then bump_objective t s else if e < old then t.d_dirty <- true

let objective t =
  if t.d_dirty then begin
    t.d_cache <- objective_of t t.eff;
    t.d_dirty <- false
  end;
  t.d_cache

(* The referee reads the matrix through [servers], never the tables the
   incremental paths read, so a stale table entry shows as a mismatch. *)
let objective_scratch t =
  let d u s = Matrix.get t.matrix u t.servers.(s) in
  let ecc = Array.make (k t) neg_infinity in
  let load = Array.make (k t) 0 in
  Hashtbl.iter
    (fun _ m ->
      load.(m.server) <- load.(m.server) + 1;
      ecc.(m.server) <- Float.max ecc.(m.server) (d m.node m.server))
    t.members;
  let eff = Ecc.effective ~delay:t.delay ecc ~load in
  let best = ref neg_infinity in
  for s1 = 0 to k t - 1 do
    for s2 = s1 to k t - 1 do
      if eff.(s1) > neg_infinity && eff.(s2) > neg_infinity then begin
        let len = eff.(s1) +. d t.servers.(s1) s2 +. eff.(s2) in
        if len > !best then best := len
      end
    done
  done;
  !best

let mset_add t s d =
  t.dists.(s) <-
    Fmap.update d (function None -> Some 1 | Some c -> Some (c + 1)) t.dists.(s)

let mset_remove t s d =
  t.dists.(s) <-
    Fmap.update d
      (function
        | None | Some 1 -> None
        | Some c -> Some (c - 1))
      t.dists.(s)

let mset_max m =
  match Fmap.max_binding_opt m with Some (d, _) -> d | None -> neg_infinity

(* Record that a member at distance [d] now sits on [s]. Every caller
   has already incremented [load.(s)], so the refresh sees the final
   load. *)
let ecc_add t s d =
  mset_add t s d;
  if d > t.ecc.(s) then t.ecc.(s) <- d;
  refresh_eff t s

(* Record that a member at distance [d] left [s], its load already
   decremented. *)
let ecc_remove t s d =
  mset_remove t s d;
  t.ecc.(s) <- mset_max t.dists.(s);
  refresh_eff t s

(* Eccentricity of [s] with one member at distance [d] discounted —
   the O(log load) replacement for scanning every member. *)
let ecc_without t s d =
  mset_max
    (Fmap.update d
       (function
         | None | Some 1 -> None
         | Some c -> Some (c - 1))
       t.dists.(s))

(* --- incremental lower bound --------------------------------------------

   The super-optimal lower bound depends only on the {e set} of occupied
   client nodes, the live servers, and the matrix — not on the
   assignment — so it is cached at node granularity: for occupied nodes
   u <= v, LB = max over pairs of min_{s'} (f_u(s') +. d(v,s')) with
   f_u(s') = min_s (d(u,s) +. d(s,s')) over the live servers (the
   canonical orientation {!lower_bound_scratch} re-derives). Occupying a
   fresh node only adds pairs, so the cache extends by maxing in the new
   node's pairs, O(m·|S| + |S|²) for m occupied nodes; vacating a node
   removes pairs, which can only lower the maximum, so the cache stays
   exact unless the witness pair itself died. Server failures,
   recoveries, drift and {!restore} invalidate wholesale, and the next
   {!lower_bound} query rebuilds with {!Lower_bound.scan} on a flat
   snapshot of the occupied nodes in ascending order — the offline
   kernel, pruning included — and keeps its reach rows for the extends.
   Every pair value is the same sum of the same doubles on both paths,
   and min/max are order-insensitive, so the cache is bit-identical to
   the scratch recompute. *)

let lb_invalidate t = t.lb_valid <- false

(* Fill the entries of [u]'s reach row that hold nan with [f_u(live
   j')] over the live servers, in [Lower_bound.scan]'s order. A rebuild
   keeps only the entries its scan computed and sets each row's first
   entry to nan, so the first read of a rebuilt row fills the rest
   here. *)
let complete_reach t u =
  let live = t.live in
  let kl = Array.length live and reach = t.lb_reach in
  for j' = 0 to kl - 1 do
    if Float.is_nan reach.((u * kl) + j') then begin
      let m = ref infinity in
      for j = 0 to kl - 1 do
        let v = d_ns t u live.(j) +. d_ss t live.(j) live.(j') in
        if v < !m then m := v
      done;
      reach.((u * kl) + j') <- !m
    end
  done

(* Node [u] just became occupied: fill its reach row, then max in its
   pairs against every occupied node (itself included). Old pairs are
   untouched, so [max lb_cache (new pairs)] is exactly the scratch
   maximum. *)
let lb_extend t u =
  if t.lb_valid then begin
    let live = t.live in
    let kl = Array.length live and reach = t.lb_reach in
    Array.fill reach (u * kl) kl nan;
    complete_reach t u;
    let best = ref t.lb_cache in
    let wa = ref t.lb_wa and wb = ref t.lb_wb in
    for v = 0 to Array.length t.node_count - 1 do
      if t.node_count.(v) > 0 then begin
        let a = if v < u then v else u and b = if v < u then u else v in
        if Float.is_nan reach.(a * kl) then complete_reach t a;
        let len = ref infinity in
        for j' = 0 to kl - 1 do
          let l = reach.((a * kl) + j') +. d_ns t b live.(j') in
          if l < !len then len := l
        done;
        if !len > !best then begin
          best := !len;
          wa := a;
          wb := b
        end
      end
    done;
    t.lb_cache <- !best;
    t.lb_wa <- !wa;
    t.lb_wb <- !wb
  end

let node_add t node =
  let c = t.node_count.(node) in
  t.node_count.(node) <- c + 1;
  if c = 0 then lb_extend t node

let node_remove t node =
  let c = t.node_count.(node) - 1 in
  t.node_count.(node) <- c;
  if c = 0 && t.lb_valid && (node = t.lb_wa || node = t.lb_wb) then
    t.lb_valid <- false

let network_lower_bound t =
  if not t.lb_valid then begin
    let live = t.live in
    let kl = Array.length live in
    let occupied =
      Seq.init (Array.length t.node_count) Fun.id
      |> Seq.filter (fun u -> t.node_count.(u) > 0)
      |> Array.of_seq
    in
    let n = Array.length occupied in
    let cs = Array.make (n * kl) 0. and ss = Array.make (kl * kl) 0. in
    for i = 0 to n - 1 do
      for j = 0 to kl - 1 do
        cs.((i * kl) + j) <- d_ns t occupied.(i) live.(j)
      done
    done;
    for i = 0 to kl - 1 do
      for j = 0 to kl - 1 do
        ss.((i * kl) + j) <- d_ss t live.(i) live.(j)
      done
    done;
    let r = Lower_bound.scan ~k:kl ~cs ~ss n in
    (* A nan first entry sends each row's first read by an extend
       through [complete_reach], which fills whatever the scan left. *)
    Array.iteri
      (fun i u ->
        Array.blit r.reach (i * kl) t.lb_reach (u * kl) kl;
        t.lb_reach.(u * kl) <- nan)
      occupied;
    t.lb_cache <- r.value;
    t.lb_wa <- (if r.wa < 0 then -1 else occupied.(r.wa));
    t.lb_wb <- (if r.wb < 0 then -1 else occupied.(r.wb));
    t.lb_valid <- true
  end;
  t.lb_cache

(* Reference recompute sharing no cached state with
   [network_lower_bound]: occupancy from the member table, reach rows
   rebuilt fresh, distances read from the matrix. *)
let network_lower_bound_scratch t =
  let d_ns t u s = Matrix.get t.matrix u t.servers.(s) in
  let d_ss t s s' = Matrix.get t.matrix t.servers.(s) t.servers.(s') in
  let n = Array.length t.node_count in
  let occupied = Array.make n false in
  Hashtbl.iter (fun _ m -> occupied.(m.node) <- true) t.members;
  let kk = k t in
  let row = Array.make kk infinity in
  let best = ref neg_infinity in
  for u = 0 to n - 1 do
    if occupied.(u) then begin
      for s' = 0 to kk - 1 do
        row.(s') <- infinity;
        if not t.failed.(s') then begin
          let b = ref infinity in
          for s = 0 to kk - 1 do
            if not t.failed.(s) then begin
              let v = d_ns t u s +. d_ss t s s' in
              if v < !b then b := v
            end
          done;
          row.(s') <- !b
        end
      done;
      for v = u to n - 1 do
        if occupied.(v) then begin
          let pair = ref infinity in
          for s' = 0 to kk - 1 do
            if not t.failed.(s') then begin
              let len = row.(s') +. d_ns t v s' in
              if len < !pair then pair := len
            end
          done;
          if !pair > !best then best := !pair
        end
      done
    end
  done;
  !best

(* LB_load = LB +. 2 delay(1): in any assignment every serving server
   hosts at least one client, delay is monotone from load 1 up, and the
   witness pair of LB pays its two server delays on top of the network
   path. Exactly LB under [Delay.zero]; trivially incremental on top of
   the cached network bound. *)
let delay_floor t = 2. *. Delay.eval t.delay 1

let lower_bound t = network_lower_bound t +. delay_floor t
let lower_bound_scratch t = network_lower_bound_scratch t +. delay_floor t

(* Longest interaction path through server [s] created by a client
   whose access hop to [s] costs [hop], given every server's effective
   eccentricity in [eff]: its round trip, and its path to each used
   server. *)
let attach_cost t eff ~hop s =
  let worst = ref (2. *. hop) in
  for s'' = 0 to k t - 1 do
    if eff.(s'') > neg_infinity then begin
      let len = hop +. d_ss t s s'' +. eff.(s'') in
      if len > !worst then worst := len
    end
  done;
  !worst

(* The access hop a client at [node] pays once it joins [s], under the
   session's delay model. When the join raises [s]'s delay, every path
   through [s] lengthens, so the hop is [s]'s new effective
   eccentricity [max(ecc s, d) + delay(load s + 1)] and [attach_cost]
   re-measures all of [s]'s pairs. When it does not (always under
   [Delay.zero]), only the newcomer's own paths, at
   [d + delay(load s + 1)], can exceed the current maximum. Either way
   the hop is at least [d(node, s)], because delay is non-negative. *)
let placement_hop t node s =
  let d = d_ns t node s in
  (if t.delay_grows.(s) then Float.max t.ecc.(s) d else d) +. t.next_delay.(s)

(* The join rule: the live server with room that minimises the
   resulting objective once a client at [node] attaches there, ties to
   the lowest index; -1 when no live server has room. *)
let best_server t node =
  let current = objective t in
  let best = ref (-1) and best_d = ref infinity in
  for s = 0 to k t - 1 do
    if (not t.failed.(s)) && t.load.(s) < t.capacity then begin
      let resulting =
        Float.max current (attach_cost t t.eff ~hop:(placement_hop t node s) s)
      in
      if resulting < !best_d then begin
        best_d := resulting;
        best := s
      end
    end
  done;
  !best

let join t ~node =
  if node < 0 || node >= Matrix.dim t.matrix then
    invalid_arg (Printf.sprintf "Dynamic.join: node %d out of range" node);
  let s = best_server t node in
  if s < 0 then failwith "Dynamic.join: all servers saturated";
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.members id { node; server = s };
  t.load.(s) <- t.load.(s) + 1;
  ecc_add t s (d_ns t node s);
  node_add t node;
  t.joins <- t.joins + 1;
  t.version <- t.version + 1;
  id

let find t id =
  match Hashtbl.find_opt t.members id with
  | Some member -> member
  | None -> invalid_arg (Printf.sprintf "Dynamic: unknown client id %d" id)

let leave t id =
  let member = find t id in
  Hashtbl.remove t.members id;
  t.load.(member.server) <- t.load.(member.server) - 1;
  ecc_remove t member.server (d_ns t member.node member.server);
  node_remove t member.node;
  t.leaves <- t.leaves + 1;
  t.version <- t.version + 1

let server_of t id = (find t id).server

let num_clients t = Hashtbl.length t.members
let capacity t = if t.capacity = max_int then None else Some t.capacity

let load t s =
  if s < 0 || s >= k t then
    invalid_arg (Printf.sprintf "Dynamic.load: server %d out of range" s);
  t.load.(s)

(* Move a member to [s] (a different live server with room): loads,
   both eccentricities and the move counter follow. *)
let relocate t member s =
  let old_s = member.server in
  t.load.(old_s) <- t.load.(old_s) - 1;
  t.load.(s) <- t.load.(s) + 1;
  ecc_remove t old_s (d_ns t member.node old_s);
  member.server <- s;
  ecc_add t s (d_ns t member.node s);
  t.moves <- t.moves + 1

let move t id target =
  let member = find t id in
  if target < 0 || target >= k t then
    invalid_arg (Printf.sprintf "Dynamic.move: server %d out of range" target);
  if t.failed.(target) then
    invalid_arg (Printf.sprintf "Dynamic.move: server %d is failed" target);
  if member.server <> target then begin
    if t.load.(target) >= t.capacity then
      invalid_arg (Printf.sprintf "Dynamic.move: server %d is saturated" target);
    relocate t member target
  end

(* Where a member at [node] on [old_s] moves in a rebalance round whose
   objective is [d]: the live server with room that minimises the
   objective once the member re-attaches there, or -1 when no target
   beats [d] by more than 1e-12. A pure function of [(node, old_s)]:
   the trial session drops one distance d(node, old_s) from the donor's
   multiset and one unit of its load, whichever member that is. *)
let target t ~d node old_s =
  let trial = Array.copy t.eff in
  let e = ecc_without t old_s (d_ns t node old_s) in
  trial.(old_s) <-
    (if e > neg_infinity then e +. Delay.eval t.delay (t.load.(old_s) - 1)
     else neg_infinity);
  let d_rest = objective_of t trial in
  let best = ref (-1) and best_d = ref infinity in
  for s = 0 to k t - 1 do
    if s <> old_s && (not t.failed.(s)) && t.load.(s) < t.capacity then begin
      let cost = attach_cost t trial ~hop:(placement_hop t node s) s in
      let resulting = Float.max d_rest cost in
      if resulting < !best_d then begin
        best_d := resulting;
        best := s
      end
    end
  done;
  if !best >= 0 && !best_d < d -. 1e-12 then !best else -1

(* Whether any round candidate can move, decided at node level. A
   candidate is a member on a longest-pair server [s] realising [s]'s
   eccentricity; its node [u] is occupied, d(u,s) passes the same
   filter, and d(u,s) is a key of [s]'s distance multiset. So the pairs
   tested here are a superset of the candidates' (node, server) pairs,
   and a candidate's move is [target] of its pair: [false] means the
   member fold would move nobody. *)
let any_mover t ~d on_longest =
  let n = Array.length t.node_count in
  let rec scan s u =
    if s >= k t then false
    else if u >= n || not on_longest.(s) then scan (s + 1) 0
    else
      (t.node_count.(u) > 0
      && d_ns t u s >= t.ecc.(s) -. 1e-9
      && Fmap.mem (d_ns t u s) t.dists.(s)
      && target t ~d u s >= 0)
      || scan s (u + 1)
  in
  scan 0 0

let rebalance ?(max_moves = max_int) t =
  let moves = ref 0 in
  let continue = ref true in
  while !continue && !moves < max_moves do
    let d = objective t in
    (* Clients realising their server's eccentricity on a longest pair
       of effective eccentricities. The delay term is shared by all of a
       server's clients, so the witness filter stays on the raw
       eccentricity. *)
    let on_longest = Array.make (k t) false in
    for s1 = 0 to k t - 1 do
      if t.eff.(s1) > neg_infinity then
        for s2 = s1 to k t - 1 do
          if t.eff.(s2) > neg_infinity
             && t.eff.(s1) +. d_ss t s1 s2 +. t.eff.(s2) >= d -. 1e-9
          then begin
            on_longest.(s1) <- true;
            on_longest.(s2) <- true
          end
        done
    done;
    let moved =
      any_mover t ~d on_longest
      &&
      let candidates =
        Hashtbl.fold
          (fun id member acc ->
            if on_longest.(member.server)
               && d_ns t member.node member.server >= t.ecc.(member.server) -. 1e-9
            then (id, member) :: acc
            else acc)
          t.members []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.exists
        (fun (_, member) ->
          let s = target t ~d member.node member.server in
          s >= 0
          && begin
               relocate t member s;
               incr moves;
               true
             end)
        candidates
    in
    if not moved then continue := false
  done;
  !moves

let snapshot t =
  if num_clients t = 0 then invalid_arg "Dynamic.snapshot: no clients";
  let entries =
    Hashtbl.fold (fun id member acc -> (id, member) :: acc) t.members []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let clients = Array.of_list (List.map (fun (_, m) -> m.node) entries) in
  let capacity = if t.capacity = max_int then None else Some t.capacity in
  let p = Problem.make ?capacity ~latency:t.matrix ~servers:t.servers ~clients () in
  let a =
    Assignment.of_array p (Array.of_list (List.map (fun (_, m) -> m.server) entries))
  in
  (p, a)

let stats t = { joins = t.joins; leaves = t.leaves; moves = t.moves }

let problem_version t = t.version

let failed_servers t =
  let rec from s acc =
    if s < 0 then acc else from (s - 1) (if t.failed.(s) then s :: acc else acc)
  in
  from (k t - 1) []

let members t =
  Hashtbl.fold (fun id m acc -> (id, m.node, m.server) :: acc) t.members []
  |> List.sort compare

(* Rebuild every cached eccentricity (and its backing multiset) from
   scratch in one member pass — needed after a drift change rescales
   distances wholesale. *)
let rebuild_ecc t =
  Array.fill t.ecc 0 (k t) neg_infinity;
  for s = 0 to k t - 1 do
    t.dists.(s) <- Fmap.empty
  done;
  Hashtbl.iter
    (fun _ m ->
      let d = d_ns t m.node m.server in
      mset_add t m.server d;
      t.ecc.(m.server) <- Float.max t.ecc.(m.server) d)
    t.members;
  t.d_dirty <- true;
  Array.iteri (fun s _ -> refresh_eff t s) t.eff;
  lb_invalidate t

let drift t s =
  if s < 0 || s >= k t then
    invalid_arg (Printf.sprintf "Dynamic.drift: server %d out of range" s);
  t.node_drift.(t.servers.(s))

let set_drift t ~server ~factor =
  if server < 0 || server >= k t then
    invalid_arg (Printf.sprintf "Dynamic.set_drift: server %d out of range" server);
  if not (Float.is_finite factor) || factor <= 0. then
    invalid_arg (Printf.sprintf "Dynamic.set_drift: factor %g invalid" factor);
  let sv = t.servers.(server) in
  if t.node_drift.(sv) <> factor then begin
    if t.matrix == t.base then t.matrix <- Matrix.copy t.base;
    t.node_drift.(sv) <- factor;
    let n = Matrix.dim t.base and k = k t in
    for u = 0 to n - 1 do
      if u <> sv then
        (* The factor product is grouped apart from the base entry:
           [*.] is commutative, so [base *. (f_a *. f_b)] is bit-equal
           no matter which end drifted last — a restore that replays
           final factors in server order reproduces the incrementally
           drifted matrix exactly. Left-associated it would not
           ([base *. f_a *. f_b] vs [base *. f_b *. f_a] differ by
           ulps), which used to break kill/resume bit-identity. *)
        Matrix.set t.matrix u sv
          (Matrix.get t.base u sv *. (factor *. t.node_drift.(u)))
    done;
    (* Only row and column [sv] of the matrix changed: patch [sv]'s row
       of [ns], and the [ns] column and the [ss] row and column of every
       server at [sv] — O(n + k) each. *)
    for s = 0 to k - 1 do
      t.ns.((sv * k) + s) <- Matrix.unsafe_get t.matrix sv t.servers.(s)
    done;
    for s = 0 to k - 1 do
      if t.servers.(s) = sv then begin
        for u = 0 to n - 1 do
          t.ns.((u * k) + s) <- Matrix.unsafe_get t.matrix u sv
        done;
        for s' = 0 to k - 1 do
          let v = Matrix.unsafe_get t.matrix sv t.servers.(s') in
          t.ss.((s * k) + s') <- v;
          t.ss.((s' * k) + s) <- v
        done
      end
    done;
    rebuild_ecc t;
    t.version <- t.version + 1
  end

type image = {
  capacity : int option;
  members : (client_id * int * int) list;
  next_id : client_id;
  failed : int list;
  drift : (int * float) list;
  stats : stats;
}

let image t =
  {
    capacity = capacity t;
    members = members t;
    next_id = t.next_id;
    failed = failed_servers t;
    drift =
      List.init (k t) (fun s -> (s, drift t s)) |> List.filter (fun (_, f) -> f <> 1.0);
    stats = stats t;
  }

let restore ?delay matrix ~servers (i : image) =
  let t = create ?capacity:i.capacity ?delay matrix ~servers in
  (* One rebuild on the next query instead of an unpruned extend per
     node. *)
  lb_invalidate t;
  List.iter
    (fun srv ->
      if srv < 0 || srv >= k t then
        invalid_arg (Printf.sprintf "Dynamic.restore: failed server %d out of range" srv);
      set_failed t srv true)
    i.failed;
  List.iter (fun (server, factor) -> set_drift t ~server ~factor) i.drift;
  List.iter
    (fun (id, node, server) ->
      if node < 0 || node >= Matrix.dim matrix then
        invalid_arg (Printf.sprintf "Dynamic.restore: node %d out of range" node);
      if server < 0 || server >= k t then
        invalid_arg (Printf.sprintf "Dynamic.restore: server %d out of range" server);
      if t.failed.(server) then
        invalid_arg (Printf.sprintf "Dynamic.restore: member on failed server %d" server);
      if Hashtbl.mem t.members id then
        invalid_arg (Printf.sprintf "Dynamic.restore: duplicate client id %d" id);
      if t.load.(server) >= t.capacity then
        invalid_arg (Printf.sprintf "Dynamic.restore: server %d over capacity" server);
      Hashtbl.replace t.members id { node; server };
      t.load.(server) <- t.load.(server) + 1;
      ecc_add t server (d_ns t node server);
      node_add t node;
      if id >= i.next_id then
        invalid_arg (Printf.sprintf "Dynamic.restore: client id %d >= next_id" id))
    i.members;
  t.next_id <- i.next_id;
  (* The replayed drifts bumped it; a restored session starts afresh. *)
  t.version <- 0;
  t.joins <- i.stats.joins;
  t.leaves <- i.stats.leaves;
  t.moves <- i.stats.moves;
  t

type failover = { rehomed : int; stranded : (client_id * int) list }

let has_room t =
  let i = ref 0 and n = Array.length t.live in
  while !i < n && t.load.(t.live.(!i)) >= t.capacity do
    incr i
  done;
  !i < n

(* Each orphan, in ascending id order, lands by the join rule; once no
   live server has room, the rest are disconnected and reported. *)
let fail_server t s =
  if s < 0 || s >= k t then
    invalid_arg (Printf.sprintf "Dynamic.fail_server: server %d out of range" s);
  if t.failed.(s) then
    invalid_arg (Printf.sprintf "Dynamic.fail_server: server %d already failed" s);
  if Array.length t.live = 1 then
    invalid_arg
      (Printf.sprintf "Dynamic.fail_server: server %d is the last live server" s);
  set_failed t s true;
  (* One bump covers the whole failover, stranded removals included. *)
  t.version <- t.version + 1;
  let orphans =
    Hashtbl.fold (fun id m acc -> if m.server = s then (id, m) :: acc else acc) t.members []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  t.load.(s) <- 0;
  t.ecc.(s) <- neg_infinity;
  t.dists.(s) <- Fmap.empty;
  refresh_eff t s;
  lb_invalidate t;
  let stranded = ref [] in
  List.iter
    (fun (id, m) ->
      let target = best_server t m.node in
      if target < 0 then begin
        Hashtbl.remove t.members id;
        node_remove t m.node;
        stranded := (id, m.node) :: !stranded
      end
      else begin
        m.server <- target;
        t.load.(target) <- t.load.(target) + 1;
        ecc_add t target (d_ns t m.node target);
        t.moves <- t.moves + 1
      end)
    orphans;
  { rehomed = List.length orphans - List.length !stranded; stranded = List.rev !stranded }

let recover_server t s =
  if s < 0 || s >= k t then
    invalid_arg (Printf.sprintf "Dynamic.recover_server: server %d out of range" s);
  if not t.failed.(s) then
    invalid_arg (Printf.sprintf "Dynamic.recover_server: server %d is not failed" s);
  set_failed t s false;
  t.version <- t.version + 1;
  lb_invalidate t
