module Matrix = Dia_latency.Matrix

(* The scans read the latency Bigarray directly ([Matrix.unsafe_get]
   on node ids validated at [Problem.make]); array accesses that depend
   on caller-supplied assignment entries stay checked. Values are the
   exact doubles [Problem.d_cs]/[d_ss] return. *)

let of_assignment p assignment =
  let m = Problem.latency p in
  let clients = Problem.clients p and servers = Problem.servers p in
  let k = Problem.num_servers p in
  let ecc = Array.make k neg_infinity and load = Array.make k 0 in
  Array.iteri
    (fun c s ->
      let d = Matrix.unsafe_get m clients.(c) servers.(s) in
      load.(s) <- load.(s) + 1;
      if d > ecc.(s) then ecc.(s) <- d)
    assignment;
  (ecc, load)

let longest p ecc =
  let m = Problem.latency p in
  let servers = Problem.servers p in
  let k = Problem.num_servers p in
  (* Gather the used servers once; the pair scan then touches only
     used x used instead of testing every pair — the same pairs a
     dense s1 <= s2 loop evaluates, in the same order. *)
  let used = Array.make k 0 in
  let u = ref 0 in
  for s = 0 to k - 1 do
    if ecc.(s) > neg_infinity then begin
      Array.unsafe_set used !u s;
      incr u
    end
  done;
  let best = ref neg_infinity and pair = ref (-1) in
  for i = 0 to !u - 1 do
    let s1 = Array.unsafe_get used i in
    let e1 = Array.unsafe_get ecc s1 in
    let n1 = Array.unsafe_get servers s1 in
    for j = i to !u - 1 do
      let s2 = Array.unsafe_get used j in
      let len = e1 +. Matrix.unsafe_get m n1 (Array.unsafe_get servers s2)
                +. Array.unsafe_get ecc s2 in
      if len > !best then begin
        best := len;
        pair := (s1 * k) + s2
      end
    done
  done;
  !pair

let objective p ecc =
  match longest p ecc with
  | -1 ->
      (* No server is used: D over an empty configuration is an empty
         max. Normalised to [0.] — the identity of the objective
         (mirroring [Checker.analyze]'s [empty] flag) — rather than
         leaking [neg_infinity] into downstream arithmetic. *)
      0.
  | pair ->
      let k = Problem.num_servers p in
      let s1 = pair / k and s2 = pair mod k in
      ecc.(s1) +. Problem.d_ss p s1 s2 +. ecc.(s2)

let effective ~delay ecc ~load =
  Array.mapi
    (fun s e -> if e > neg_infinity then e +. Delay.eval delay load.(s) else e)
    ecc

let excluding p assignment ~server ~client =
  let m = Problem.latency p in
  let clients = Problem.clients p in
  let snode = (Problem.servers p).(server) in
  let worst = ref neg_infinity in
  Array.iteri
    (fun c s ->
      if s = server && c <> client then begin
        let d = Matrix.unsafe_get m clients.(c) snode in
        if d > !worst then worst := d
      end)
    assignment;
  !worst

let attach ?(bound = infinity) p ecc ~client ~server =
  let m = Problem.latency p in
  let servers = Problem.servers p in
  let k = Problem.num_servers p in
  let snode = servers.(server) in
  let d = Matrix.unsafe_get m (Problem.clients p).(client) snode in
  let worst = ref (2. *. d) in
  (* Once [worst] reaches [bound] the caller has its answer: the full
     max is at least [worst]. Under the default [infinity] the exit
     only fires at an infinite [worst], which no later term exceeds. *)
  let s'' = ref 0 in
  while !s'' < k && !worst < bound do
    let e = ecc.(!s'') in
    if e > neg_infinity then begin
      let len = d +. Matrix.unsafe_get m snode (Array.unsafe_get servers !s'') +. e in
      if len > !worst then worst := len
    end;
    incr s''
  done;
  !worst
