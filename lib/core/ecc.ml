module Matrix = Dia_latency.Matrix

(* The client-server readers go to the latency store itself through
   [dist], reading d(c, s) as entry [c] of server [s]'s row: every
   server's row is held ([Problem.make] checks it), a client's need not
   be, and entries are stored symmetric, so that is the double
   [Problem.d_cs] returns. Row offsets are looked up once per call and
   node ids were validated at [Problem.make]; array accesses that
   depend on caller-supplied assignment entries stay checked.
   [Bigarray.Array1.unsafe_get] on the store's concrete type is a
   primitive the compiler expands in place, so a read costs no call and
   boxes no float even when modules are compiled [-opaque], where a
   call into [Matrix] would do both. *)
let[@inline] dist (buf : Matrix.buffer) row j = Bigarray.Array1.unsafe_get buf (row + j)

let of_assignment p assignment =
  let m = Problem.latency p in
  let buf = Matrix.unsafe_buffer m in
  let clients = Problem.clients p in
  let srow = Matrix.row_offsets m (Problem.servers p) in
  let k = Problem.num_servers p in
  let ecc = Array.make k neg_infinity and load = Array.make k 0 in
  for c = 0 to Array.length assignment - 1 do
    let s = assignment.(c) in
    let d = dist buf srow.(s) clients.(c) in
    load.(s) <- load.(s) + 1;
    if d > ecc.(s) then ecc.(s) <- d
  done;
  (ecc, load)

(* The server-level scans below index [ss] unchecked: [e] fixes [k], and
   every caller's table is k x k. A pair [a <= b] is always evaluated as
   [(e a + d(a, b)) + e b], the grouping every scan and [length] share,
   so a value found by one is the value another recomputes. *)

let length ~ss e s1 s2 =
  let a = if s1 <= s2 then s1 else s2 and b = if s1 <= s2 then s2 else s1 in
  e.(a) +. ss.((a * Array.length e) + b) +. e.(b)

let longest ~ss e =
  let k = Array.length e in
  let best = ref neg_infinity and pair = ref (-1) in
  for s1 = 0 to k - 1 do
    let e1 = e.(s1) and row = s1 * k in
    if e1 > neg_infinity then
      for s2 = s1 to k - 1 do
        let e2 = Array.unsafe_get e s2 in
        if e2 > neg_infinity then begin
          let len = e1 +. Array.unsafe_get ss (row + s2) +. e2 in
          if len > !best then begin
            best := len;
            pair := row + s2
          end
        end
      done
  done;
  !pair

let objective ~ss e =
  match longest ~ss e with
  | -1 ->
      (* No server is used: D over an empty configuration is an empty
         max. Normalised to [0.] — the identity of the objective
         (mirroring [Checker.analyze]'s [empty] flag) — rather than
         leaking [neg_infinity] into downstream arithmetic. *)
      0.
  | pair ->
      let k = Array.length e in
      length ~ss e (pair / k) (pair mod k)

let through ~ss e s =
  let k = Array.length e in
  let es = e.(s) in
  let best = ref neg_infinity and partner = ref (-1) in
  for s' = 0 to k - 1 do
    let e' = Array.unsafe_get e s' in
    if e' > neg_infinity then begin
      let len =
        if s' < s then e' +. Array.unsafe_get ss ((s' * k) + s) +. es
        else es +. Array.unsafe_get ss ((s * k) + s') +. e'
      in
      if len > !best then begin
        best := len;
        partner := s'
      end
    end
  done;
  !partner

let attach ~ss e ~hop ~best s =
  let k = Array.length e in
  let h = hop.(s) and row = s * k in
  let bound = if best < 0 then infinity else hop.(best) in
  let worst = ref (2. *. h) in
  (* Once [worst] reaches [bound] the caller has its answer: [s] cannot
     beat [best]. Without a [best] the exit only fires at an infinite
     [worst], which no later term exceeds. *)
  let s'' = ref 0 in
  while !s'' < k && !worst < bound do
    let x = Array.unsafe_get e !s'' in
    if x > neg_infinity then begin
      let len = h +. Array.unsafe_get ss (row + !s'') +. x in
      if len > !worst then worst := len
    end;
    incr s''
  done;
  hop.(s) <- !worst

let rowmax ~ss k =
  let m = Array.make k neg_infinity in
  for s1 = 0 to k - 1 do
    for s2 = s1 to k - 1 do
      let v = Array.unsafe_get ss ((s1 * k) + s2) in
      if v > m.(s1) then m.(s1) <- v
    done
  done;
  m

let on_longest ~ss ~rowmax e d =
  let k = Array.length e in
  let threshold = d -. 1e-9 in
  let maxe = ref neg_infinity and flags = Array.make k false in
  for s = 0 to k - 1 do
    if e.(s) > !maxe then maxe := e.(s)
  done;
  (* Every pair of row [s1] sums [(e s1 + d(s1, s2)) + e s2] with
     [d(s1, s2) <= rowmax s1] and [e s2 <= maxe]; float addition rounds
     monotonically, so the row bound is >= each sum it stands for. *)
  for s1 = 0 to k - 1 do
    let e1 = e.(s1) in
    if e1 > neg_infinity && e1 +. rowmax.(s1) +. !maxe >= threshold then begin
      let row = s1 * k in
      for s2 = s1 to k - 1 do
        let e2 = Array.unsafe_get e s2 in
        if e2 > neg_infinity && e1 +. Array.unsafe_get ss (row + s2) +. e2 >= threshold
        then begin
          flags.(s1) <- true;
          flags.(s2) <- true
        end
      done
    end
  done;
  flags

let effective ~delay ecc ~load =
  Array.mapi
    (fun s e -> if e > neg_infinity then e +. Delay.eval delay load.(s) else e)
    ecc

let excluding p assignment ~server ~client =
  let m = Problem.latency p in
  let buf = Matrix.unsafe_buffer m in
  let clients = Problem.clients p in
  let row = Matrix.row_offset m (Problem.servers p).(server) in
  let worst = ref neg_infinity in
  for c = 0 to Array.length assignment - 1 do
    if Array.unsafe_get assignment c = server && c <> client then begin
      let d = dist buf row clients.(c) in
      if d > !worst then worst := d
    end
  done;
  !worst
