(* Span recorder for the traced run.

   A span is one public call the benchmark makes into the program: its
   name ("layer.op"), the span that was open when it started, and its
   start and stop on the monotonic clock in ns. Spans go into
   preallocated arrays, so recording allocates little more than the
   closure the call site already builds; they are aggregated or written
   out only after the timed region. With recording off, [wrap] is a
   plain call, and the arrays are not allocated until the first
   [reset]. *)

let capacity = 1 lsl 20

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false
let count = ref 0
let dropped = ref 0
let current = ref (-1)
let ids = ref [||]
let parents = ref [||]
let starts = ref [||]
let stops = ref [||]

let names : string array ref = ref [||]

let name label =
  let id = Array.length !names in
  names := Array.append !names [| label |];
  id

let label id = !names.(id)

(* Empty the recorder; [enabled] then switches recording on and off. *)
let reset () =
  if Array.length !ids = 0 then begin
    ids := Array.make capacity 0;
    parents := Array.make capacity (-1);
    starts := Array.make capacity 0;
    stops := Array.make capacity 0
  end;
  count := 0;
  dropped := 0;
  current := -1

let wrap id f =
  if not !enabled then f ()
  else if !count >= capacity then begin
    incr dropped;
    f ()
  end
  else begin
    let i = !count in
    incr count;
    let parent = !current in
    !ids.(i) <- id;
    !parents.(i) <- parent;
    current := i;
    !starts.(i) <- now_ns ();
    let finish () =
      !stops.(i) <- now_ns ();
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

type stat = {
  label : string;
  calls : int;
  self_s : float;  (** duration minus the part its child spans cover *)
  durations : float array;  (** inclusive durations in s, ascending *)
}

(* Children never overlap their parent's siblings (the recorder is
   single-domain and strictly nested), so a span's self time is its
   duration minus the sum of its direct children's durations. *)
let stats () =
  let n = !count in
  let duration i = float_of_int (!stops.(i) - !starts.(i)) *. 1e-9 in
  let covered = Array.make n 0. in
  for i = 0 to n - 1 do
    let p = !parents.(i) in
    if p >= 0 then covered.(p) <- covered.(p) +. duration i
  done;
  let by_id = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let calls, self, ds =
      Option.value ~default:(0, 0., []) (Hashtbl.find_opt by_id !ids.(i))
    in
    Hashtbl.replace by_id !ids.(i)
      (calls + 1, self +. (duration i -. covered.(i)), duration i :: ds)
  done;
  Hashtbl.fold
    (fun id (calls, self_s, ds) acc ->
      let durations = Array.of_list ds in
      Array.sort Float.compare durations;
      { label = label id; calls; self_s; durations } :: acc)
    by_id []
  |> List.sort (fun a b -> compare a.label b.label)

let write path =
  let oc = open_out path in
  output_string oc "id,parent,name,start_ns,stop_ns\n";
  for i = 0 to !count - 1 do
    Printf.fprintf oc "%d,%d,%s,%d,%d\n" i !parents.(i) (label !ids.(i)) !starts.(i)
      !stops.(i)
  done;
  close_out oc
