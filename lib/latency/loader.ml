type raw = { nodes : int; entries : float option array array }

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = try loop [] with e -> close_in ic; raise e in
  close_in ic;
  lines

let is_comment line =
  let line = String.trim line in
  String.length line = 0 || line.[0] = '#' || line.[0] = '%'

(* Data lines with their 1-based line numbers in the file. *)
let data_lines path =
  List.mapi (fun i l -> (i + 1, l)) (read_lines path)
  |> List.filter (fun (_, l) -> not (is_comment l))

let is_blank c = c = ' ' || c = '\t'

(* Whitespace-separated tokens with their 1-based columns. *)
let fields line =
  let len = String.length line in
  let rec scan i acc =
    if i >= len then List.rev acc
    else if is_blank line.[i] then scan (i + 1) acc
    else begin
      let j = ref i in
      while !j < len && not (is_blank line.[!j]) do incr j done;
      scan !j ((i + 1, String.sub line i (!j - i)) :: acc)
    end
  in
  scan 0 []

let fail_at ~line ~col fmt =
  Printf.ksprintf
    (fun m -> failwith (Printf.sprintf "Loader: line %d, column %d: %s" line col m))
    fmt

let max_latency = 1e9

(* [nan] and [inf] parse as floats; reject them here, where the
   position is known, rather than letting them reach the matrix. So is a
   finite value above [max_latency]: averaging an asymmetric pair, or
   summing a three-hop path, would overflow to infinity. *)
let parse_cell ~line (col, token) =
  if token = "-" || token = "?" then None
  else
    match float_of_string_opt token with
    | None -> fail_at ~line ~col "unparsable value %S" token
    | Some v when not (Float.is_finite v) ->
        fail_at ~line ~col "non-finite value %S" token
    | Some v when v > max_latency ->
        fail_at ~line ~col "value %S is above the ceiling %g" token max_latency
    | Some v -> if v < 0. then None else Some v

let parse_matrix path =
  let rows =
    List.map
      (fun (line, text) -> Array.of_list (List.map (parse_cell ~line) (fields text)))
      (data_lines path)
  in
  let n = List.length rows in
  List.iteri
    (fun i row ->
      if Array.length row <> n then
        failwith
          (Printf.sprintf "Loader: row %d has %d entries, expected %d" i
             (Array.length row) n))
    rows;
  { nodes = n; entries = Array.of_list rows }

(* Ids are checked against the ceiling while the lines are parsed, so a
   hostile id fails with its position before [max id + 1] can overflow
   or size an allocation. *)
let max_nodes = 65_536

let parse_triples path =
  let triples =
    List.map
      (fun (line, text) ->
        let id (col, token) =
          match int_of_string_opt token with
          | Some id when id >= max_nodes ->
              fail_at ~line ~col "node id %d is not below the ceiling %d" id max_nodes
          | Some id when id >= 0 -> id
          | _ -> failwith (Printf.sprintf "Loader: line %d: bad triple line %S" line text)
        in
        match fields text with
        | [ i; j; rtt ] ->
            let rtt = parse_cell ~line rtt in
            let j = id j in
            (id i, j, rtt)
        | _ ->
            failwith
              (Printf.sprintf "Loader: line %d: expected 'i j rtt', got %S" line text))
      (data_lines path)
  in
  let nodes =
    List.fold_left (fun acc (i, j, _) -> max acc (max i j + 1)) 0 triples
  in
  let entries = Array.make_matrix nodes nodes None in
  List.iter
    (fun (i, j, rtt) ->
      match rtt with
      | None -> ()
      | Some v ->
          (* Keep the smaller of duplicate measurements, like King post-
             processing pipelines do. *)
          let keep prev = match prev with None -> Some v | Some p -> Some (Float.min p v) in
          entries.(i).(j) <- keep entries.(i).(j);
          entries.(j).(i) <- keep entries.(j).(i))
    triples;
  for i = 0 to nodes - 1 do
    entries.(i).(i) <- Some 0.
  done;
  { nodes; entries }

let missing_degree raw alive i =
  let count = ref 0 in
  Array.iteri
    (fun j alive_j ->
      if alive_j && j <> i && raw.entries.(i).(j) = None then incr count)
    alive;
  !count

let complete_subset raw =
  let alive = Array.make raw.nodes true in
  let rec prune () =
    let worst = ref (-1) and worst_deg = ref 0 in
    for i = 0 to raw.nodes - 1 do
      if alive.(i) then begin
        let deg = missing_degree raw alive i in
        if deg > !worst_deg then begin
          worst := i;
          worst_deg := deg
        end
      end
    done;
    if !worst >= 0 then begin
      alive.(!worst) <- false;
      prune ()
    end
  in
  prune ();
  let ids =
    Array.of_list
      (List.filter (fun i -> alive.(i)) (List.init raw.nodes Fun.id))
  in
  let floor = 0.01 in
  let matrix =
    Matrix.init (Array.length ids) (fun a b ->
        let i = ids.(a) and j = ids.(b) in
        match (raw.entries.(i).(j), raw.entries.(j).(i)) with
        | Some x, Some y -> Float.max floor ((x +. y) /. 2.)
        | Some x, None | None, Some x -> Float.max floor x
        | None, None -> assert false)
  in
  (ids, matrix)

(* A three-field first line means triples unless the file could be a
   3x3 matrix, whose diagonal is zero: three lines whose i-th line has
   a zero i-th field, or one [parse_cell] reads as missing. *)
let looks_like_triples path =
  match data_lines path with
  | [] -> false
  | (_, first) :: _ as lines ->
      let zero_diagonal i (_, text) =
        match List.nth_opt (fields text) i with
        | Some (_, token) -> (
            match float_of_string_opt token with
            | Some v -> v <= 0.
            | None -> token = "-" || token = "?")
        | None -> false
      in
      List.length (fields first) = 3
      && not
           (List.length lines = 3
           && List.for_all Fun.id (List.mapi zero_diagonal lines))

let load path =
  let raw = if looks_like_triples path then parse_triples path else parse_matrix path in
  snd (complete_subset raw)

let save_matrix path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = Matrix.dim m in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if j > 0 then output_char oc ' ';
          output_string oc (Printf.sprintf "%.6g" (Matrix.get m i j))
        done;
        output_char oc '\n'
      done)
