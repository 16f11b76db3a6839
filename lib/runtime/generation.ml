let prefix = "ckpt."

let path ~dir n = Filename.concat dir (Printf.sprintf "%s%d" prefix n)

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             let pn = String.length prefix in
             if String.length f > pn && String.sub f 0 pn = prefix then
               match int_of_string_opt (String.sub f pn (String.length f - pn)) with
               | Some n when n >= 1 -> Some n
               | _ -> None
             else None)
      |> List.sort compare

let latest ~dir = match List.rev (list ~dir) with [] -> None | n :: _ -> Some n

let ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      invalid_arg ("state dir " ^ dir ^ " is not a directory")
  end
  else try Sys.mkdir dir 0o755 with Sys_error m -> invalid_arg ("state dir " ^ m)

let save ?disk ~dir ~keep state =
  if keep < 1 then invalid_arg "Generation.save: keep must be >= 1";
  ensure_dir dir;
  let disk = match disk with Some d -> d | None -> Disk.none () in
  let gens = list ~dir in
  let n = match List.rev gens with [] -> 1 | g :: _ -> g + 1 in
  Disk.write_file disk ~path:(path ~dir n) (Checkpoint.encode state);
  (* Prune beyond the retention window. A generation the injector
     refused to rename still consumed number [n] conceptually but left
     no file; pruning goes by the numbers that exist. *)
  List.iter
    (fun g ->
      if g <= n - keep then try Sys.remove (path ~dir g) with Sys_error _ -> ())
    gens;
  n

let newest_verifying ?(accept = Result.ok) ~dir ~digest () =
  let rec scan skipped = function
    | [] -> (None, List.rev skipped)
    | g :: older -> (
        match Checkpoint.decode (In_channel.with_open_bin (path ~dir g) In_channel.input_all) with
        | exception Sys_error m -> scan ((g, m) :: skipped) older
        | Ok st when st.Checkpoint.digest = digest -> (
            match accept st with
            | Ok st -> (Some (g, st), List.rev skipped)
            | Error m -> scan ((g, m) :: skipped) older)
        | Ok st ->
            scan
              ((g, Printf.sprintf "digest mismatch (%s)" st.Checkpoint.digest)
              :: skipped)
              older
        | Error m -> scan ((g, m) :: skipped) older)
  in
  scan [] (List.rev (list ~dir))
