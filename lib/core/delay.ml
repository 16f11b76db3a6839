type t =
  | Constant of float
  | Linear of { base : float; coeff : float }
  | Queueing of { mu : float }

(* Finite stand-in for an infinite queueing delay: large enough to
   dominate any network distance, small enough that sums of a few of
   them stay finite — so saturated configurations remain totally
   ordered (by how far past saturation they are) instead of collapsing
   into incomparable infinities or NaNs. *)
let saturation = 1e9

let zero = Constant 0.

(* Constant and Linear parameters are capped at [saturation]: past it a
   single hop, or [coeff] times a modest load, overflows the sums the
   objective builds, and no queue a delay model describes waits longer. *)
let check_param model name v =
  if not (Float.is_finite v) || v < 0. then
    Error (Printf.sprintf "%s %s must be finite and >= 0" model name)
  else if v > saturation then
    Error (Printf.sprintf "%s %s %.17g exceeds the saturation delay %g" model name v
             saturation)
  else Ok ()

let check = function
  | Constant c -> check_param "constant" "C" c
  | Linear { base; coeff } ->
      Result.bind (check_param "linear" "BASE" base) (fun () ->
          check_param "linear" "COEFF" coeff)
  | Queueing { mu } ->
      if Float.is_finite mu && mu > 0. then Ok ()
      else Error "mm1 MU must be finite and > 0"

let validate t =
  match check t with Ok () -> () | Error m -> invalid_arg ("Delay: " ^ m)

let eval t load =
  if load < 0 then invalid_arg "Delay.eval: negative load";
  match t with
  | Constant c -> c
  | Linear { base; coeff } -> base +. (coeff *. float_of_int load)
  | Queueing { mu } ->
      let l = float_of_int load in
      if l < mu then
        (* 1/(mu - l) can overflow when mu - l is subnormal; the cap
           keeps the unsaturated branch at most [saturation]. *)
        Float.min (1. /. (mu -. l)) saturation
      else
        (* At or past saturation: strictly above every unsaturated
           value, and still strictly increasing in the backlog. *)
        saturation +. (l -. mu +. 1.)

let to_string = function
  | Constant c -> Printf.sprintf "constant:%.17g" c
  | Linear { base; coeff } -> Printf.sprintf "linear:%.17g,%.17g" base coeff
  | Queueing { mu } -> Printf.sprintf "mm1:%.17g" mu

let of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "invalid delay spec %S (expected constant:C, linear:BASE,COEFF or mm1:MU)"
         s)
  in
  let float_arg v = match float_of_string_opt (String.trim v) with
    | Some f when Float.is_finite f -> Some f
    | _ -> None
  in
  let parsed =
    match String.index_opt s ':' with
    | None -> None
    | Some i -> (
        let kind = String.sub s 0 i in
        let arg = String.sub s (i + 1) (String.length s - i - 1) in
        match kind with
        | "constant" -> Option.map (fun c -> Constant c) (float_arg arg)
        | "linear" -> (
            match String.index_opt arg ',' with
            | None -> None
            | Some j -> (
                let b = String.sub arg 0 j
                and c = String.sub arg (j + 1) (String.length arg - j - 1) in
                match (float_arg b, float_arg c) with
                | Some base, Some coeff -> Some (Linear { base; coeff })
                | _ -> None))
        | "mm1" -> Option.map (fun mu -> Queueing { mu }) (float_arg arg)
        | _ -> None)
  in
  match parsed with
  | None -> fail ()
  | Some t -> (
      match check t with
      | Ok () -> Ok t
      | Error m -> Error (Printf.sprintf "invalid delay spec %S: %s" s m))

let pp fmt t = Format.pp_print_string fmt (to_string t)
