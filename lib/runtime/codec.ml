(* The C conversion [Printf]'s %g formats end in, without the format
   interpretation in front of it. *)
external format_float : string -> float -> string = "caml_format_float"

(* If 6 significant digits round-trip, so do 12 (the 12-digit rendering
   of a double that is the nearest to a 6-digit decimal is that decimal),
   so trying %.12g first settles most floats — full-precision event
   times — in one conversion instead of two, with the same result. *)
let float_str f =
  if Float.is_nan f then "nan"
  else
    let exact fmt =
      let s = format_float fmt f in
      if float_of_string s = f then Some s else None
    in
    match exact "%.12g" with
    | None -> format_float "%.17g" f
    | Some s12 -> ( match exact "%g" with Some s -> s | None -> s12)

let float_of_str s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "Codec.float_of_str: %S is not a float" s)

