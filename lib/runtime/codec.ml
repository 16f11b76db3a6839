(* The C conversion [Printf]'s %g formats end in, without the format
   interpretation in front of it. *)
external format_float : string -> float -> string = "caml_format_float"

(* If 6 significant digits round-trip, so do 12 (the 12-digit rendering
   of a double that is the nearest to a 6-digit decimal is that decimal),
   so trying %.12g first settles most floats — full-precision event
   times — in one conversion instead of two, with the same result. The
   C path: only for the values outside the OCaml renderer's range. *)
let float_str_c f =
  if Float.is_nan f then "nan"
  else
    let exact fmt =
      let s = format_float fmt f in
      if float_of_string s = f then Some s else None
    in
    match exact "%.12g" with
    | None -> format_float "%.17g" f
    | Some s12 -> ( match exact "%g" with Some s -> s | None -> s12)

(* --- decimal digits in native ints ------------------------------------ *)

(* 10^0 .. 10^18: every power of ten below 2^62 *)
let pow10 =
  let t = Array.make 19 1 in
  for i = 1 to 18 do t.(i) <- t.(i - 1) * 10 done;
  t

(* The digits of [-n] (so [n <= 0]: negating a non-negative int never
   overflows, negating [min_int] would), most significant first. *)
let rec add_neg b n =
  if n <= -10 then add_neg b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg b n
  end
  else add_neg b (-n)

(* The range the OCaml renderer covers: [a = m * 2^e] with a 53-bit [m]
   and [-59 <= e <= 9], so the integer part [m lsl e] stays below 2^62
   and a fraction digit [k * 10 lsr q] (with [k < 2^q], [q = -e <= 59])
   stays below 2^63 — exact in a native int read unsigned. *)
let in_range a = a >= 0x1p-7 && a < 0x1p62

type rounded = {
  d : int;  (* exactly [p] significant digits *)
  x : int;  (* the decimal exponent of the first one *)
  exact : bool;  (* d * 10^(x-p+1) reads back as the rendered double *)
}

(* Whether a cut-off tail [lhs / 2^q * 10^-j] lies within half a gap
   of the double ([c * k] against [10^j]; see [round_digits]). *)
let within lhs j even = j > 18 || lhs < pow10.(j) || (lhs = pow10.(j) && even)

(* [a]'s [p] (<= 17) leading significant digits, rounded to nearest with
   ties to even from the next digit and a sticky bit, for [a] positive
   and [in_range]. [exact] holds when the rounded decimal lies in [a]'s
   rounding interval: within half the gap to each neighbour (the lower
   gap is half as wide at a power of two), ends included when [m] is
   even — the decimals an IEEE-correct [float_of_string] maps to [a]. *)
let round_digits p a =
  let bits = Int64.bits_of_float a in
  let m = Int64.to_int bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
  let e = (Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF) - 1075 in
  let q = if e < 0 then -e else 0 in
  let mask = (1 lsl q) - 1 in
  let ip = if e < 0 then m lsr q else m lsl e in
  let even = m land 1 = 0 in
  (* the gap below [a] is half as wide at a power of two *)
  let c = if m = 1 lsl 52 then 4 else 2 in
  let k = ref (m land mask) in
  let d = ref 0 and x = ref 0 and nxt = ref 0 and sticky = ref false in
  let exact_down = ref false and exact_up = ref false in
  let n = ref 1 in
  while !n < 19 && ip >= pow10.(!n) do incr n done;
  if ip > 0 && !n > p then begin
    (* The cut falls in the integer part. With a fraction (q > 0) the
       gaps are below 1 and the cut is exact only when nothing is cut;
       an integral [a] compares its integer tail with the gaps, all
       times 4. *)
    let s = !n - p in
    d := ip / pow10.(s);
    x := !n - 1;
    let rem = ip - (!d * pow10.(s)) in
    nxt := rem / pow10.(s - 1);
    sticky := rem - (!nxt * pow10.(s - 1)) <> 0 || !k <> 0;
    if q > 0 then exact_down := rem = 0 && !k = 0
    else begin
      let gap = 1 lsl (e + 1) in
      let lo = if c = 4 then gap / 2 else gap and up = 4 * (pow10.(s) - rem) in
      exact_down := 4 * rem < lo || (4 * rem = lo && even);
      exact_up := up < gap || (up = gap && even)
    end
  end
  else begin
    (* The cut falls in the fraction: [d] starts as the integer part's
       [n] digits, or, below 1, as the first non-zero fraction digit. *)
    if ip > 0 then begin
      d := ip;
      x := !n - 1
    end
    else begin
      x := -1;
      while !d = 0 do
        let t = !k * 10 in
        k := t land mask;
        d := t lsr q;
        decr x
      done;
      incr x;
      n := 1
    end;
    for _ = 1 to p - !n do
      let t = !k * 10 in
      k := t land mask;
      d := (!d * 10) + (t lsr q)
    done;
    (* The tail cut off below digit [p] is [k / 2^q * 10^-j] once [j]
       fraction digits are out: within half the gap below [a] when
       [c * k] is below [10^j], half the gap above when
       [2 * (2^q - k)] is. *)
    let j = p - 1 - !x and kj = !k in
    let t = kj * 10 in
    k := t land mask;
    nxt := t lsr q;
    sticky := !k <> 0;
    exact_down := within (c * kj) j even;
    exact_up := within (2 * (mask + 1 - kj)) j even
  end;
  let d = !d and x = !x in
  if !nxt > 5 || (!nxt = 5 && (!sticky || d land 1 = 1)) then
    if d + 1 = pow10.(p) then { d = pow10.(p - 1); x = x + 1; exact = !exact_up }
    else { d = d + 1; x; exact = !exact_up }
  else { d; x; exact = !exact_down }

(* The [nd] digits of [d] at [pos] in [s], most significant first, with
   a '.' in front of digit [point] (0-based; none unless [point] is in
   [1, nd)); returns the end position. *)
let put_digits s pos d nd point =
  let stop = if point >= 1 && point < nd then pos + nd + 1 else pos + nd in
  let d = ref d in
  for i = stop - 1 downto pos do
    if i = pos + point then Bytes.unsafe_set s i '.'
    else begin
      Bytes.unsafe_set s i (Char.unsafe_chr (48 + (!d mod 10)));
      d := !d / 10
    end
  done;
  stop

(* %.[p]g's layout of [r] at [pos] in [s]: %e style when the exponent is
   below -4 or at least [p], %f style otherwise; trailing fraction zeros
   dropped, and the point with them; the exponent signed, two digits (it
   has no more in range). Returns the end position. *)
let put_g s pos p r =
  let d = ref r.d and nd = ref p and x = r.x in
  while !nd > 1 && !d mod 10 = 0 do
    d := !d / 10;
    decr nd
  done;
  if x < -4 || x >= p then begin
    let pos = put_digits s pos !d !nd 1 in
    Bytes.unsafe_set s pos 'e';
    Bytes.unsafe_set s (pos + 1) (if x < 0 then '-' else '+');
    put_digits s (pos + 2) (abs x) 2 (-1)
  end
  else if x >= 0 then begin
    let pos = put_digits s pos !d !nd (x + 1) in
    let zeros = max 0 (x + 1 - !nd) in
    Bytes.fill s pos zeros '0';
    pos + zeros
  end
  else begin
    Bytes.fill s pos (1 - x) '0';
    Bytes.unsafe_set s (pos + 1) '.';
    put_digits s (pos + 1 - x) !d !nd (-1)
  end

(* Each domain renders into its own scratch: a sign, 17 digits, a point
   and "e+18" (or "0.000" in front) take fewer than 32 bytes. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 32)

(* [f]'s rendering at the start of [s], for [f] in range; returns its
   length. *)
let put_float s f =
  let pos = if f < 0. then (Bytes.unsafe_set s 0 '-'; 1) else 0 in
  let a = Float.abs f in
  let r12 = round_digits 12 a in
  if not r12.exact then put_g s pos 17 (round_digits 17 a)
  else
    let r6 = round_digits 6 a in
    if r6.exact then put_g s pos 6 r6 else put_g s pos 12 r12

let add_float b f =
  if in_range (Float.abs f) then begin
    let s = Domain.DLS.get scratch in
    Buffer.add_subbytes b s 0 (put_float s f)
  end
  else Buffer.add_string b (float_str_c f)

let float_str f =
  if in_range (Float.abs f) then begin
    let s = Domain.DLS.get scratch in
    Bytes.sub_string s 0 (put_float s f)
  end
  else float_str_c f

(* OCaml's %h: sign, then "infinity"/"nan", or 0x, the leading bit, the
   fraction's hex digits up to the last non-zero one, and p with the
   signed binary exponent (subnormals at -1022). *)
let add_hex b f =
  let bits = Int64.bits_of_float f in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  let ex = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let frac = (1 lsl 52) - 1 in
  let m = ref (Int64.to_int bits land frac) in
  if ex = 0x7FF then Buffer.add_string b (if !m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if ex = 0 then "0x0" else "0x1");
    if !m <> 0 then begin
      Buffer.add_char b '.';
      while !m <> 0 do
        Buffer.add_char b (String.unsafe_get "0123456789abcdef" (!m lsr 48));
        m := (!m lsl 4) land frac
      done
    end;
    let ex = if ex = 0 then if Int64.to_int bits land frac = 0 then 0 else -1022 else ex - 1023 in
    Buffer.add_char b 'p';
    if ex >= 0 then Buffer.add_char b '+';
    add_int b ex
  end

let float_of_str s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "Codec.float_of_str: %S is not a float" s)
