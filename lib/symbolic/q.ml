type t = { num : int; den : int }

exception Overflow

(* Checked native-int arithmetic: coefficient blow-ups (e.g. inside
   polynomial long division with a hostile term order) must fail loudly
   rather than wrap around and corrupt the normal form. *)
let mul_ov a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then raise Overflow else p

let add_ov a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let half = make 1 2
let num q = q.num
let den q = q.den
let add a b =
  make
    (add_ov (mul_ov a.num b.den) (mul_ov b.num a.den))
    (mul_ov a.den b.den)

let sub a b =
  make
    (add_ov (mul_ov a.num b.den) (- mul_ov b.num a.den))
    (mul_ov a.den b.den)

let mul a b = make (mul_ov a.num b.num) (mul_ov a.den b.den)
let div a b = make (mul_ov a.num b.den) (mul_ov a.den b.num)
let min_int_guard a = if a.num = min_int then raise Overflow else a

let neg a =
  let a = min_int_guard a in
  { a with num = -a.num }

let inv a = make a.den a.num
let abs a = { (min_int_guard a) with num = Stdlib.abs a.num }

let pow_int q n =
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n asr 1)
    else go acc (mul base base) (n asr 1)
  in
  if n >= 0 then go one q n else go one (inv q) (-n)

let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_one a = a.num = 1 && a.den = 1
let is_integer a = a.den = 1
let to_int a = if a.den = 1 then Some a.num else None
let to_float a = float_of_int a.num /. float_of_int a.den

let of_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Some (of_int (int_of_float f))
  else
    (* try small denominators; covers 0.5, 0.25, 1.5 etc. *)
    let rec try_den d =
      if d > 64 then None
      else
        let scaled = f *. float_of_int d in
        if Float.is_integer scaled && Float.abs scaled < 1e15 then
          Some (make (int_of_float scaled) d)
        else try_den (d * 2)
    in
    try_den 2

let render buf q =
  Buffer.add_string buf (string_of_int q.num);
  if q.den <> 1 then begin
    Buffer.add_char buf '/';
    Buffer.add_string buf (string_of_int q.den)
  end

let to_string q =
  let buf = Buffer.create 16 in
  render buf q;
  Buffer.contents buf

let pp ppf q = Format.pp_print_string ppf (to_string q)
