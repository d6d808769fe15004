type t = int array

let scalar = [||]
let rank = Array.length
let numel s = Array.fold_left ( * ) 1 s
let equal (a : t) (b : t) = a = b

let validate s =
  Array.iter
    (fun d ->
      if d < 0 then
        invalid_arg (Printf.sprintf "Shape.validate: negative dimension %d" d))
    s

let strides s =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

let broadcast a b =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let out = Array.make r 0 in
  let ok = ref true in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db || db = 1 then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else ok := false
  done;
  if !ok then Some out else None

let broadcast_exn a b =
  match broadcast a b with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Shape.broadcast: incompatible shapes %s and %s"
           (String.concat "x" (Array.to_list (Array.map string_of_int a)))
           (String.concat "x" (Array.to_list (Array.map string_of_int b))))

let iter_indices s f =
  let n = rank s in
  if numel s = 0 then ()
  else if n = 0 then f [||]
  else
    let idx = Array.make n 0 in
    let rec next () =
      f idx;
      let rec carry i =
        if i < 0 then false
        else begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) < s.(i) then true
          else begin
            idx.(i) <- 0;
            carry (i - 1)
          end
        end
      in
      if carry (n - 1) then next ()
    in
    next ()

let offset s idx =
  if Array.length idx <> rank s then
    invalid_arg "Shape.offset: index rank mismatch";
  let st = strides s in
  let o = ref 0 in
  for i = 0 to rank s - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then
      invalid_arg "Shape.offset: index out of bounds";
    o := !o + (idx.(i) * st.(i))
  done;
  !o

let broadcast_offset s idx =
  let r = rank s and ri = Array.length idx in
  let st = strides s in
  let o = ref 0 in
  for i = 0 to r - 1 do
    let v = idx.(ri - r + i) in
    let v = if s.(i) = 1 then 0 else v in
    o := !o + (v * st.(i))
  done;
  !o

let remove_axis s axis =
  if axis < 0 || axis >= rank s then invalid_arg "Shape.remove_axis";
  Array.init (rank s - 1) (fun i -> if i < axis then s.(i) else s.(i + 1))

let insert_axis s axis n =
  if axis < 0 || axis > rank s then invalid_arg "Shape.insert_axis";
  Array.init (rank s + 1) (fun i ->
      if i < axis then s.(i) else if i = axis then n else s.(i - 1))

let transpose s perm =
  let n = rank s in
  if Array.length perm <> n then invalid_arg "Shape.transpose: rank mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Shape.transpose: not a permutation";
      seen.(p) <- true)
    perm;
  Array.map (fun p -> s.(p)) perm

let reverse_perm n = Array.init n (fun i -> n - 1 - i)

let invert_perm perm =
  let n = Array.length perm in
  let inv = Array.make n 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

let normalize_axis s axis =
  let n = rank s in
  let a = if axis < 0 then axis + n else axis in
  if a < 0 || a >= n then
    invalid_arg (Printf.sprintf "axis %d out of range for rank %d" axis n);
  a

let to_string s =
  "(" ^ String.concat "," (Array.to_list (Array.map string_of_int s)) ^ ")"

let pp ppf s = Format.pp_print_string ppf (to_string s)
