include Nd.Make (Elt.Float)

(* ------------------------------------------------------------------ *)
(* Float fast paths                                                    *)
(*                                                                     *)
(* The generic functor pays a closure call and an index computation    *)
(* per element, which is fine for symbolic execution on tiny tensors   *)
(* but dominates when the reference interpreter runs at performance    *)
(* shapes (the benches, validation).  The shadowed operations below    *)
(* work on the flat [float array] storage (unboxed in OCaml) and       *)
(* fall back to the generic versions for shapes they do not handle.    *)
(* ------------------------------------------------------------------ *)

let generic_map2_add = add
let generic_map2_sub = sub
let generic_map2_mul = mul
let generic_map2_div = div
let generic_map2_pow = pow
let generic_map2_max = maximum
let generic_dot = dot
let generic_sum = sum
let generic_transpose = transpose

let same_shape a b = Shape.equal (shape a) (shape b)

let fast2 generic f a b =
  if same_shape a b then begin
    let da = unsafe_data a and db = unsafe_data b in
    let n = Array.length da in
    let out = Array.make n 0. in
    for i = 0 to n - 1 do
      out.(i) <- f (Array.unsafe_get da i) (Array.unsafe_get db i)
    done;
    unsafe_of_data (shape a) out
  end
  else if rank a = 0 then begin
    let x = (unsafe_data a).(0) in
    let db = unsafe_data b in
    let n = Array.length db in
    let out = Array.make n 0. in
    for i = 0 to n - 1 do
      out.(i) <- f x (Array.unsafe_get db i)
    done;
    unsafe_of_data (shape b) out
  end
  else if rank b = 0 then begin
    let y = (unsafe_data b).(0) in
    let da = unsafe_data a in
    let n = Array.length da in
    let out = Array.make n 0. in
    for i = 0 to n - 1 do
      out.(i) <- f (Array.unsafe_get da i) y
    done;
    unsafe_of_data (shape a) out
  end
  else
    let sa = shape a and sb = shape b in
    let ra = Shape.rank sa and rb = Shape.rank sb in
    if rb = 1 && ra >= 1 && sa.(ra - 1) = sb.(0) then begin
      (* (..., n) op (n): apply the vector to each contiguous row *)
      let da = unsafe_data a and db = unsafe_data b in
      let n = sb.(0) in
      let m = Array.length da / n in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        let base = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set out (base + j)
            (f (Array.unsafe_get da (base + j)) (Array.unsafe_get db j))
        done
      done;
      unsafe_of_data sa out
    end
    else if ra = 1 && rb >= 1 && sb.(rb - 1) = sa.(0) then begin
      let da = unsafe_data a and db = unsafe_data b in
      let n = sa.(0) in
      let m = Array.length db / n in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        let base = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set out (base + j)
            (f (Array.unsafe_get da j) (Array.unsafe_get db (base + j)))
        done
      done;
      unsafe_of_data sb out
    end
    else if ra = 2 && sa.(1) = 1 && rb = 1 then begin
      (* (m,1) op (n): outer combination *)
      let da = unsafe_data a and db = unsafe_data b in
      let m = sa.(0) and n = sb.(0) in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        let x = Array.unsafe_get da i in
        let base = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set out (base + j) (f x (Array.unsafe_get db j))
        done
      done;
      unsafe_of_data [| m; n |] out
    end
    else if rb = 2 && sb.(1) = 1 && ra = 1 then begin
      let da = unsafe_data a and db = unsafe_data b in
      let m = sb.(0) and n = sa.(0) in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        let y = Array.unsafe_get db i in
        let base = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set out (base + j) (f (Array.unsafe_get da j) y)
        done
      done;
      unsafe_of_data [| m; n |] out
    end
    else generic a b

let add = fast2 generic_map2_add ( +. )
let sub = fast2 generic_map2_sub ( -. )
let mul = fast2 generic_map2_mul ( *. )
let div = fast2 generic_map2_div ( /. )
let pow = fast2 generic_map2_pow Float.pow
let maximum = fast2 generic_map2_max Float.max

let map1 f t =
  let d = unsafe_data t in
  let n = Array.length d in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- f (Array.unsafe_get d i)
  done;
  unsafe_of_data (shape t) out

let sqrt = map1 Float.sqrt
let exp = map1 Float.exp
let log = map1 Float.log
let neg = map1 Float.neg

let dot a b =
  let sa = shape a and sb = shape b in
  let ra = Shape.rank sa and rb = Shape.rank sb in
  if ra >= 1 && rb = 1 then begin
    (* (..., k) . (k) -> (...) *)
    let k = sa.(ra - 1) in
    if sb.(0) <> k then generic_dot a b
    else begin
      let da = unsafe_data a and db = unsafe_data b in
      let m = Array.length da / k in
      let out = Array.make m 0. in
      for i = 0 to m - 1 do
        let base = i * k in
        let acc = ref 0. in
        for j = 0 to k - 1 do
          acc :=
            !acc +. (Array.unsafe_get da (base + j) *. Array.unsafe_get db j)
        done;
        out.(i) <- !acc
      done;
      unsafe_of_data (Array.sub sa 0 (ra - 1)) out
    end
  end
  else if ra >= 1 && rb = 2 then begin
    (* (..., k) . (k, n) -> (..., n) *)
    let k = sa.(ra - 1) and n = sb.(1) in
    if sb.(0) <> k then generic_dot a b
    else begin
      let da = unsafe_data a and db = unsafe_data b in
      let m = Array.length da / k in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        let abase = i * k and obase = i * n in
        for l = 0 to k - 1 do
          let av = Array.unsafe_get da (abase + l) in
          let bbase = l * n in
          for j = 0 to n - 1 do
            Array.unsafe_set out (obase + j)
              (Array.unsafe_get out (obase + j)
              +. (av *. Array.unsafe_get db (bbase + j)))
          done
        done
      done;
      let out_shape = Array.append (Array.sub sa 0 (ra - 1)) [| n |] in
      unsafe_of_data out_shape out
    end
  end
  else generic_dot a b

let fast_sum ?axis t =
  match axis with
  | None ->
      let d = unsafe_data t in
      let acc = ref 0. in
      for i = 0 to Array.length d - 1 do
        acc := !acc +. Array.unsafe_get d i
      done;
      scalar !acc
  | Some ax ->
      let s = shape t in
      let ax' = Shape.normalize_axis s ax in
      if ax' = Shape.rank s - 1 then begin
        (* contiguous inner reduction *)
        let k = s.(ax') in
        let d = unsafe_data t in
        let m = Array.length d / k in
        let out = Array.make m 0. in
        for i = 0 to m - 1 do
          let base = i * k in
          let acc = ref 0. in
          for j = 0 to k - 1 do
            acc := !acc +. Array.unsafe_get d (base + j)
          done;
          out.(i) <- !acc
        done;
        unsafe_of_data (Shape.remove_axis s ax') out
      end
      else if Shape.rank s = 2 && ax' = 0 then begin
        (* column reduction of a matrix *)
        let m = s.(0) and n = s.(1) in
        let d = unsafe_data t in
        let out = Array.make n 0. in
        for i = 0 to m - 1 do
          let base = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set out j
              (Array.unsafe_get out j +. Array.unsafe_get d (base + j))
          done
        done;
        unsafe_of_data [| n |] out
      end
      else generic_sum ~axis:ax t

let sum ?axis ?(keepdims = false) t =
  let plain = fast_sum ?axis t in
  if not keepdims then plain
  else
    (* Zero-copy shape re-tag: the reduced data is laid out identically
       whether the axis is dropped or kept as size 1. *)
    let s = shape t in
    let ks =
      match axis with
      | None -> Array.make (Shape.rank s) 1
      | Some ax ->
          let ax = Shape.normalize_axis s ax in
          Array.mapi (fun i d -> if i = ax then 1 else d) s
    in
    unsafe_of_data ks (unsafe_data plain)

let transpose ?perm t =
  let s = shape t in
  match (perm, Shape.rank s) with
  | None, 2 ->
      let m = s.(0) and n = s.(1) in
      let d = unsafe_data t in
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          Array.unsafe_set out ((j * m) + i) (Array.unsafe_get d ((i * n) + j))
        done
      done;
      unsafe_of_data [| n; m |] out
  | _ -> generic_transpose ?perm t

(* ------------------------------------------------------------------ *)

let randomize ?(lo = 0.5) ?(hi = 1.5) st shape =
  init shape (fun _ -> lo +. Random.State.float st (hi -. lo))

let allclose ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  for_all2
    (fun x y -> Float.abs (x -. y) <= atol +. (rtol *. Float.abs y))
    a b

let of_float f = scalar f
let fold f init t = Array.fold_left f init (to_array t)
