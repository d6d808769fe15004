type t = { base : string; indices : int array }

let make base indices = { base; indices }
let scalar base = { base; indices = [||] }
let base t = t.base

(* Bases by string order, then indices shorter first and element by
   element: the order polymorphic compare gives, without its generic
   traversal. *)
let compare a b =
  if a == b then 0
  else
    let c = String.compare a.base b.base in
    if c <> 0 then c
    else
      let xs = a.indices and ys = b.indices in
      let n = Array.length xs in
      let c = Int.compare n (Array.length ys) in
      if c <> 0 then c
      else
        let rec go i =
          if i = n then 0
          else
            let c =
              Int.compare (Array.unsafe_get xs i) (Array.unsafe_get ys i)
            in
            if c <> 0 then c else go (i + 1)
        in
        go 0

let equal a b = compare a b = 0

let to_string t =
  if Array.length t.indices = 0 then t.base
  else
    t.base ^ "["
    ^ String.concat "," (Array.to_list (Array.map string_of_int t.indices))
    ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
