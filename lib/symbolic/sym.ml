type t = { base : string; indices : int array }

let make base indices = { base; indices }
let scalar base = { base; indices = [||] }
let base t = t.base

let compare a b =
  let c = String.compare a.base b.base in
  if c <> 0 then c else Stdlib.compare a.indices b.indices

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
