(* Shape arithmetic and broadcasting. *)
module Shape = Tensor.Shape

let shape = Alcotest.testable Shape.pp Shape.equal

let test_basics () =
  Alcotest.(check int) "numel scalar" 1 (Shape.numel [||]);
  Alcotest.(check int) "numel 3x4" 12 (Shape.numel [| 3; 4 |]);
  Alcotest.(check int) "numel with zero dim" 0 (Shape.numel [| 3; 0 |]);
  Alcotest.(check int) "rank" 3 (Shape.rank [| 2; 3; 4 |]);
  Alcotest.check_raises "negative dim" (Invalid_argument
    "Shape.validate: negative dimension -1") (fun () ->
      Shape.validate [| 3; -1 |])

let test_strides () =
  Alcotest.(check (array int)) "strides 2x3x4" [| 12; 4; 1 |]
    (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "strides scalar" [||] (Shape.strides [||])

let test_broadcast () =
  let bc a b = Shape.broadcast a b in
  Alcotest.(check (option shape)) "same" (Some [| 3; 4 |]) (bc [| 3; 4 |] [| 3; 4 |]);
  Alcotest.(check (option shape)) "scalar" (Some [| 3; 4 |]) (bc [||] [| 3; 4 |]);
  Alcotest.(check (option shape)) "vector vs matrix" (Some [| 3; 4 |])
    (bc [| 4 |] [| 3; 4 |]);
  Alcotest.(check (option shape)) "column" (Some [| 4; 3 |])
    (bc [| 4; 1 |] [| 3 |]);
  Alcotest.(check (option shape)) "incompatible" None (bc [| 3 |] [| 4 |]);
  Alcotest.(check (option shape)) "ones stretch both ways" (Some [| 5; 7 |])
    (bc [| 5; 1 |] [| 1; 7 |]);
  Alcotest.(check (option shape)) "one stretches to zero" (Some [| 0; 3 |])
    (bc [| 1; 3 |] [| 0; 1 |])

let test_iteration () =
  let order = ref [] in
  Shape.iter_indices [| 2; 2 |] (fun idx -> order := Array.copy idx :: !order);
  Alcotest.(check int) "visits all" 4 (List.length !order);
  Alcotest.(check (list (array int)))
    "row-major order"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
    (List.rev !order);
  let count = ref 0 in
  Shape.iter_indices [||] (fun _ -> incr count);
  Alcotest.(check int) "scalar visits once" 1 !count;
  let count = ref 0 in
  Shape.iter_indices [| 0; 3 |] (fun _ -> incr count);
  Alcotest.(check int) "empty visits none" 0 !count

let test_offsets () =
  Alcotest.(check int) "offset" 7 (Shape.offset [| 3; 4 |] [| 1; 3 |]);
  Alcotest.check_raises "offset out of bounds"
    (Invalid_argument "Shape.offset: index out of bounds") (fun () ->
      ignore (Shape.offset [| 3; 4 |] [| 1; 4 |]));
  (* broadcast offset pins size-1 axes *)
  Alcotest.(check int) "broadcast offset size-1 axis" 1
    (Shape.broadcast_offset [| 1; 2 |] [| 5; 1 |]);
  (* missing leading axes ignored *)
  Alcotest.(check int) "broadcast offset trailing" 2
    (Shape.broadcast_offset [| 3 |] [| 9; 2 |])

let test_axis_edits () =
  Alcotest.check shape "remove middle" [| 2; 4 |]
    (Shape.remove_axis [| 2; 3; 4 |] 1);
  Alcotest.check shape "insert front" [| 7; 2; 3 |]
    (Shape.insert_axis [| 2; 3 |] 0 7);
  Alcotest.check shape "insert back" [| 2; 3; 7 |]
    (Shape.insert_axis [| 2; 3 |] 2 7);
  Alcotest.(check int) "normalize -1" 1 (Shape.normalize_axis [| 3; 4 |] (-1));
  Alcotest.check_raises "normalize out of range"
    (Invalid_argument "axis 2 out of range for rank 2") (fun () ->
      ignore (Shape.normalize_axis [| 3; 4 |] 2))

let test_perms () =
  Alcotest.check shape "transpose perm" [| 4; 2; 3 |]
    (Shape.transpose [| 2; 3; 4 |] [| 2; 0; 1 |]);
  Alcotest.(check (array int)) "reverse perm" [| 2; 1; 0 |] (Shape.reverse_perm 3);
  Alcotest.(check (array int)) "invert perm" [| 1; 2; 0 |]
    (Shape.invert_perm [| 2; 0; 1 |]);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Shape.transpose: not a permutation") (fun () ->
      ignore (Shape.transpose [| 2; 3 |] [| 0; 0 |]))

let arb_shape =
  QCheck2.Gen.(map Array.of_list (list_size (int_range 0 4) (int_range 1 5)))

let prop_broadcast_commutes =
  QCheck2.Test.make ~name:"shape: broadcast commutes" ~count:300
    QCheck2.Gen.(pair arb_shape arb_shape)
    (fun (a, b) ->
      match (Shape.broadcast a b, Shape.broadcast b a) with
      | Some x, Some y -> Shape.equal x y
      | None, None -> true
      | _ -> false)

let prop_broadcast_idempotent =
  QCheck2.Test.make ~name:"shape: broadcast with result is identity" ~count:300
    QCheck2.Gen.(pair arb_shape arb_shape)
    (fun (a, b) ->
      match Shape.broadcast a b with
      | None -> true
      | Some r -> (
          match Shape.broadcast a r with
          | Some r' -> Shape.equal r r'
          | None -> false))

let prop_iter_count =
  QCheck2.Test.make ~name:"shape: iter_indices visits numel points" ~count:200
    arb_shape
    (fun s ->
      let n = ref 0 in
      Shape.iter_indices s (fun _ -> incr n);
      !n = Shape.numel s)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "strides" `Quick test_strides;
    Alcotest.test_case "broadcasting" `Quick test_broadcast;
    Alcotest.test_case "index iteration" `Quick test_iteration;
    Alcotest.test_case "offsets" `Quick test_offsets;
    Alcotest.test_case "axis insert/remove" `Quick test_axis_edits;
    Alcotest.test_case "permutations" `Quick test_perms;
    QCheck_alcotest.to_alcotest prop_broadcast_commutes;
    QCheck_alcotest.to_alcotest prop_broadcast_idempotent;
    QCheck_alcotest.to_alcotest prop_iter_count;
  ]
