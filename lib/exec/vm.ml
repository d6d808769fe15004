(* The bytecode VM: executes a planned program over its preallocated
   arena.  Steady state allocates nothing beyond the result tensor —
   input slots are rebound to the caller's arrays (zero-copy; no step
   writes an input slot), the step sequence runs over flat unboxed
   float buffers, and the final read-out is one flat copy.

   Large steps run on multiple pool lanes ({!Plan.step_lanes}); the
   partitioning is chosen so results are bitwise identical for every
   lane count: elementwise, tiled and copy steps write disjoint index
   ranges, axis reductions split only across independent outputs (each
   accumulated in ascending reduction order), and full reductions
   accumulate fixed-size blocks — a function of the problem size, not
   the lane count — combined in ascending block order by the leader.

   Accumulation orders otherwise match the reference interpreter
   (ascending reduction index; each of matmul's loops accumulates
   every c[i,j] from 0. over ascending k, the order of the naive i-k-j
   multiply), so VM results coincide with [Dsl.Interp.eval] up to the
   usual float tolerance rather than drift from reassociation.  Two
   deliberate exceptions differ from the interpreter by ordinary
   rounding: full [sum] reductions use block-partial accumulation with
   4 interleaved accumulators per block, and a literal exponent of 2 or
   3 multiplies ([x *. x], [x *. x *. x]) where the interpreter calls
   [Float.pow] (special values agree, except that a NaN with its sign
   bit set keeps it when cubed).

   Hot loops avoid per-element traps: each strip loop is instantiated
   once per opcode (no dispatch inside it) and unrolled by four, [less]
   and the [Where3] select compile without a branch (a compare into
   0/1, a 0/1 index into the strip stack), short row maxima select an
   index with no branch ([row_max]), rows that fit a strip reduce in
   local accumulators, and loop bounds use an int-typed [min] rather
   than the polymorphic compare. *)

module Shape = Tensor.Shape
module F = Tensor.Ftensor

(* Cache-block edge of the transpose kernel: one 64 x 64 block of
   floats is 32 KB, about an L1 data cache. *)
let tile = 64

(* Partition [0, total) into at most [lanes] contiguous chunks.  With
   one lane the body runs inline — the sequential path is literally the
   parallel path on one lane, which is what makes lane-count
   independence checkable. *)
let split lanes total body =
  if lanes <= 1 then (body ~lane:0 ~lo:0 ~hi:total : unit)
  else
    let chunk = (total + lanes - 1) / lanes in
    Pool.parallel_for ~lanes ~chunk total body

(* Value-for-value equivalent of [Stdlib.Float.max] (NaN propagation
   and the -0/+0 ordering included), but with the ordered comparisons
   first so the hot path is two branches with no [sign_bit] calls.
   [Float.max]'s implementation goes through C externals per element,
   which dominates max-reduction loops. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if x <> x then x (* NaN *)
  else if y <> y then y
  else if x = 0. && 1. /. x = Float.neg_infinity then y (* max(-0, y) *)
  else x

(* [Stdlib.min] is polymorphic: without flambda each call goes through
   [caml_lessequal], and the row drains make one per row. *)
let[@inline] min (a : int) b = if a <= b then a else b

(* 1. or 0. with no branch: the comparison compiles to [cmpltsd], which
   random data would otherwise mispredict half the time.  NaN compares
   false, as in [if a < b then 1. else 0.]. *)
let[@inline] less (a : float) b = Float.of_int (Bool.to_int (a < b))

(* ------------------------------------------------------------------ *)
(* Strip machine                                                       *)
(* ------------------------------------------------------------------ *)

(* One element of opcode [k].  [e] is 2 or 3 for a literal exponent of
   2 or 3, which multiplies instead of calling [Float.pow] (about 16 ns
   an element), and 0 otherwise.  The loops below inline it with
   constant [k] and [e], so the match folds away: each instance runs
   one operation with no dispatch. *)
let[@inline] op k e (a : float) b =
  match (k : Plan.sbin) with
  | Plan.SAdd -> a +. b
  | Plan.SSub -> a -. b
  | Plan.SMul -> a *. b
  | Plan.SDiv -> a /. b
  | Plan.SPow ->
      if e = 2 then a *. a else if e = 3 then a *. a *. a else Float.pow a b
  | Plan.SMax -> fmax a b
  | Plan.SLess -> less a b

(* The loops are unrolled by four: a plain loop's tagged index
   arithmetic costs more than the operation (2-3x on an L1-resident
   strip).  Every element gets the same operation wherever the unroll
   boundary falls, so strip and lane boundaries do not show in the
   bits.  [d] may be [s] (in place). *)

(* d.(db + i) <- s.(sb + i) OP v for i < len *)
let[@inline] const_loop k e (d : float array) db (s : float array) sb v len =
  let q = len land lnot 3 in
  let j = ref 0 in
  while !j < q do
    let di = db + !j and si = sb + !j in
    Array.unsafe_set d di (op k e (Array.unsafe_get s si) v);
    Array.unsafe_set d (di + 1) (op k e (Array.unsafe_get s (si + 1)) v);
    Array.unsafe_set d (di + 2) (op k e (Array.unsafe_get s (si + 2)) v);
    Array.unsafe_set d (di + 3) (op k e (Array.unsafe_get s (si + 3)) v);
    j := !j + 4
  done;
  for i = q to len - 1 do
    Array.unsafe_set d (db + i) (op k e (Array.unsafe_get s (sb + i)) v)
  done

(* d.(db + i) <- v OP s.(sb + i) for i < len *)
let[@inline] rconst_loop k (d : float array) db v (s : float array) sb len =
  let q = len land lnot 3 in
  let j = ref 0 in
  while !j < q do
    let di = db + !j and si = sb + !j in
    Array.unsafe_set d di (op k 0 v (Array.unsafe_get s si));
    Array.unsafe_set d (di + 1) (op k 0 v (Array.unsafe_get s (si + 1)));
    Array.unsafe_set d (di + 2) (op k 0 v (Array.unsafe_get s (si + 2)));
    Array.unsafe_set d (di + 3) (op k 0 v (Array.unsafe_get s (si + 3)));
    j := !j + 4
  done;
  for i = q to len - 1 do
    Array.unsafe_set d (db + i) (op k 0 v (Array.unsafe_get s (sb + i)))
  done

(* d.(db + i) <- s.(sb + i) OP t.(tb + i) for i < len *)
let[@inline] arr_loop k (d : float array) db (s : float array) sb
    (t : float array) tb len =
  let q = len land lnot 3 in
  let j = ref 0 in
  while !j < q do
    let di = db + !j and si = sb + !j and ti = tb + !j in
    Array.unsafe_set d di
      (op k 0 (Array.unsafe_get s si) (Array.unsafe_get t ti));
    Array.unsafe_set d (di + 1)
      (op k 0 (Array.unsafe_get s (si + 1)) (Array.unsafe_get t (ti + 1)));
    Array.unsafe_set d (di + 2)
      (op k 0 (Array.unsafe_get s (si + 2)) (Array.unsafe_get t (ti + 2)));
    Array.unsafe_set d (di + 3)
      (op k 0 (Array.unsafe_get s (si + 3)) (Array.unsafe_get t (ti + 3)));
    j := !j + 4
  done;
  for i = q to len - 1 do
    Array.unsafe_set d (db + i)
      (op k 0 (Array.unsafe_get s (sb + i)) (Array.unsafe_get t (tb + i)))
  done

(* d.(i) <- d.(i) OP s.(ofs + map.(b + i)) for i < len *)
let[@inline] gather_loop k (d : float array) (s : float array) ofs
    (map : int array) b len =
  let q = len land lnot 3 in
  let j = ref 0 in
  while !j < q do
    let i = !j and mi = b + !j in
    let g0 = Array.unsafe_get map mi and g1 = Array.unsafe_get map (mi + 1)
    and g2 = Array.unsafe_get map (mi + 2)
    and g3 = Array.unsafe_get map (mi + 3) in
    Array.unsafe_set d i
      (op k 0 (Array.unsafe_get d i) (Array.unsafe_get s (ofs + g0)));
    Array.unsafe_set d (i + 1)
      (op k 0 (Array.unsafe_get d (i + 1)) (Array.unsafe_get s (ofs + g1)));
    Array.unsafe_set d (i + 2)
      (op k 0 (Array.unsafe_get d (i + 2)) (Array.unsafe_get s (ofs + g2)));
    Array.unsafe_set d (i + 3)
      (op k 0 (Array.unsafe_get d (i + 3)) (Array.unsafe_get s (ofs + g3)));
    j := i + 4
  done;
  for i = q to len - 1 do
    Array.unsafe_set d i
      (op k 0 (Array.unsafe_get d i)
         (Array.unsafe_get s (ofs + Array.unsafe_get map (b + i))))
  done

(* One element of the unary opcode [u], folded like [op]. *)
let[@inline] unary (u : Plan.sop) a =
  match u with
  | Plan.Sqrt1 -> Float.sqrt a
  | Plan.Exp1 -> Float.exp a
  | _ -> Float.log a

(* d.(i) <- u d.(i) for i < len *)
let[@inline] unary_loop u (d : float array) len =
  let q = len land lnot 3 in
  let j = ref 0 in
  while !j < q do
    let i = !j in
    Array.unsafe_set d i (unary u (Array.unsafe_get d i));
    Array.unsafe_set d (i + 1) (unary u (Array.unsafe_get d (i + 1)));
    Array.unsafe_set d (i + 2) (unary u (Array.unsafe_get d (i + 2)));
    Array.unsafe_set d (i + 3) (unary u (Array.unsafe_get d (i + 3)));
    j := i + 4
  done;
  for i = q to len - 1 do
    Array.unsafe_set d i (unary u (Array.unsafe_get d i))
  done

(* The opcode dispatchers, one instance of a loop per opcode.
   [bin_const] serves a [BinC], a [BinL] of a one-element leaf, a
   [Load] fused with either, and a [Bin] step over a dense and a
   broadcast operand; [bin_arr] a dense [BinL], a [Bin2], a [Load]
   fused with a dense [BinL] and a dense [Bin] step. *)
let bin_const k d db s sb v len =
  match (k : Plan.sbin) with
  | Plan.SAdd -> const_loop Plan.SAdd 0 d db s sb v len
  | Plan.SSub -> const_loop Plan.SSub 0 d db s sb v len
  | Plan.SMul -> const_loop Plan.SMul 0 d db s sb v len
  | Plan.SDiv -> const_loop Plan.SDiv 0 d db s sb v len
  | Plan.SPow when v = 2. -> const_loop Plan.SPow 2 d db s sb v len
  | Plan.SPow when v = 3. -> const_loop Plan.SPow 3 d db s sb v len
  | Plan.SPow -> const_loop Plan.SPow 0 d db s sb v len
  | Plan.SMax -> const_loop Plan.SMax 0 d db s sb v len
  | Plan.SLess -> const_loop Plan.SLess 0 d db s sb v len

(* a [Bin] step over a broadcast and a dense operand: arithmetic only *)
let bin_rconst k d db v s sb len =
  match (k : Plan.sbin) with
  | Plan.SAdd -> rconst_loop Plan.SAdd d db v s sb len
  | Plan.SSub -> rconst_loop Plan.SSub d db v s sb len
  | Plan.SMul -> rconst_loop Plan.SMul d db v s sb len
  | Plan.SDiv -> rconst_loop Plan.SDiv d db v s sb len
  | Plan.SPow | Plan.SMax | Plan.SLess -> assert false

let bin_arr k d db s sb t tb len =
  match (k : Plan.sbin) with
  | Plan.SAdd -> arr_loop Plan.SAdd d db s sb t tb len
  | Plan.SSub -> arr_loop Plan.SSub d db s sb t tb len
  | Plan.SMul -> arr_loop Plan.SMul d db s sb t tb len
  | Plan.SDiv -> arr_loop Plan.SDiv d db s sb t tb len
  | Plan.SPow -> arr_loop Plan.SPow d db s sb t tb len
  | Plan.SMax -> arr_loop Plan.SMax d db s sb t tb len
  | Plan.SLess -> arr_loop Plan.SLess d db s sb t tb len

let bin_gather k d s ofs map b len =
  match (k : Plan.sbin) with
  | Plan.SAdd -> gather_loop Plan.SAdd d s ofs map b len
  | Plan.SSub -> gather_loop Plan.SSub d s ofs map b len
  | Plan.SMul -> gather_loop Plan.SMul d s ofs map b len
  | Plan.SDiv -> gather_loop Plan.SDiv d s ofs map b len
  | Plan.SPow -> gather_loop Plan.SPow d s ofs map b len
  | Plan.SMax -> gather_loop Plan.SMax d s ofs map b len
  | Plan.SLess -> gather_loop Plan.SLess d s ofs map b len

(* Strip length of a lane's scratch stack. *)
let strip_cap (strips : float array array) =
  Array.length (Array.unsafe_get strips 0)

(* Evaluate [code] over the source index range [lo, hi) in strips of
   at most [cap] elements on one lane's scratch stack [strips], calling
   [consume strip b len] for each completed strip, which covers
   [b, b + len) of the range (strips ascend).  A dense [Load]
   immediately followed by [BinC] or a dense/cell [BinL] executes as one
   fused pass — elementwise the same operations, so the fusion is
   invisible in the bits. *)
let run_body (slots : Plan.buf array) (code : Plan.sop array)
    (leaves : Plan.operand array) (strips : float array array) cap lo hi
    consume =
  let ncode = Array.length code in
  let base = ref lo in
  while !base < hi do
    let b = !base in
    let len = min (hi - b) cap in
    let sp = ref 0 in
    let pc = ref 0 in
    while !pc < ncode do
      (match Array.unsafe_get code !pc with
      | Plan.Load l ->
          let lf = Array.unsafe_get leaves l in
          let s = slots.(lf.Plan.src) and ofs = lf.Plan.ofs in
          let d = Array.unsafe_get strips !sp in
          (match lf.Plan.acc with
          | Plan.Dense -> (
              let fused =
                if !pc + 1 >= ncode then false
                else
                  match Array.unsafe_get code (!pc + 1) with
                  | Plan.BinC (k, v) ->
                      bin_const k d 0 s (ofs + b) v len;
                      true
                  | Plan.BinL (k, l2) -> (
                      let lf2 = Array.unsafe_get leaves l2 in
                      let t = slots.(lf2.Plan.src) and tofs = lf2.Plan.ofs in
                      match lf2.Plan.acc with
                      | Plan.Dense ->
                          bin_arr k d 0 s (ofs + b) t (tofs + b) len;
                          true
                      | Plan.Cell ->
                          bin_const k d 0 s (ofs + b)
                            (Array.unsafe_get t tofs)
                            len;
                          true
                      | Plan.Gather _ -> false)
                  | _ -> false
              in
              if fused then incr pc
              else Array.blit s (ofs + b) d 0 len)
          | Plan.Cell -> Array.fill d 0 len (Array.unsafe_get s ofs)
          | Plan.Gather map ->
              for i = 0 to len - 1 do
                Array.unsafe_set d i
                  (Array.unsafe_get s (ofs + Array.unsafe_get map (b + i)))
              done);
          incr sp
      | Plan.Lit v ->
          Array.fill (Array.unsafe_get strips !sp) 0 len v;
          incr sp
      | Plan.Bin2 k ->
          let x = Array.unsafe_get strips (!sp - 2) in
          bin_arr k x 0 x 0 (Array.unsafe_get strips (!sp - 1)) 0 len;
          decr sp
      | Plan.BinC (k, v) ->
          let x = Array.unsafe_get strips (!sp - 1) in
          bin_const k x 0 x 0 v len
      | Plan.BinL (k, l) -> (
          let lf = Array.unsafe_get leaves l in
          let s = slots.(lf.Plan.src) and ofs = lf.Plan.ofs in
          let x = Array.unsafe_get strips (!sp - 1) in
          match lf.Plan.acc with
          | Plan.Dense -> bin_arr k x 0 x 0 s (ofs + b) len
          | Plan.Cell -> bin_const k x 0 x 0 (Array.unsafe_get s ofs) len
          | Plan.Gather map -> bin_gather k x s ofs map b len)
      | Plan.Sqrt1 ->
          unary_loop Plan.Sqrt1 (Array.unsafe_get strips (!sp - 1)) len
      | Plan.Exp1 ->
          unary_loop Plan.Exp1 (Array.unsafe_get strips (!sp - 1)) len
      | Plan.Log1 ->
          unary_loop Plan.Log1 (Array.unsafe_get strips (!sp - 1)) len
      | Plan.Where3 ->
          (* x sits one stack level below y: the condition picks the
             level to read, so the select copies the same bits with no
             branch (NaN is nonzero, as in [if c <> 0.]) *)
          let c = Array.unsafe_get strips (!sp - 3) and y = !sp - 1 in
          for i = 0 to len - 1 do
            let src =
              Array.unsafe_get strips
                (y - Bool.to_int (Array.unsafe_get c i <> 0.))
            in
            Array.unsafe_set c i (Array.unsafe_get src i)
          done;
          sp := !sp - 2);
      incr pc
    done;
    consume (Array.unsafe_get strips 0) b len;
    base := b + len
  done

(* ------------------------------------------------------------------ *)
(* Reduction helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Ascending-order sum of s.[lo, hi) with 4 interleaved accumulator
   chains: the grouping is a function of the range only, so every lane
   count (and the sequential path) computes the same bits. *)
let sum_range (s : float array) lo hi =
  let n = hi - lo in
  if n < 16 then begin
    let acc = ref 0. in
    for i = lo to hi - 1 do
      acc := !acc +. Array.unsafe_get s i
    done;
    !acc
  end
  else begin
    let q = lo + (n / 4 * 4) in
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    let i = ref lo in
    while !i < q do
      let j = !i in
      a0 := !a0 +. Array.unsafe_get s j;
      a1 := !a1 +. Array.unsafe_get s (j + 1);
      a2 := !a2 +. Array.unsafe_get s (j + 2);
      a3 := !a3 +. Array.unsafe_get s (j + 3);
      i := j + 4
    done;
    let acc = ref (!a0 +. !a1 +. (!a2 +. !a3)) in
    for j = q to hi - 1 do
      acc := !acc +. Array.unsafe_get s j
    done;
    !acc
  end

(* o.(oi) <- the ascending sum of s.[r0, r0 + mid) from [0.]: the
   interpreter's order for an axis reduction. *)
let[@inline] row_sum (o : float array) oi (s : float array) r0 mid =
  let acc = ref 0. in
  for i = r0 to r0 + mid - 1 do
    acc := !acc +. Array.unsafe_get s i
  done;
  Array.unsafe_set o oi !acc

(* The [fmax] fold of s.[lo, hi) from [neg_infinity], in ascending
   order (unrolled by four, the same fold). *)
let max_range (s : float array) lo hi =
  let acc = ref Float.neg_infinity in
  let q = lo + ((hi - lo) land lnot 3) in
  let i = ref lo in
  while !i < q do
    let j = !i in
    let a = fmax !acc (Array.unsafe_get s j) in
    let a = fmax a (Array.unsafe_get s (j + 1)) in
    let a = fmax a (Array.unsafe_get s (j + 2)) in
    acc := fmax a (Array.unsafe_get s (j + 3));
    i := j + 4
  done;
  for i = q to hi - 1 do
    acc := fmax !acc (Array.unsafe_get s i)
  done;
  !acc

(* Rows up to this long take [row_max]'s branch-free select.  On longer
   rows the running maximum rarely changes, so [fmax]'s first branch
   predicts well and the select only adds work (2.5-3x slower on rows
   of 256). *)
let short_row = 16

(* o.(oi) <- [max_range s r0 (r0 + mid)], bit for bit (stored, not
   returned, so no float is boxed per row).  A short row tracks the
   index of its running maximum with no branch: on random data [fmax]'s
   first comparison mispredicts about half the time there.  The select
   keeps the first of equal values, where [fmax] orders -0 below +0 and
   propagates NaN, so a row holding a NaN or two values that compare
   equal falls back to the [fmax] fold. *)
let[@inline] row_max (o : float array) oi (s : float array) r0 mid =
  if mid > short_row then Array.unsafe_set o oi (max_range s r0 (r0 + mid))
  else begin
    let best = ref r0 and tie = ref 0 in
    for j = r0 + 1 to r0 + mid - 1 do
      let v = Array.unsafe_get s j and m = Array.unsafe_get s !best in
      let gt = Bool.to_int (v > m) in
      tie := !tie lor (1 - gt - Bool.to_int (v < m));
      best := !best + ((j - !best) * gt)
    done;
    Array.unsafe_set o oi
      (if !tie = 0 then Array.unsafe_get s !best
       else max_range s r0 (r0 + mid))
  end

(* The matmul kernel's three loops.  Each computes c[i..i+1, ...] at
   [cb] from a's rows at [r0] and [r1] (the same row, stored once, when
   [pair] is false), and each accumulates every c[i,j] from 0. over
   ascending l — exactly the order of the naive i-k-j multiply, so the
   three agree bit for bit and whichever runs, c keeps its bits. *)

(* A 2 x 4 block, c[i..i+1, j..j+3], in locals, from the k x 4 panel
   of b's columns j..j+3 packed row by row in [p]. *)
let mm_block4 (ab : float array) r0 r1 k (p : float array) (c : float array)
    cb n pair =
  let c00 = ref 0. and c01 = ref 0. and c02 = ref 0. and c03 = ref 0.
  and c10 = ref 0. and c11 = ref 0. and c12 = ref 0. and c13 = ref 0. in
  for l = 0 to k - 1 do
    let a0 = Array.unsafe_get ab (r0 + l)
    and a1 = Array.unsafe_get ab (r1 + l)
    and pb = 4 * l in
    let b0 = Array.unsafe_get p pb
    and b1 = Array.unsafe_get p (pb + 1)
    and b2 = Array.unsafe_get p (pb + 2)
    and b3 = Array.unsafe_get p (pb + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3)
  done;
  Array.unsafe_set c cb !c00;
  Array.unsafe_set c (cb + 1) !c01;
  Array.unsafe_set c (cb + 2) !c02;
  Array.unsafe_set c (cb + 3) !c03;
  if pair then begin
    Array.unsafe_set c (cb + n) !c10;
    Array.unsafe_set c (cb + n + 1) !c11;
    Array.unsafe_set c (cb + n + 2) !c12;
    Array.unsafe_set c (cb + n + 3) !c13
  end

(* One column, c[i..i+1, 0], in locals, from b (k x 1) read in place
   at [bofs]: a dot or a matrix-vector product streams both operands. *)
let mm_col (ab : float array) r0 r1 k (bb : float array) bofs
    (c : float array) cb pair =
  let c0 = ref 0. and c1 = ref 0. in
  for l = 0 to k - 1 do
    let v = Array.unsafe_get bb (bofs + l) in
    c0 := !c0 +. (Array.unsafe_get ab (r0 + l) *. v);
    c1 := !c1 +. (Array.unsafe_get ab (r1 + l) *. v)
  done;
  Array.unsafe_set c cb !c0;
  if pair then Array.unsafe_set c (cb + 1) !c1

(* c[ci] + a0 * b[b0] + ... + a3 * b[b3] in ascending order *)
let[@inline] madd4 (c : float array) ci (bb : float array) b0 b1 b2 b3 a0 a1
    a2 a3 =
  Array.unsafe_set c ci
    (((Array.unsafe_get c ci +. (a0 *. Array.unsafe_get bb b0))
      +. (a1 *. Array.unsafe_get bb b1)
      +. (a2 *. Array.unsafe_get bb b2))
    +. (a3 *. Array.unsafe_get bb b3))

(* Whole rows, c[i..i+1, :], in c itself, adding a[i,l] * b[l,:] for
   ascending l, four l at a time (one load and store of c[i,j] per four
   multiply-adds): b is read row by row.  For n = 2 or 3, which fill no
   panel, and for a lane with one row pair, where a packed panel would
   serve once and b's columns are strided. *)
let mm_rows (ab : float array) r0 r1 k (bb : float array) bofs
    (c : float array) cb n pair =
  Array.fill c cb (if pair then 2 * n else n) 0.;
  let l = ref 0 in
  while !l + 3 < k do
    let l0 = !l in
    let a0 = Array.unsafe_get ab (r0 + l0)
    and a1 = Array.unsafe_get ab (r0 + l0 + 1)
    and a2 = Array.unsafe_get ab (r0 + l0 + 2)
    and a3 = Array.unsafe_get ab (r0 + l0 + 3)
    and e0 = Array.unsafe_get ab (r1 + l0)
    and e1 = Array.unsafe_get ab (r1 + l0 + 1)
    and e2 = Array.unsafe_get ab (r1 + l0 + 2)
    and e3 = Array.unsafe_get ab (r1 + l0 + 3)
    and b0 = bofs + (l0 * n) in
    let b1 = b0 + n in
    let b2 = b1 + n in
    let b3 = b2 + n in
    for j = 0 to n - 1 do
      madd4 c (cb + j) bb (b0 + j) (b1 + j) (b2 + j) (b3 + j) a0 a1 a2 a3;
      if pair then
        madd4 c (cb + n + j) bb (b0 + j) (b1 + j) (b2 + j) (b3 + j) e0 e1 e2
          e3
    done;
    l := l0 + 4
  done;
  for l = !l to k - 1 do
    let a0 = Array.unsafe_get ab (r0 + l)
    and e0 = Array.unsafe_get ab (r1 + l)
    and b0 = bofs + (l * n) in
    for j = 0 to n - 1 do
      let v = Array.unsafe_get bb (b0 + j) in
      Array.unsafe_set c (cb + j) (Array.unsafe_get c (cb + j) +. (a0 *. v));
      if pair then
        Array.unsafe_set c (cb + n + j)
          (Array.unsafe_get c (cb + n + j) +. (e0 *. v))
    done
  done

(* o.(0) <- the blocks of a full reduction combined in ascending
   order, by the leader *)
let combine_partials kind (partials : float array) (o : float array) =
  let acc = ref (Array.unsafe_get partials 0) in
  (match kind with
  | `Sum ->
      for blk = 1 to Array.length partials - 1 do
        acc := !acc +. Array.unsafe_get partials blk
      done
  | `Max ->
      for blk = 1 to Array.length partials - 1 do
        acc := fmax !acc (Array.unsafe_get partials blk)
      done);
  Array.unsafe_set o 0 !acc

(* The in-place opcode and start value that fold a column reduction. *)
let column_fold = function
  | `Sum -> (Plan.SAdd, 0.)
  | `Max -> (Plan.SMax, Float.neg_infinity)

(* ------------------------------------------------------------------ *)
(* Step execution                                                      *)
(* ------------------------------------------------------------------ *)

let exec_step (opts : Opts.t) (slots : Plan.buf array) (step : Plan.step) =
  let lanes = Plan.step_lanes opts step in
  match step with
  | Plan.Bin { kind; out; a; b; n } ->
      let o = slots.(out) in
      let ab = slots.(a.Plan.src) and bb = slots.(b.Plan.src) in
      let ao = a.Plan.ofs and bo = b.Plan.ofs in
      split lanes n (fun ~lane:_ ~lo ~hi ->
          let len = hi - lo in
          match (a.Plan.acc, b.Plan.acc, kind) with
          | Plan.Dense, Plan.Dense, _ ->
              bin_arr kind o lo ab (ao + lo) bb (bo + lo) len
          | Plan.Dense, Plan.Cell, Plan.SDiv ->
              (* dividing a whole tensor by one broadcast scalar: one
                 division up front, multiplies in the loop — within 1
                 ulp of dividing elementwise, and an identical plan at
                 every lane count, so results stay bitwise
                 domain-independent *)
              let inv = 1. /. Array.unsafe_get bb bo in
              bin_const Plan.SMul o lo ab (ao + lo) inv len
          | Plan.Dense, Plan.Cell, _ ->
              bin_const kind o lo ab (ao + lo) (Array.unsafe_get bb bo) len
          | Plan.Cell, Plan.Dense, _ ->
              bin_rconst kind o lo (Array.unsafe_get ab ao) bb (bo + lo) len
          | _ -> assert false (* the planner emits Bin only for these *))
  | Plan.Ew { out; n; code; leaves; strips } ->
      let o = slots.(out) in
      split lanes n (fun ~lane ~lo ~hi ->
          let st = Array.unsafe_get strips lane in
          run_body slots code leaves st (strip_cap st) lo hi (fun d b len ->
              Array.blit d 0 o b len))
  | Plan.Reduce { kind; out; src; sofs; outer; mid; inner; partials } -> (
      let o = slots.(out) and s = slots.(src) in
      if outer = 1 && inner = 1 then begin
        (* full reduction: fixed-size blocks, combined in ascending
           order by the leader *)
        let nb = Array.length partials in
        (match kind with
        | `Sum ->
            split lanes nb (fun ~lane:_ ~lo ~hi ->
                for blk = lo to hi - 1 do
                  let b0 = sofs + (blk * Plan.red_block) in
                  let b1 = sofs + min mid ((blk + 1) * Plan.red_block) in
                  Array.unsafe_set partials blk (sum_range s b0 b1)
                done)
        | `Max ->
            split lanes nb (fun ~lane:_ ~lo ~hi ->
                for blk = lo to hi - 1 do
                  let b0 = sofs + (blk * Plan.red_block) in
                  let b1 = sofs + min mid ((blk + 1) * Plan.red_block) in
                  Array.unsafe_set partials blk (max_range s b0 b1)
                done));
        combine_partials kind partials o
      end
      else if inner = 1 then
        (* one independent ascending chain per output row *)
        match kind with
        | `Sum ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  row_sum o ob s (sofs + (ob * mid)) mid
                done)
        | `Max ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  row_max o ob s (sofs + (ob * mid)) mid
                done)
      else
        (* columns (inner > 1): each output column accumulates in
           ascending m order, one in-place [bin_arr] pass per m.  Axis
           0 splits across output columns, any other axis across outer
           blocks *)
        let k, init = column_fold kind in
        if outer = 1 then
          split lanes inner (fun ~lane:_ ~lo ~hi ->
              Array.fill o lo (hi - lo) init;
              for m = 0 to mid - 1 do
                bin_arr k o lo o lo s (sofs + (m * inner) + lo) (hi - lo)
              done)
        else
          split lanes outer (fun ~lane:_ ~lo ~hi ->
              Array.fill o (lo * inner) ((hi - lo) * inner) init;
              for ob = lo to hi - 1 do
                let obase = ob * inner
                and sbase = sofs + (ob * mid * inner) in
                for m = 0 to mid - 1 do
                  bin_arr k o obase o obase s (sbase + (m * inner)) inner
                done
              done))
  | Plan.Reduce_fused
      { kind; out; outer; mid; inner; code; leaves; strips; partials } -> (
      let o = slots.(out) in
      let total = outer * mid * inner in
      if outer = 1 && inner = 1 then begin
        (* single pass: evaluate the producer body per strip and fold
           each fixed-size block into its partial *)
        let nb = Array.length partials in
        (match kind with
        | `Sum ->
            split lanes nb (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                for blk = lo to hi - 1 do
                  let b0 = blk * Plan.red_block in
                  let b1 = min total ((blk + 1) * Plan.red_block) in
                  let acc = ref 0. in
                  run_body slots code leaves st (strip_cap st) b0 b1
                    (fun d _ len -> acc := !acc +. sum_range d 0 len);
                  Array.unsafe_set partials blk !acc
                done)
        | `Max ->
            split lanes nb (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                for blk = lo to hi - 1 do
                  let b0 = blk * Plan.red_block in
                  let b1 = min total ((blk + 1) * Plan.red_block) in
                  let acc = ref Float.neg_infinity in
                  run_body slots code leaves st (strip_cap st) b0 b1
                    (fun d _ len -> acc := fmax !acc (max_range d 0 len));
                  Array.unsafe_set partials blk !acc
                done));
        combine_partials kind partials o
      end
      else if inner = 1 && mid <= strip_cap (Array.unsafe_get strips 0)
      then begin
        (* rows that fit a strip: strips hold whole rows, and each row
           reduces in local accumulators ([row_sum], [row_max]) with no
           cursor carried across strips — the same fold as the cursor
           drain below, so the same bits *)
        let cap = strip_cap (Array.unsafe_get strips 0) / mid * mid in
        let rows d b len =
          let ob = b / mid in
          match kind with
          | `Sum ->
              for r = 0 to (len / mid) - 1 do
                row_sum o (ob + r) d (r * mid) mid
              done
          | `Max ->
              for r = 0 to (len / mid) - 1 do
                row_max o (ob + r) d (r * mid) mid
              done
        in
        split lanes outer (fun ~lane ~lo ~hi ->
            run_body slots code leaves (Array.unsafe_get strips lane) cap
              (lo * mid) (hi * mid) rows)
      end
      else if inner = 1 then
        (* rows longer than a strip: drain the body in row-bounded runs,
           carrying the (row, count, acc) cursor across strips.  Each
           output still accumulates element-by-element in ascending
           order (sum), or through [fmax], which is associative, so run
           boundaries — which shift with the lane count — cannot show
           up in the bits. *)
        match kind with
        | `Sum ->
            split lanes outer (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                let ob = ref lo and m = ref 0 and acc = ref 0. in
                run_body slots code leaves st (strip_cap st) (lo * mid)
                  (hi * mid) (fun d _ len ->
                    let i = ref 0 in
                    while !i < len do
                      let run = min (mid - !m) (len - !i) in
                      let a = ref !acc in
                      for j = !i to !i + run - 1 do
                        a := !a +. Array.unsafe_get d j
                      done;
                      i := !i + run;
                      m := !m + run;
                      if !m = mid then begin
                        Array.unsafe_set o !ob !a;
                        acc := 0.;
                        m := 0;
                        incr ob
                      end
                      else acc := !a
                    done))
        | `Max ->
            split lanes outer (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                let ob = ref lo
                and m = ref 0
                and acc = ref Float.neg_infinity in
                run_body slots code leaves st (strip_cap st) (lo * mid)
                  (hi * mid) (fun d _ len ->
                    let i = ref 0 in
                    while !i < len do
                      let run = min (mid - !m) (len - !i) in
                      let a = fmax !acc (max_range d !i (!i + run)) in
                      i := !i + run;
                      m := !m + run;
                      if !m = mid then begin
                        Array.unsafe_set o !ob a;
                        acc := Float.neg_infinity;
                        m := 0;
                        incr ob
                      end
                      else acc := a
                    done))
      else begin
        (* columns (inner > 1): split across outer blocks (axis 0,
           outer = 1, runs on the one lane the planner allocates).  The
           drain walks column-bounded runs with a (block, m, column)
           cursor, so each output column accumulates in ascending m
           order whatever the strip boundaries *)
        let k, init = column_fold kind in
        split lanes outer (fun ~lane ~lo ~hi ->
            let st = Array.unsafe_get strips lane in
            Array.fill o (lo * inner) ((hi - lo) * inner) init;
            let obase = ref (lo * inner) and m = ref 0 and col = ref 0 in
            run_body slots code leaves st (strip_cap st)
              (lo * mid * inner)
              (hi * mid * inner)
              (fun d _ len ->
                let i = ref 0 in
                while !i < len do
                  let run = min (inner - !col) (len - !i) in
                  let ob = !obase + !col in
                  bin_arr k o ob o ob d !i run;
                  i := !i + run;
                  col := !col + run;
                  if !col = inner then begin
                    col := 0;
                    incr m;
                    if !m = mid then begin
                      m := 0;
                      obase := !obase + inner
                    end
                  end
                done))
      end)
  | Plan.Matmul { out; a; aofs; b; bofs; m; k; n; pack } ->
      (* Lanes take disjoint row ranges, and walk them a row pair at a
         time; an odd last row runs as its own partner.  Where a lane
         has a [pack] buffer (the plan gives one where b's panels each
         serve more than one row pair) it copies each k x 4 panel of b
         there contiguously and runs the 2 x 4 micro-kernel over it: in
         place, b's power-of-two row stride would map a whole column
         onto two L1 sets.  The last panel ends at column n, and
         recomputes up to three columns of the one before it with the
         same bits.  Without a buffer, n = 1 reads b's one column in
         place, and otherwise b's rows stream past each row pair.  All
         three accumulate in the same order (see [mm_block4]). *)
      let c = slots.(out) and ab = slots.(a) and bb = slots.(b) in
      split lanes m (fun ~lane ~lo ~hi ->
          let p = Array.unsafe_get pack lane in
          let packed = Array.length p > 0 in
          let j0 = ref 0 in
          while !j0 < n do
            let j = if packed then min !j0 (n - 4) else !j0 in
            if packed then
              for l = 0 to k - 1 do
                let s = bofs + (l * n) + j and d = 4 * l in
                Array.unsafe_set p d (Array.unsafe_get bb s);
                Array.unsafe_set p (d + 1) (Array.unsafe_get bb (s + 1));
                Array.unsafe_set p (d + 2) (Array.unsafe_get bb (s + 2));
                Array.unsafe_set p (d + 3) (Array.unsafe_get bb (s + 3))
              done;
            let i = ref lo in
            while !i < hi do
              let pair = !i + 1 < hi in
              let r0 = aofs + (!i * k) in
              let r1 = if pair then r0 + k else r0 and cb = (!i * n) + j in
              if packed then mm_block4 ab r0 r1 k p c cb n pair
              else if n = 1 then mm_col ab r0 r1 k bb bofs c cb pair
              else mm_rows ab r0 r1 k bb bofs c cb n pair;
              i := !i + 2
            done;
            j0 := if packed then j + 4 else n
          done)
  | Plan.Transpose2 { out; src; sofs; rows; cols } ->
      let o = slots.(out) and s = slots.(src) in
      split lanes rows (fun ~lane:_ ~lo ~hi ->
          let ii = ref lo in
          while !ii < hi do
            let ih = min hi (!ii + tile) in
            let jj = ref 0 in
            while !jj < cols do
              let jh = min cols (!jj + tile) in
              (* within a tile, write each output row contiguously and
                 take the stride on the loads: strided write-allocate
                 stores thrash badly when [cols] is a power of two *)
              for j = !jj to jh - 1 do
                let ob = (j * rows) + !ii in
                let si = ref (sofs + (!ii * cols) + j) in
                for i = 0 to ih - !ii - 1 do
                  Array.unsafe_set o (ob + i) (Array.unsafe_get s !si);
                  si := !si + cols
                done
              done;
              jj := jh
            done;
            ii := ih
          done)
  | Plan.Copy { out; src; n } -> (
      let o = slots.(out) and s = slots.(src.Plan.src) in
      let ofs = src.Plan.ofs in
      match src.Plan.acc with
      | Plan.Dense ->
          split lanes n (fun ~lane:_ ~lo ~hi ->
              Array.blit s (ofs + lo) o lo (hi - lo))
      | Plan.Cell ->
          let v = Array.unsafe_get s ofs in
          Array.fill o 0 n v
      | Plan.Gather map ->
          split lanes n (fun ~lane:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                Array.unsafe_set o i
                  (Array.unsafe_get s (ofs + Array.unsafe_get map i))
              done))
  | Plan.Stack_part { out; oofs; src; sofs; outer; inner; stride } ->
      let o = slots.(out) and s = slots.(src) in
      for ob = 0 to outer - 1 do
        Array.blit s (sofs + (ob * inner)) o (oofs + (ob * stride)) inner
      done
  | Plan.Mask { kind; out; src; sofs; rows; cols } ->
      let o = slots.(out) and s = slots.(src) in
      let keep =
        match kind with
        | `Upper -> fun i j -> j >= i
        | `Lower -> fun i j -> j <= i
      in
      for i = 0 to rows - 1 do
        let rb = i * cols in
        for j = 0 to cols - 1 do
          Array.unsafe_set o (rb + j)
            (if keep i j then Array.unsafe_get s (sofs + rb + j) else 0.)
        done
      done
  | Plan.Trace_of { out; src; sofs; rows; cols } ->
      let s = slots.(src) in
      let acc = ref 0. in
      for i = 0 to min rows cols - 1 do
        acc := !acc +. Array.unsafe_get s (sofs + (i * (cols + 1)))
      done;
      Array.unsafe_set slots.(out) 0 !acc
  | Plan.Fill { out; src; sofs; n } ->
      let o = slots.(out) in
      Array.fill o 0 n (Array.unsafe_get slots.(src) sofs)

let run_in (p : Plan.t) (lookup : string -> F.t) : F.t =
  List.iter
    (fun (name, slot, count) ->
      let t = lookup name in
      let data = F.unsafe_data t in
      if Array.length data <> count then
        invalid_arg
          (Printf.sprintf "exec: input %s has %d elements, expected %d" name
             (Array.length data) count);
      p.Plan.slots.(slot) <- data)
    p.Plan.inputs;
  let steps = p.Plan.steps in
  let opts = p.Plan.opts in
  for i = 0 to Array.length steps - 1 do
    exec_step opts p.Plan.slots (Array.unsafe_get steps i)
  done;
  let n = Shape.numel p.Plan.result_shape in
  let rb = p.Plan.slots.(p.Plan.result_slot) in
  F.unsafe_of_data p.Plan.result_shape (Array.sub rb p.Plan.result_ofs n)

let run (p : Plan.t) lookup =
  let busy = p.Plan.busy in
  if not (Atomic.compare_and_set busy false true) then
    run_in (Plan.copy p) lookup
  else
    match run_in p lookup with
    | r ->
        Atomic.set busy false;
        r
    | exception e ->
        Atomic.set busy false;
        raise e
