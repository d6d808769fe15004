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
   (ascending reduction index; the tiled matmul walks k-blocks and k
   within each block in ascending order, so every c[i,j] sees exactly
   the ascending-k order of the naive i-k-j multiply), so VM results
   coincide with [Dsl.Interp.eval] up to the usual float tolerance
   rather than drift from reassociation.  The one deliberate exception:
   full [sum] reductions use block-partial accumulation with 4
   interleaved accumulators per block, whose grouping differs from the
   interpreter's single left-to-right chain by ordinary rounding
   noise. *)

module Shape = Tensor.Shape
module F = Tensor.Ftensor

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

(* ------------------------------------------------------------------ *)
(* Strip machine                                                       *)
(* ------------------------------------------------------------------ *)

(* x.(i) <- x.(i) OP y.(i) *)
let strip_bin2 k (x : float array) (y : float array) len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i +. Array.unsafe_get y i)
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i -. Array.unsafe_get y i)
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i *. Array.unsafe_get y i)
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i /. Array.unsafe_get y i)
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Float.pow (Array.unsafe_get x i) (Array.unsafe_get y i))
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (fmax (Array.unsafe_get x i) (Array.unsafe_get y i))
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (if Array.unsafe_get x i < Array.unsafe_get y i then 1. else 0.)
      done

(* x.(i) <- x.(i) OP v *)
let strip_bin_const k (x : float array) v len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i +. v)
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i -. v)
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i *. v)
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Array.unsafe_get x i /. v)
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (Float.pow (Array.unsafe_get x i) v)
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (fmax (Array.unsafe_get x i) v)
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i (if Array.unsafe_get x i < v then 1. else 0.)
      done

(* x.(i) <- x.(i) OP s.(sb + i): the dense direct-read superinstruction *)
let strip_bin_arr k (x : float array) (s : float array) sb len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i +. Array.unsafe_get s (sb + i))
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i -. Array.unsafe_get s (sb + i))
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i *. Array.unsafe_get s (sb + i))
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i /. Array.unsafe_get s (sb + i))
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Float.pow (Array.unsafe_get x i) (Array.unsafe_get s (sb + i)))
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (fmax (Array.unsafe_get x i) (Array.unsafe_get s (sb + i)))
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (if Array.unsafe_get x i < Array.unsafe_get s (sb + i) then 1.
           else 0.)
      done

(* x.(i) <- x.(i) OP s.(ofs + map.(b + i)) *)
let strip_bin_gather k (x : float array) (s : float array) ofs (map : int array)
    b len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i
          +. Array.unsafe_get s (ofs + Array.unsafe_get map (b + i)))
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i
          -. Array.unsafe_get s (ofs + Array.unsafe_get map (b + i)))
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i
          *. Array.unsafe_get s (ofs + Array.unsafe_get map (b + i)))
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i
          /. Array.unsafe_get s (ofs + Array.unsafe_get map (b + i)))
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (Float.pow (Array.unsafe_get x i)
             (Array.unsafe_get s (ofs + Array.unsafe_get map (b + i))))
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (fmax (Array.unsafe_get x i)
             (Array.unsafe_get s (ofs + Array.unsafe_get map (b + i))))
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set x i
          (if
             Array.unsafe_get x i
             < Array.unsafe_get s (ofs + Array.unsafe_get map (b + i))
           then 1.
           else 0.)
      done

(* d.(i) <- s.(sb + i) OP v — a [Load] fused with its following
   [BinC], saving one full pass over the strip *)
let load_bin_const k (d : float array) (s : float array) sb v len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (Array.unsafe_get s (sb + i) +. v)
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (Array.unsafe_get s (sb + i) -. v)
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (Array.unsafe_get s (sb + i) *. v)
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (Array.unsafe_get s (sb + i) /. v)
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (Float.pow (Array.unsafe_get s (sb + i)) v)
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i (fmax (Array.unsafe_get s (sb + i)) v)
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (if Array.unsafe_get s (sb + i) < v then 1. else 0.)
      done

(* d.(i) <- s.(sb + i) OP t.(tb + i) — a [Load] fused with its
   following dense [BinL] *)
let load_bin_arr k (d : float array) (s : float array) sb (t : float array) tb
    len =
  match (k : Plan.sbin) with
  | Plan.SAdd ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (Array.unsafe_get s (sb + i) +. Array.unsafe_get t (tb + i))
      done
  | Plan.SSub ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (Array.unsafe_get s (sb + i) -. Array.unsafe_get t (tb + i))
      done
  | Plan.SMul ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (Array.unsafe_get s (sb + i) *. Array.unsafe_get t (tb + i))
      done
  | Plan.SDiv ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (Array.unsafe_get s (sb + i) /. Array.unsafe_get t (tb + i))
      done
  | Plan.SPow ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (Float.pow
             (Array.unsafe_get s (sb + i))
             (Array.unsafe_get t (tb + i)))
      done
  | Plan.SMax ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (fmax
             (Array.unsafe_get s (sb + i))
             (Array.unsafe_get t (tb + i)))
      done
  | Plan.SLess ->
      for i = 0 to len - 1 do
        Array.unsafe_set d i
          (if Array.unsafe_get s (sb + i) < Array.unsafe_get t (tb + i) then
             1.
           else 0.)
      done

(* Evaluate [code] over the source index range [lo, hi) strip by strip
   on one lane's scratch stack [strips], calling [consume strip len]
   for each completed strip (covering [b, b + len) of the range, in
   ascending order).  A dense [Load] immediately followed by [BinC] or
   a dense/cell [BinL] executes as one fused pass — elementwise the
   same operations, so the fusion is invisible in the bits. *)
let run_body (slots : Plan.buf array) (code : Plan.sop array)
    (leaves : Plan.operand array) (strips : float array array) lo hi consume =
  let ncode = Array.length code in
  let cap = Array.length (Array.unsafe_get strips 0) in
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
                      load_bin_const k d s (ofs + b) v len;
                      true
                  | Plan.BinL (k, l2) -> (
                      let lf2 = Array.unsafe_get leaves l2 in
                      let t = slots.(lf2.Plan.src) and tofs = lf2.Plan.ofs in
                      match lf2.Plan.acc with
                      | Plan.Dense ->
                          load_bin_arr k d s (ofs + b) t (tofs + b) len;
                          true
                      | Plan.Cell ->
                          load_bin_const k d s (ofs + b)
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
          strip_bin2 k
            (Array.unsafe_get strips (!sp - 2))
            (Array.unsafe_get strips (!sp - 1))
            len;
          decr sp
      | Plan.BinC (k, v) ->
          strip_bin_const k (Array.unsafe_get strips (!sp - 1)) v len
      | Plan.BinL (k, l) -> (
          let lf = Array.unsafe_get leaves l in
          let s = slots.(lf.Plan.src) and ofs = lf.Plan.ofs in
          let x = Array.unsafe_get strips (!sp - 1) in
          match lf.Plan.acc with
          | Plan.Dense -> strip_bin_arr k x s (ofs + b) len
          | Plan.Cell -> strip_bin_const k x (Array.unsafe_get s ofs) len
          | Plan.Gather map -> strip_bin_gather k x s ofs map b len)
      | Plan.Sqrt1 ->
          let d = Array.unsafe_get strips (!sp - 1) in
          for i = 0 to len - 1 do
            Array.unsafe_set d i (Float.sqrt (Array.unsafe_get d i))
          done
      | Plan.Exp1 ->
          let d = Array.unsafe_get strips (!sp - 1) in
          for i = 0 to len - 1 do
            Array.unsafe_set d i (Float.exp (Array.unsafe_get d i))
          done
      | Plan.Log1 ->
          let d = Array.unsafe_get strips (!sp - 1) in
          for i = 0 to len - 1 do
            Array.unsafe_set d i (Float.log (Array.unsafe_get d i))
          done
      | Plan.Where3 ->
          let c = Array.unsafe_get strips (!sp - 3)
          and x = Array.unsafe_get strips (!sp - 2)
          and y = Array.unsafe_get strips (!sp - 1) in
          for i = 0 to len - 1 do
            Array.unsafe_set c i
              (if Array.unsafe_get c i <> 0. then Array.unsafe_get x i
               else Array.unsafe_get y i)
          done;
          sp := !sp - 2);
      incr pc
    done;
    consume (Array.unsafe_get strips 0) len;
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

let max_range (s : float array) lo hi =
  let acc = ref Float.neg_infinity in
  for i = lo to hi - 1 do
    acc := fmax !acc (Array.unsafe_get s i)
  done;
  !acc

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
          match (a.Plan.acc, b.Plan.acc) with
          | Plan.Dense, Plan.Dense -> (
              match kind with
              | Plan.BAdd ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (Array.unsafe_get ab (ao + i)
                      +. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BSub ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (Array.unsafe_get ab (ao + i)
                      -. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BMul ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (Array.unsafe_get ab (ao + i)
                      *. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BDiv ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (Array.unsafe_get ab (ao + i)
                      /. Array.unsafe_get bb (bo + i))
                  done)
          | Plan.Dense, Plan.Cell -> (
              let bv = Array.unsafe_get bb bo in
              match kind with
              | Plan.BAdd ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (Array.unsafe_get ab (ao + i) +. bv)
                  done
              | Plan.BSub ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (Array.unsafe_get ab (ao + i) -. bv)
                  done
              | Plan.BMul ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (Array.unsafe_get ab (ao + i) *. bv)
                  done
              | Plan.BDiv ->
                  (* dividing a whole tensor by one broadcast scalar:
                     one division up front, multiplies in the loop —
                     within 1 ulp of dividing elementwise, and an
                     identical plan at every lane count, so results
                     stay bitwise domain-independent *)
                  let inv = 1. /. bv in
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (Array.unsafe_get ab (ao + i) *. inv)
                  done)
          | Plan.Cell, Plan.Dense -> (
              let av = Array.unsafe_get ab ao in
              match kind with
              | Plan.BAdd ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (av +. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BSub ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (av -. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BMul ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (av *. Array.unsafe_get bb (bo + i))
                  done
              | Plan.BDiv ->
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i (av /. Array.unsafe_get bb (bo + i))
                  done)
          | _ -> assert false (* the planner emits Bin only for these *))
  | Plan.Ew { out; n; code; leaves; strips } ->
      let o = slots.(out) in
      split lanes n (fun ~lane ~lo ~hi ->
          let pos = ref lo in
          run_body slots code leaves (Array.unsafe_get strips lane) lo hi
            (fun d len ->
              Array.blit d 0 o !pos len;
              pos := !pos + len))
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
        let acc = ref (Array.unsafe_get partials 0) in
        (match kind with
        | `Sum ->
            for blk = 1 to nb - 1 do
              acc := !acc +. Array.unsafe_get partials blk
            done
        | `Max ->
            for blk = 1 to nb - 1 do
              acc := fmax !acc (Array.unsafe_get partials blk)
            done);
        Array.unsafe_set o 0 !acc
      end
      else if inner = 1 then
        (* one independent ascending chain per output row *)
        match kind with
        | `Sum ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  let sb = sofs + (ob * mid) in
                  let acc = ref 0. in
                  for i = sb to sb + mid - 1 do
                    acc := !acc +. Array.unsafe_get s i
                  done;
                  Array.unsafe_set o ob !acc
                done)
        | `Max ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  let sb = sofs + (ob * mid) in
                  Array.unsafe_set o ob (max_range s sb (sb + mid))
                done)
      else if outer = 1 then
        (* axis 0: split across output columns; each column accumulates
           in ascending m order *)
        match kind with
        | `Sum ->
            split lanes inner (fun ~lane:_ ~lo ~hi ->
                for i = lo to hi - 1 do
                  Array.unsafe_set o i 0.
                done;
                for m = 0 to mid - 1 do
                  let smb = sofs + (m * inner) in
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (Array.unsafe_get o i +. Array.unsafe_get s (smb + i))
                  done
                done)
        | `Max ->
            split lanes inner (fun ~lane:_ ~lo ~hi ->
                for i = lo to hi - 1 do
                  Array.unsafe_set o i Float.neg_infinity
                done;
                for m = 0 to mid - 1 do
                  let smb = sofs + (m * inner) in
                  for i = lo to hi - 1 do
                    Array.unsafe_set o i
                      (fmax (Array.unsafe_get o i)
                         (Array.unsafe_get s (smb + i)))
                  done
                done)
      else
        (* general middle-axis reduction: split across outer blocks *)
        match kind with
        | `Sum ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  let obase = ob * inner
                  and sbase = sofs + (ob * mid * inner) in
                  for i = 0 to inner - 1 do
                    Array.unsafe_set o (obase + i) 0.
                  done;
                  for m = 0 to mid - 1 do
                    let smb = sbase + (m * inner) in
                    for i = 0 to inner - 1 do
                      Array.unsafe_set o (obase + i)
                        (Array.unsafe_get o (obase + i)
                        +. Array.unsafe_get s (smb + i))
                    done
                  done
                done)
        | `Max ->
            split lanes outer (fun ~lane:_ ~lo ~hi ->
                for ob = lo to hi - 1 do
                  let obase = ob * inner
                  and sbase = sofs + (ob * mid * inner) in
                  for i = 0 to inner - 1 do
                    Array.unsafe_set o (obase + i) Float.neg_infinity
                  done;
                  for m = 0 to mid - 1 do
                    let smb = sbase + (m * inner) in
                    for i = 0 to inner - 1 do
                      Array.unsafe_set o (obase + i)
                        (fmax
                           (Array.unsafe_get o (obase + i))
                           (Array.unsafe_get s (smb + i)))
                    done
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
                  run_body slots code leaves st b0 b1 (fun d len ->
                      acc := !acc +. sum_range d 0 len);
                  Array.unsafe_set partials blk !acc
                done)
        | `Max ->
            split lanes nb (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                for blk = lo to hi - 1 do
                  let b0 = blk * Plan.red_block in
                  let b1 = min total ((blk + 1) * Plan.red_block) in
                  let acc = ref Float.neg_infinity in
                  run_body slots code leaves st b0 b1 (fun d len ->
                      acc := fmax !acc (max_range d 0 len));
                  Array.unsafe_set partials blk !acc
                done));
        let acc = ref (Array.unsafe_get partials 0) in
        (match kind with
        | `Sum ->
            for blk = 1 to nb - 1 do
              acc := !acc +. Array.unsafe_get partials blk
            done
        | `Max ->
            for blk = 1 to nb - 1 do
              acc := fmax !acc (Array.unsafe_get partials blk)
            done);
        Array.unsafe_set o 0 !acc
      end
      else if inner = 1 then
        (* rows: drain the body in row-bounded runs, carrying the
           (row, count, acc) cursor across strips.  Each output still
           accumulates element-by-element in ascending order (sum), or
           through [fmax], which is associative, so run boundaries
           — which shift with the lane count — cannot show up in the
           bits. *)
        match kind with
        | `Sum ->
            split lanes outer (fun ~lane ~lo ~hi ->
                let st = Array.unsafe_get strips lane in
                let ob = ref lo and m = ref 0 and acc = ref 0. in
                run_body slots code leaves st (lo * mid) (hi * mid)
                  (fun d len ->
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
                run_body slots code leaves st (lo * mid) (hi * mid)
                  (fun d len ->
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
      else if outer = 1 then begin
        (* axis 0: the output column cycles with the strip; serial (the
           planner allocates one lane) *)
        (match kind with
        | `Sum ->
            for i = 0 to inner - 1 do
              Array.unsafe_set o i 0.
            done
        | `Max ->
            for i = 0 to inner - 1 do
              Array.unsafe_set o i Float.neg_infinity
            done);
        let st = Array.unsafe_get strips 0 in
        let col = ref 0 in
        (* column-bounded runs: each column accumulates in ascending m
           order whatever the run boundaries *)
        match kind with
        | `Sum ->
            run_body slots code leaves st 0 total (fun d len ->
                let i = ref 0 in
                while !i < len do
                  let run = min (inner - !col) (len - !i) in
                  let c0 = !col and i0 = !i in
                  for j = 0 to run - 1 do
                    let oi = c0 + j in
                    Array.unsafe_set o oi
                      (Array.unsafe_get o oi +. Array.unsafe_get d (i0 + j))
                  done;
                  i := i0 + run;
                  col := c0 + run;
                  if !col = inner then col := 0
                done)
        | `Max ->
            run_body slots code leaves st 0 total (fun d len ->
                let i = ref 0 in
                while !i < len do
                  let run = min (inner - !col) (len - !i) in
                  let c0 = !col and i0 = !i in
                  for j = 0 to run - 1 do
                    let oi = c0 + j in
                    Array.unsafe_set o oi
                      (fmax (Array.unsafe_get o oi)
                         (Array.unsafe_get d (i0 + j)))
                  done;
                  i := i0 + run;
                  col := c0 + run;
                  if !col = inner then col := 0
                done)
      end
      else
        (* general: split across outer blocks, 3-counter drain *)
        let drain ~combine ~init =
          split lanes outer (fun ~lane ~lo ~hi ->
              let st = Array.unsafe_get strips lane in
              for oi = lo * inner to (hi * inner) - 1 do
                Array.unsafe_set o oi init
              done;
              let obase = ref (lo * inner) and m = ref 0 and col = ref 0 in
              run_body slots code leaves st
                (lo * mid * inner)
                (hi * mid * inner)
                (fun d len ->
                  (* column-bounded runs, as in the axis-0 case *)
                  let i = ref 0 in
                  while !i < len do
                    let run = min (inner - !col) (len - !i) in
                    let ob = !obase and c0 = !col and i0 = !i in
                    for j = 0 to run - 1 do
                      let oi = ob + c0 + j in
                      Array.unsafe_set o oi
                        (combine (Array.unsafe_get o oi)
                           (Array.unsafe_get d (i0 + j)))
                    done;
                    i := i0 + run;
                    col := c0 + run;
                    if !col = inner then begin
                      col := 0;
                      incr m;
                      if !m = mid then begin
                        m := 0;
                        obase := !obase + inner
                      end
                    end
                  done))
        in
        match kind with
        | `Sum -> drain ~combine:( +. ) ~init:0.
        | `Max -> drain ~combine:fmax ~init:Float.neg_infinity)
  | Plan.Matmul { out; a; aofs; b; bofs; m; k; n } ->
      (* cache-blocked i-k-j with the k loop unrolled by 4: k-blocks
         ascend and within a block each c[i,j] is updated as
         (((c + a0*b0) + a1*b1) + a2*b2) + a3*b3 — exactly the
         ascending-k order of the naive multiply, so tiling and
         unrolling change locality and loop overhead, not bits.  The
         unroll amortizes the c[i,j] load/store over four
         multiply-adds.  Lanes take disjoint row ranges. *)
      let c = slots.(out) and ab = slots.(a) and bb = slots.(b) in
      let tile = opts.Opts.tile in
      split lanes m (fun ~lane:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            let cb = i * n in
            for j = 0 to n - 1 do
              Array.unsafe_set c (cb + j) 0.
            done
          done;
          let jj = ref 0 in
          while !jj < n do
            let jhi = min n (!jj + tile) in
            let kk = ref 0 in
            while !kk < k do
              let khi = min k (!kk + tile) in
              let i = ref lo in
              while !i + 1 < hi do
                (* two rows share the four B rows: B traffic per flop
                   halves; each row keeps its own ascending-k chain *)
                let arow = aofs + (!i * k)
                and arow' = aofs + ((!i + 1) * k)
                and cb = !i * n
                and cb' = (!i + 1) * n in
                let l = ref !kk in
                while !l + 3 < khi do
                  let l0 = !l in
                  let a0 = Array.unsafe_get ab (arow + l0)
                  and a1 = Array.unsafe_get ab (arow + l0 + 1)
                  and a2 = Array.unsafe_get ab (arow + l0 + 2)
                  and a3 = Array.unsafe_get ab (arow + l0 + 3)
                  and a0' = Array.unsafe_get ab (arow' + l0)
                  and a1' = Array.unsafe_get ab (arow' + l0 + 1)
                  and a2' = Array.unsafe_get ab (arow' + l0 + 2)
                  and a3' = Array.unsafe_get ab (arow' + l0 + 3) in
                  let b0 = bofs + (l0 * n)
                  and b1 = bofs + ((l0 + 1) * n)
                  and b2 = bofs + ((l0 + 2) * n)
                  and b3 = bofs + ((l0 + 3) * n) in
                  for j = !jj to jhi - 1 do
                    let v0 = Array.unsafe_get bb (b0 + j)
                    and v1 = Array.unsafe_get bb (b1 + j)
                    and v2 = Array.unsafe_get bb (b2 + j)
                    and v3 = Array.unsafe_get bb (b3 + j) in
                    Array.unsafe_set c (cb + j)
                      (((Array.unsafe_get c (cb + j) +. (a0 *. v0))
                        +. (a1 *. v1) +. (a2 *. v2))
                      +. (a3 *. v3));
                    Array.unsafe_set c (cb' + j)
                      (((Array.unsafe_get c (cb' + j) +. (a0' *. v0))
                        +. (a1' *. v1) +. (a2' *. v2))
                      +. (a3' *. v3))
                  done;
                  l := l0 + 4
                done;
                while !l < khi do
                  let av = Array.unsafe_get ab (arow + !l)
                  and av' = Array.unsafe_get ab (arow' + !l) in
                  let brow = bofs + (!l * n) in
                  for j = !jj to jhi - 1 do
                    let bv = Array.unsafe_get bb (brow + j) in
                    Array.unsafe_set c (cb + j)
                      (Array.unsafe_get c (cb + j) +. (av *. bv));
                    Array.unsafe_set c (cb' + j)
                      (Array.unsafe_get c (cb' + j) +. (av' *. bv))
                  done;
                  incr l
                done;
                i := !i + 2
              done;
              if !i < hi then begin
                let arow = aofs + (!i * k) and cb = !i * n in
                let l = ref !kk in
                while !l + 3 < khi do
                  let l0 = !l in
                  let a0 = Array.unsafe_get ab (arow + l0)
                  and a1 = Array.unsafe_get ab (arow + l0 + 1)
                  and a2 = Array.unsafe_get ab (arow + l0 + 2)
                  and a3 = Array.unsafe_get ab (arow + l0 + 3) in
                  let b0 = bofs + (l0 * n)
                  and b1 = bofs + ((l0 + 1) * n)
                  and b2 = bofs + ((l0 + 2) * n)
                  and b3 = bofs + ((l0 + 3) * n) in
                  for j = !jj to jhi - 1 do
                    Array.unsafe_set c (cb + j)
                      (((Array.unsafe_get c (cb + j)
                        +. (a0 *. Array.unsafe_get bb (b0 + j)))
                        +. (a1 *. Array.unsafe_get bb (b1 + j))
                        +. (a2 *. Array.unsafe_get bb (b2 + j)))
                      +. (a3 *. Array.unsafe_get bb (b3 + j)))
                  done;
                  l := l0 + 4
                done;
                while !l < khi do
                  let av = Array.unsafe_get ab (arow + !l) in
                  let brow = bofs + (!l * n) in
                  for j = !jj to jhi - 1 do
                    Array.unsafe_set c (cb + j)
                      (Array.unsafe_get c (cb + j)
                      +. (av *. Array.unsafe_get bb (brow + j)))
                  done;
                  incr l
                done
              end;
              kk := khi
            done;
            jj := jhi
          done)
  | Plan.Transpose2 { out; src; sofs; rows; cols } ->
      let o = slots.(out) and s = slots.(src) in
      let tile = opts.Opts.tile in
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
