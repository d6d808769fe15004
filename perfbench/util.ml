(* Small helpers shared by the workloads: clocks, order statistics,
   memory high-water marks, scratch directories and the metric list the
   benchmark prints. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let geomean xs =
  match xs with
  | [] -> 0.
  | _ ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Samples beyond the nearest-rank percentile [p]: the guide for
   reporting a tail is at least ten. *)
let beyond n p =
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* Peak resident set of a process in MiB, from /proc (Linux). *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
                | kb -> float_of_int kb /. 1024.
                | exception _ -> go ())
          in
          go ())

(* Seconds of CPU time the hypervisor gave to other guests (the "steal"
   column of /proc/stat), for reading a noisy run. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match
            Scanf.sscanf (input_line ic) "cpu %d %d %d %d %d %d %d %d"
              (fun _ _ _ _ _ _ _ steal -> steal)
          with
          | ticks -> float_of_int ticks /. 100.
          | exception _ -> 0.)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Deterministic Fisher-Yates shuffle. *)
let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Shortest decimal that reads back as the same float. *)
let float_str f =
  if not (Float.is_finite f) then "0"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let print_metric_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-28s %16s %s\n" name (float_str value) unit_)
    ms

(* The result line: the last line of standard output, which run.py
   checks against BENCHMARK.json. *)
let result_line ~correct ~attempted ~failed ms =
  let metric { name; value; unit_ } =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (float_str value)
      unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))
