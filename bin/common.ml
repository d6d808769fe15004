(* Plumbing shared by the CLI's commands and the `stenso bench`
   sections: fatal errors, file input and output, and the one report
   writer. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("stenso: " ^ s); exit 1) fmt

(* Exit 65 (EX_DATAERR): the input file is malformed (a positioned parse
   error or an ill-typed program). *)
let die_dataerr file msg =
  prerr_endline (Printf.sprintf "stenso: %s: %s" file msg);
  exit 65

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A program file, parsed and type-checked; a malformed or ill-typed
   one exits 65. *)
let load_program path =
  try
    let env, prog = Dsl.Parser.program (read_file path) in
    ignore (Dsl.Types.infer env prog);
    (env, prog)
  with Dsl.Parser.Parse_error msg | Dsl.Types.Type_error msg ->
    die_dataerr path msg

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Every generated report is checked against its schema (and the
   caller's gate) before it is written: an invalid document exits 1 and
   is never archived.  Without a [path] the document is only checked.
   Unless [quiet], the schema's one-line summary is printed. *)
let write_report ?min_speedup ?min_success ?(quiet = false) ~label path doc =
  match Suite.Report.validate ?min_speedup ?min_success doc with
  | Error msg -> die "generated %s report is invalid: %s" label msg
  | Ok (schema, summary) ->
      Option.iter
        (fun p -> write_file p (Stenso.Telemetry.Json.to_string doc ^ "\n"))
        path;
      if not quiet then
        Printf.printf "%s report: valid %s (%s)%s\n%!" label schema summary
          (match path with Some p -> "; wrote " ^ p | None -> "")
