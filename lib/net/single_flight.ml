(* Single-flight request coalescing: concurrent computations for the
   same key collapse onto one execution.  The first caller for a key
   becomes the leader and runs the thunk; callers arriving while it is
   in flight block until the leader finishes and receive the same
   result (or the same exception).  Results are not cached — once the
   leader publishes, the key leaves the table, so this composes with
   (rather than replaces) a persistent store in front of the search. *)

type 'a state = Running | Done of 'a | Failed of exn

type 'a cell = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : 'a state;
}

(* Flights are keyed by the key's hash, computed once per flight, paired
   with the key itself to tell colliding keys apart.  A store key can run
   to hundreds of kilobytes, and the generic table would hash it again
   on lookup, insertion and removal; removal finds the key physically
   equal, so only a colliding or coalescing flight compares bytes. *)
module Tbl = Hashtbl.Make (struct
  type t = int * string

  let equal (h, k) (h', k') = h = h' && String.equal k k'
  let hash (h, _) = h
end)

type 'a t = {
  lock : Mutex.t;
  cells : 'a cell Tbl.t;
  coalesced : Obs.Telemetry.Counter.t;  (* total waiters served *)
}

let create () =
  {
    lock = Mutex.create ();
    cells = Tbl.create 64;
    coalesced = Obs.Telemetry.Counter.make ();
  }

let coalesced t = Obs.Telemetry.Counter.get t.coalesced

(* [run t key f] returns [(result, was_coalesced)].  Exceptions from
   the leader's [f] propagate to the leader and every waiter. *)
let run t key f =
  let key = (Hashtbl.hash key, key) in
  let role =
    Mutex.protect t.lock (fun () ->
        match Tbl.find_opt t.cells key with
        | Some cell -> `Wait cell
        | None ->
            let cell =
              {
                mutex = Mutex.create ();
                cond = Condition.create ();
                state = Running;
              }
            in
            Tbl.add t.cells key cell;
            `Lead cell)
  in
  match role with
  | `Lead cell -> (
      let outcome = try Done (f ()) with e -> Failed e in
      (* Unpublish before waking waiters: a request arriving after this
         point must start a fresh flight, not observe a stale cell. *)
      Mutex.protect t.lock (fun () -> Tbl.remove t.cells key);
      Mutex.protect cell.mutex (fun () ->
          cell.state <- outcome;
          Condition.broadcast cell.cond);
      match outcome with
      | Done v -> (v, false)
      | Failed e -> raise e
      | Running -> assert false)
  | `Wait cell -> (
      Obs.Telemetry.Counter.incr t.coalesced;
      let running cell =
        match cell.state with Running -> true | Done _ | Failed _ -> false
      in
      let result =
        Mutex.protect cell.mutex (fun () ->
            while running cell do
              Condition.wait cell.cond cell.mutex
            done;
            cell.state)
      in
      match result with
      | Done v -> (v, true)
      | Failed e -> raise e
      | Running -> assert false)
