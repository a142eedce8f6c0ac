exception Not_in_simulation
exception Stuck of string

type env = {
  mutable cell_registry : Cell.packed list;  (* newest first *)
  mutable next_cell_id : int;
  mutable step : int;
  tr : Trace.t;
  mutable observers : (step:int -> unit) list;  (* newest first *)
}

let create ?(trace = true) ?trace_capacity () =
  let tr = Trace.create ?capacity:trace_capacity () in
  Trace.set_enabled tr trace;
  { cell_registry = []; next_cell_id = 0; step = 0; tr; observers = [] }

let on_event env f = env.observers <- f :: env.observers

let notify_observers env =
  List.iter (fun f -> f ~step:env.step) (List.rev env.observers)

let make_cell env ?pp ?(bits = 0) name init =
  let c = Cell.make ~id:env.next_cell_id ~name ~bits ~pp init in
  env.next_cell_id <- env.next_cell_id + 1;
  env.cell_registry <- Cell.Packed c :: env.cell_registry;
  c

let now env = env.step
let trace env = env.tr
let total_accesses env = env.step

let note env ~proc text =
  if Trace.enabled env.tr then
    Trace.record env.tr
      { Trace.step = env.step; proc; kind = Trace.Note; cell = text; value = "" }

let reset_counters env =
  List.iter (fun (Cell.Packed c) -> Cell.reset_counters c) env.cell_registry

let space_bits env =
  List.fold_left (fun acc (Cell.Packed c) -> acc + Cell.bits c) 0 env.cell_registry

let cells env = List.rev env.cell_registry

type cell_stat = { cell : string; creads : int; cwrites : int }

let cell_stats env =
  List.rev_map
    (fun (Cell.Packed c) ->
      { cell = Cell.name c; creads = Cell.reads c; cwrites = Cell.writes c })
    env.cell_registry

(* ------------------------------------------------------------------ *)
(* Effects and the scheduler                                            *)
(* ------------------------------------------------------------------ *)

(* What a parked process is handed back when it is granted its step:
   the environment to account the access in and its own id. *)
type proc = { env : env; id : int }

type _ Effect.t += Sim_park : proc Effect.t | Sim_self : int Effect.t

(* Every access parks first and happens only once the scheduler resumes
   the process: this is what makes each labeled statement atomic while
   allowing arbitrary interleaving between statements.  [Sim_park]
   carries no payload, so parking allocates nothing but the
   continuation itself. *)
let park () =
  try Effect.perform Sim_park with Effect.Unhandled _ -> raise Not_in_simulation

let account p ~kind c v =
  let env = p.env in
  if Trace.enabled env.tr then
    Trace.record env.tr
      {
        Trace.step = env.step;
        proc = p.id;
        kind;
        cell = Cell.name c;
        value = Cell.pp_value c v;
      };
  env.step <- env.step + 1;
  if env.observers <> [] then notify_observers env

let read c =
  let p = park () in
  let v = Cell.peek c in
  Cell.count_read c;
  account p ~kind:Trace.Read c v;
  v

let write c v =
  let p = park () in
  Cell.poke c v;
  Cell.count_write c;
  account p ~kind:Trace.Write c v

let self () =
  try Effect.perform Sim_self with Effect.Unhandled _ -> raise Not_in_simulation

(* A process is parked at its next access (the continuation is
   overwritten in place at every park) until it returns. *)
type state =
  | Not_started of (unit -> unit)
  | Parked of { mutable k : (proc, unit) Effect.Deep.continuation }
  | Finished

type stats = { steps : int; switches : int }

(* Run a fresh process to its first park (or to completion).  Its
   handler and park closure are built here, once per process. *)
let start state i f =
  let open Effect.Deep in
  let park =
    Some
      (fun (k : (proc, unit) continuation) ->
        match state.(i) with
        | Parked r -> r.k <- k
        | Not_started _ | Finished -> state.(i) <- Parked { k })
  in
  let self = Some (fun (k : (int, unit) continuation) -> continue k i) in
  match_with f ()
    {
      retc = (fun () -> state.(i) <- Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sim_park -> (park : ((a, unit) continuation -> unit) option)
          | Sim_self -> (self : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

(* An access happens only when a parked process is resumed, so a
   freshly-started process "consumes" a scheduling turn to reach its
   first access.  To keep scripted schedules intuitive (one script entry
   = one event of that process), stepping a [Not_started] process
   continues stepping it until it parks at an access or finishes. *)
let step_until_event state me i =
  (match state.(i) with
  | Not_started f -> start state i f
  | Parked _ | Finished -> ());
  match state.(i) with
  | Finished -> ()  (* the process performed no shared access at all *)
  | Parked r -> Effect.Deep.continue r.k me.(i)
  | Not_started _ -> assert false

exception Unwind

(* Free the fiber of every process still parked when a run ends (crash
   victims, or everyone after [Stuck] or a bad script): resume it with
   [Unwind] so its stack unwinds and its finalisers run.  A finaliser
   that accesses memory parks again and is unwound again. *)
let unwind state =
  Array.iteri
    (fun i _ ->
      let rec go () =
        match state.(i) with
        | Parked r ->
          let k = r.k in
          (try Effect.Deep.discontinue k Unwind with _ -> ());
          (match state.(i) with
          | Parked r' when r'.k != k -> go ()
          | _ -> state.(i) <- Finished)
        | _ -> ()
      in
      go ())
    state

(* Fault-model input validation: a typo'd process id or a duplicate
   entry silently weakens (or silently strengthens) the intended fault
   scenario, so both are rejected loudly. *)
let validate_faults ~n ~crashes ~stalls =
  let check_proc what p =
    if p < 0 || p >= n then
      invalid_arg
        (Printf.sprintf
           "Sim.run: %s names process %d, but process ids range over 0..%d"
           what p (n - 1))
  in
  let check_dups what ps =
    let sorted = List.sort compare ps in
    let rec scan = function
      | p :: q :: _ when p = q ->
        invalid_arg
          (Printf.sprintf
             "Sim.run: duplicate %s entry for process %d (merge them into \
              one)"
             what p)
      | _ :: rest -> scan rest
      | [] -> ()
    in
    scan sorted
  in
  List.iter
    (fun (p, k) ->
      check_proc "crash" p;
      if k < 0 then
        invalid_arg
          (Printf.sprintf "Sim.run: negative crash point %d for process %d" k p))
    crashes;
  check_dups "crash" (List.map fst crashes);
  List.iter
    (fun (p, at, dur) ->
      check_proc "stall" p;
      if at < 0 then
        invalid_arg
          (Printf.sprintf "Sim.run: negative stall point %d for process %d" at p);
      if dur < 0 then
        invalid_arg
          (Printf.sprintf
             "Sim.run: negative stall duration %d for process %d" dur p))
    stalls;
  check_dups "stall" (List.map (fun (p, _, _) -> p) stalls)

(* A stall is armed until its process has performed [at] events, then
   holds it unscheduled until [dur] further global events have elapsed
   (or until every runnable process is stalled, in which case the
   soonest-resuming stall is released early — global time only advances
   through events, so waiting it out is not an option). *)
type stall_phase = S_armed of { at : int; dur : int } | S_stalled of { since : int; dur : int } | S_released

let run env ?(policy = Schedule.Round_robin) ?(max_steps = 10_000_000)
    ?(crashes = []) ?(stalls = []) procs =
  let n = Array.length procs in
  validate_faults ~n ~crashes ~stalls;
  if n = 0 then { steps = 0; switches = 0 }
  else begin
    let state = Array.map (fun f -> Not_started f) procs in
    let me = Array.init n (fun id -> { env; id }) in
    let driver = Schedule.driver policy in
    let switches = ref 0 in
    let last = ref (-1) in
    let start_step = env.step in
    (* Halting failures: once process p has performed its quota of
       events it is treated as finished (never scheduled again), its
       current operation left dangling mid-flight. *)
    let events_done = Array.make n 0 in
    let crash_at = Array.make n max_int in
    List.iter (fun (p, k) -> crash_at.(p) <- k) crashes;
    let crashed p = events_done.(p) >= crash_at.(p) in
    let stall_phase = Array.make n S_released in
    List.iter
      (fun (p, at, dur) -> stall_phase.(p) <- S_armed { at; dur })
      stalls;
    let stalled p =
      match stall_phase.(p) with
      | S_released -> false
      | S_armed { at; dur } ->
        if events_done.(p) < at then false
        else if dur = 0 then begin
          stall_phase.(p) <- S_released;
          false
        end
        else begin
          stall_phase.(p) <- S_stalled { since = env.step; dur };
          true
        end
      | S_stalled { since; dur } ->
        if env.step - since >= dur then begin
          stall_phase.(p) <- S_released;
          false
        end
        else true
    in
    (* The global step at which the earliest stalled process is due
       back; the enabled set cannot change before it unless the stepped
       process finishes, crashes or reaches its stall point. *)
    let due = ref max_int in
    let enabled_ids () =
      let ids = ref [] in
      for i = n - 1 downto 0 do
        match state.(i) with
        | Finished -> ()
        | _ -> if not (crashed i) && not (stalled i) then ids := i :: !ids
      done;
      due := max_int;
      Array.iter
        (function
          | S_stalled { since; dur } -> due := min !due (since + dur)
          | S_armed _ | S_released -> ())
        stall_phase;
      Array.of_list !ids
    in
    (* If every runnable process is stalled, no event can occur and the
       resume clocks would never tick: release the stall due soonest
       (lowest [since + dur], ties to the lowest process id). *)
    let release_soonest_stall () =
      let soonest = ref None in
      Array.iteri
        (fun p phase ->
          match (state.(p), phase) with
          | Finished, _ | _, (S_released | S_armed _) -> ()
          | _, S_stalled { since; dur } ->
            if not (crashed p) then begin
              let due = since + dur in
              match !soonest with
              | Some (_, best) when best <= due -> ()
              | _ -> soonest := Some (p, due)
            end)
        stall_phase;
      match !soonest with
      | None -> false
      | Some (p, _) ->
        stall_phase.(p) <- S_released;
        true
    in
    let rebuild () =
      let enabled = enabled_ids () in
      if Array.length enabled > 0 then enabled
      else if release_soonest_stall () then enabled_ids ()
      else enabled
    in
    let rec loop enabled =
      let enabled = if env.step >= !due then rebuild () else enabled in
      if Array.length enabled > 0 then begin
        if env.step - start_step > max_steps then
          raise
            (Stuck
               (Printf.sprintf
                  "simulation exceeded %d steps; a process appears to loop \
                   forever (wait-freedom violation?)"
                  max_steps));
        let i = Schedule.pick driver ~enabled ~step:env.step in
        if i <> !last then incr switches;
        last := i;
        let before = env.step in
        step_until_event state me i;
        if env.step > before then events_done.(i) <- events_done.(i) + 1;
        let changed =
          (match state.(i) with Finished -> true | _ -> false)
          || crash_at.(i) < max_int
          || (match stall_phase.(i) with S_armed _ -> true | _ -> false)
        in
        loop (if changed then rebuild () else enabled)
      end
    in
    Fun.protect ~finally:(fun () -> unwind state) (fun () -> loop (rebuild ()));
    { steps = env.step - start_step; switches = !switches }
  end

let run_solo env ?max_steps f = run env ?max_steps ~policy:Schedule.Round_robin [| f |]

(* ------------------------------------------------------------------ *)
(* Bounded-exhaustive exploration                                       *)
(* ------------------------------------------------------------------ *)

type exploration = { runs : int; exhaustive : bool }

exception Exploration_failure of { schedule : int list; exn : exn }

type choice = { chosen : int; fanout : int; proc : int }

let explore ?(max_runs = 100_000) factory =
  let runs = ref 0 in
  let exhausted = ref false in
  (* [prefix] is the list of choice indices (into the enabled array) to
     replay; beyond it we always take index 0 and record fanouts. *)
  let run_once prefix =
    let env, procs, check = factory () in
    let choices : choice list ref = ref [] in
    let pos = ref 0 in
    let pick ~enabled ~step:_ =
      let idx =
        if !pos < Array.length prefix then prefix.(!pos)
        else 0
      in
      incr pos;
      if idx >= Array.length enabled then
        invalid_arg
          "explore: factory produced a nondeterministic system (replay \
           diverged from recorded schedule)";
      choices :=
        { chosen = idx; fanout = Array.length enabled; proc = enabled.(idx) }
        :: !choices;
      enabled.(idx)
    in
    let schedule_of () = List.rev_map (fun c -> c.proc) !choices in
    (try
       ignore (run env ~policy:(Schedule.Choose pick) ~max_steps:1_000_000 procs);
       check env
     with exn ->
       raise (Exploration_failure { schedule = schedule_of (); exn }));
    List.rev !choices
  in
  (* Compute the next prefix in DFS order, or None when done. *)
  let next_prefix choices =
    let arr = Array.of_list choices in
    let rec scan i =
      if i < 0 then None
      else if arr.(i).chosen + 1 < arr.(i).fanout then begin
        let prefix = Array.make (i + 1) 0 in
        for j = 0 to i - 1 do
          prefix.(j) <- arr.(j).chosen
        done;
        prefix.(i) <- arr.(i).chosen + 1;
        Some prefix
      end
      else scan (i - 1)
    in
    scan (Array.length arr - 1)
  in
  let rec loop prefix =
    if !runs >= max_runs then exhausted := true
    else begin
      let choices = run_once prefix in
      incr runs;
      match next_prefix choices with
      | None -> ()
      | Some p -> loop p
    end
  in
  loop [||];
  { runs = !runs; exhaustive = not !exhausted }
