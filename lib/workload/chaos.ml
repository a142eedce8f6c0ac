open Csim

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                       *)
(* ------------------------------------------------------------------ *)

type profile = {
  label : string;
  injections : Faults.injection list;
  crashes : (int * int) list;
  stalls : (int * int * int) list;
}

let profile ?(injections = []) ?(crashes = []) ?(stalls = []) label =
  { label; injections; crashes; stalls }

let faulty_memory p = p.injections <> []

let default_profiles ~components ~readers =
  let last_reader = components + readers - 1 in
  let inj kind = [ { Faults.kind; target = Faults.All } ] in
  [
    profile "none";
    profile "crash-writer0" ~crashes:[ (0, 2) ];
    profile "crash-reader" ~crashes:[ (last_reader, 3) ];
    profile "crash-two" ~crashes:[ (0, 4); (last_reader, 1) ];
    profile "stall-writer0" ~stalls:[ (0, 2, 60) ];
    profile "stall-reader" ~stalls:[ (last_reader, 1, 80) ];
    profile "stall-writers"
      ~stalls:(List.init components (fun k -> (k, 3, 30)));
    profile "lost-writes" ~injections:(inj (Faults.Lost_write { prob = 0.15 }));
    profile "stuck-cell" ~injections:(inj (Faults.Stuck_at { after = 1 }));
    profile "stutter" ~injections:(inj (Faults.Stutter { prob = 0.15 }));
    profile "corrupt-reads" ~injections:(inj (Faults.Corrupt { prob = 0.05 }));
    profile "regular-weakening" ~injections:(inj (Faults.Regular { window = 2 }));
  ]

(* ------------------------------------------------------------------ *)
(* Single runs                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seeds : int;
  base_seed : int;
  max_steps : int;
  minimize_budget : int;
}

let default =
  {
    impls = Campaign.all_impls;
    profiles = default_profiles ~components:2 ~readers:2;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seeds = 10;
    base_seed = 1;
    max_steps = 50_000;
    minimize_budget = 3_000;
  }

type outcome =
  | Passed
  | Flagged of History.Shrinking.violation list
  | Stuck_run of string
  | Diverged of string

let outcome_failed = function
  | Flagged _ | Stuck_run _ -> true
  | Passed | Diverged _ -> false

type case = {
  impl : Campaign.impl;
  prof : profile;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  fault_seed : int;
}

type run_result = {
  outcome : outcome;
  schedule : int array;  (* scheduler picks, in order (record mode only) *)
  fired : int;  (* memory faults that triggered *)
}

type mode = Record of Schedule.t | Replay of int array

(* The same deterministic workload as Campaign/Resilience: writer k's
   s-th Write has input (k+1)*1000 + s and (for all implementations in
   the repo) id s, which is what Resilience.complete_dangling assumes
   when materializing a crash victim's pending Write. *)
let exec ~max_steps (case : case) mode =
  let env = Sim.create ~trace:false () in
  let base = Memory.of_sim env in
  (* [who] names the asking process for equivocating faults, so two
     concurrent readers really are shown different register faces. *)
  let who () = try Sim.self () with Sim.Not_in_simulation -> 0 in
  let mem, counters =
    Faults.wrap ~seed:case.fault_seed ~who case.prof.injections base
  in
  let init = Array.init case.components (fun k -> (k + 1) * 10) in
  let handle = Campaign.make_handle case.impl mem ~readers:case.readers ~init in
  let rec_ =
    Composite.Snapshot.record ~clock:(fun () -> Sim.now env) ~initial:init handle
  in
  let writer k () =
    for s = 1 to case.writes_per_writer do
      rec_.Composite.Snapshot.rupdate ~writer:k (((k + 1) * 1000) + s)
    done
  in
  let reader j () =
    for _ = 1 to case.scans_per_reader do
      ignore (rec_.Composite.Snapshot.rscan ~reader:j)
    done
  in
  let procs =
    Array.init
      (case.components + case.readers)
      (fun i ->
        if i < case.components then writer i else reader (i - case.components))
  in
  let picks = ref [] in
  let policy =
    match mode with
    | Record inner ->
      let d = Schedule.driver inner in
      Schedule.Choose
        (fun ~enabled ~step ->
          let p = Schedule.pick d ~enabled ~step in
          picks := p :: !picks;
          p)
    | Replay script -> Schedule.Scripted (script, Schedule.Round_robin)
  in
  let finish outcome =
    {
      outcome;
      schedule = Array.of_list (List.rev !picks);
      fired = Faults.fired counters;
    }
  in
  match
    Sim.run env ~policy ~max_steps ~crashes:case.prof.crashes
      ~stalls:case.prof.stalls procs
  with
  | exception Sim.Stuck msg -> finish (Stuck_run msg)
  | exception Schedule.Bad_script msg -> finish (Diverged msg)
  | (_ : Sim.stats) ->
    let h = Composite.Snapshot.history rec_ in
    let crashed = case.prof.crashes <> [] in
    let h =
      if crashed then Resilience.complete_dangling ~components:case.components h
      else h
    in
    let violations = History.Shrinking.check ~equal:Int.equal h in
    let violations =
      (* A crash victim's half-published Write can leave ids with no
         completed matching Write even after completion; those
         Integrity leftovers are the pending operation's footprint, not
         a bug (cf. the resilience qcheck property).  All other
         conditions must hold regardless. *)
      if crashed then
        List.filter
          (function History.Shrinking.Integrity _ -> false | _ -> true)
          violations
      else violations
    in
    finish (if violations = [] then Passed else Flagged violations)

let replay case ~script =
  (exec ~max_steps:default.max_steps case (Replay script)).outcome

(* ------------------------------------------------------------------ *)
(* Counterexample minimization                                          *)
(* ------------------------------------------------------------------ *)

(* Greedy delta debugging on a list: repeatedly try to delete chunks,
   halving the chunk size whenever a whole sweep makes no progress.
   [test] must return true iff the candidate still fails. *)
let ddmin ~budget ~test xs =
  let spent = ref 0 in
  let try_test ys =
    if !spent >= budget then false
    else begin
      incr spent;
      test ys
    end
  in
  let rec sweep chunk i xs =
    let n = List.length xs in
    if i >= n then xs
    else begin
      let candidate = List.filteri (fun j _ -> j < i || j >= i + chunk) xs in
      if List.length candidate < n && try_test candidate then
        sweep chunk i candidate
      else sweep chunk (i + chunk) xs
    end
  in
  let rec shrink xs chunk =
    if chunk = 0 || xs = [] then xs
    else begin
      let n = List.length xs in
      let xs = sweep chunk 0 xs in
      if List.length xs < n then
        shrink xs (min chunk (max 1 (List.length xs / 2)))
      else shrink xs (chunk / 2)
    end
  in
  let r = shrink xs (max 1 (List.length xs / 2)) in
  (r, !spent)

type element =
  | E_injection of Faults.injection
  | E_crash of int * int
  | E_stall of int * int * int

let elements_of_profile p =
  List.map (fun i -> E_injection i) p.injections
  @ List.map (fun (a, b) -> E_crash (a, b)) p.crashes
  @ List.map (fun (a, b, c) -> E_stall (a, b, c)) p.stalls

let profile_of_elements ~label els =
  {
    label;
    injections = List.filter_map (function E_injection i -> Some i | _ -> None) els;
    crashes = List.filter_map (function E_crash (a, b) -> Some (a, b) | _ -> None) els;
    stalls =
      List.filter_map (function E_stall (a, b, c) -> Some (a, b, c) | _ -> None) els;
  }

type counterexample = {
  cx_case : case;
  cx_script : int array;
  cx_violations : string;
  cx_original_entries : int;
  cx_original_elements : int;
  cx_replays : int;
}

let render_outcome = function
  | Passed -> "passed"
  | Stuck_run msg -> "stuck: " ^ msg
  | Diverged msg -> "diverged: " ^ msg
  | Flagged vs ->
    Format.asprintf "%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline
         History.Shrinking.pp_violation)
      vs

let minimize ~budget case ~script =
  (* Reproduce "the same kind of failure": a Flagged original must stay
     Flagged (any violation will do — insisting on the identical
     violation list would block most simplifications), a Stuck original
     must stay Stuck. *)
  let same_kind reference o =
    match (reference, o) with
    | Flagged _, Flagged _ -> true
    | Stuck_run _, Stuck_run _ -> true
    | _ -> false
  in
  let reference = replay case ~script in
  if not (outcome_failed reference) then
    invalid_arg "Chaos.minimize: the given case does not fail under replay";
  let original_elements = elements_of_profile case.prof in
  (* Pass 1: shrink the chaos elements, replaying the full schedule. *)
  let elements, spent1 =
    ddmin ~budget
      ~test:(fun els ->
        let prof = profile_of_elements ~label:case.prof.label els in
        same_kind reference (replay { case with prof } ~script))
      original_elements
  in
  let case = { case with prof = profile_of_elements ~label:case.prof.label elements } in
  (* Pass 2: shrink the schedule itself.  Dropped entries defer the
     affected process's remaining events to the round-robin fallback;
     candidates that make a later entry invalid (Diverged) simply do
     not reproduce and are rejected by the test. *)
  let entries, spent2 =
    ddmin ~budget:(max 0 (budget - spent1))
      ~test:(fun entries ->
        same_kind reference (replay case ~script:(Array.of_list entries)))
      (Array.to_list script)
  in
  let cx_script = Array.of_list entries in
  {
    cx_case = case;
    cx_script;
    cx_violations = render_outcome (replay case ~script:cx_script);
    cx_original_entries = Array.length script;
    cx_original_elements = List.length original_elements;
    cx_replays = spent1 + spent2;
  }

(* ------------------------------------------------------------------ *)
(* Replayable one-line scripts                                          *)
(* ------------------------------------------------------------------ *)

let concat_map sep f xs = String.concat sep (List.map f xs)

let cx_to_string cx =
  let c = cx.cx_case in
  Printf.sprintf
    "impl=%s c=%d r=%d writes=%d scans=%d fault-seed=%d label=%s faults=%s \
     crashes=%s stalls=%s script=%s"
    (Campaign.impl_name c.impl) c.components c.readers c.writes_per_writer
    c.scans_per_reader c.fault_seed c.prof.label
    (concat_map "," Faults.injection_to_string c.prof.injections)
    (concat_map "," (fun (p, k) -> Printf.sprintf "%d:%d" p k) c.prof.crashes)
    (concat_map ","
       (fun (p, at, dur) -> Printf.sprintf "%d:%d:%d" p at dur)
       c.prof.stalls)
    (concat_map "," string_of_int (Array.to_list cx.cx_script))

let cx_of_string s =
  let ( let* ) = Result.bind in
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> None
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) ))
      (String.split_on_char ' ' (String.trim s))
  in
  let field name = List.assoc_opt name fields in
  let req name =
    match field name with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "replay script: missing %s=" name)
  in
  let int_field name =
    let* v = req name in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "replay script: %s=%S is not an integer" name v)
  in
  let list_field name parse =
    match field name with
    | None | Some "" -> Ok []
    | Some v ->
      List.fold_right
        (fun tok acc ->
          let* acc = acc in
          let* x = parse tok in
          Ok (x :: acc))
        (String.split_on_char ',' v) (Ok [])
  in
  let ints_of tok expect name =
    let parts = String.split_on_char ':' tok in
    if List.length parts <> expect then
      Error (Printf.sprintf "replay script: bad %s entry %S" name tok)
    else
      List.fold_right
        (fun p acc ->
          let* acc = acc in
          match int_of_string_opt p with
          | Some n -> Ok (n :: acc)
          | None -> Error (Printf.sprintf "replay script: bad %s entry %S" name tok))
        parts (Ok [])
  in
  let* impl_s = req "impl" in
  let* impl =
    match Campaign.impl_of_name impl_s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "replay script: unknown impl %S" impl_s)
  in
  let* components = int_field "c" in
  let* readers = int_field "r" in
  let* writes_per_writer = int_field "writes" in
  let* scans_per_reader = int_field "scans" in
  let* fault_seed = int_field "fault-seed" in
  let label = Option.value (field "label") ~default:"replay" in
  let* injections =
    list_field "faults" (fun tok -> Faults.injection_of_string tok)
  in
  let* crashes =
    list_field "crashes" (fun tok ->
        let* l = ints_of tok 2 "crashes" in
        match l with [ p; k ] -> Ok (p, k) | _ -> assert false)
  in
  let* stalls =
    list_field "stalls" (fun tok ->
        let* l = ints_of tok 3 "stalls" in
        match l with [ p; at; dur ] -> Ok (p, at, dur) | _ -> assert false)
  in
  let* script =
    list_field "script" (fun tok ->
        match int_of_string_opt tok with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "replay script: bad script entry %S" tok))
  in
  Ok
    {
      cx_case =
        {
          impl;
          prof = { label; injections; crashes; stalls };
          components;
          readers;
          writes_per_writer;
          scans_per_reader;
          fault_seed;
        };
      cx_script = Array.of_list script;
      cx_violations = "";
      cx_original_entries = List.length script;
      cx_original_elements =
        List.length injections + List.length crashes + List.length stalls;
      cx_replays = 0;
    }

let pp_counterexample fmt cx =
  let c = cx.cx_case in
  Format.fprintf fmt
    "@[<v>minimized counterexample: impl=%s profile=%s@,\
     fault stack: %s@,\
     chaos elements: %d (from %d)  schedule entries: %d (from %d)  \
     minimizer replays: %d@,\
     faults=[%s] crashes=[%s] stalls=[%s] fault-seed=%d@,\
     violations of the minimized run:@,%s@,\
     replay with:@,  chaos --replay '%s'@]"
    (Campaign.impl_name c.impl) c.prof.label
    (Faults.stack_label ~layers:[ c.prof.injections ] ~base:"sim")
    (List.length (elements_of_profile c.prof))
    cx.cx_original_elements (Array.length cx.cx_script)
    cx.cx_original_entries cx.cx_replays
    (concat_map "," Faults.injection_to_string c.prof.injections)
    (concat_map "," (fun (p, k) -> Printf.sprintf "%d:%d" p k) c.prof.crashes)
    (concat_map ","
       (fun (p, at, dur) -> Printf.sprintf "%d:%d:%d" p at dur)
       c.prof.stalls)
    c.fault_seed cx.cx_violations (cx_to_string cx)

(* ------------------------------------------------------------------ *)
(* The campaign                                                         *)
(* ------------------------------------------------------------------ *)

type cell = {
  cell_impl : Campaign.impl;
  cell_profile : profile;
  runs : int;
  flagged : int;
  stuck : int;
  faults_fired : int;
  counterexample : counterexample option;
}

type report = {
  cells : cell list;
  total_runs : int;
  total_flagged : int;
  total_stuck : int;
}

let case_of (cfg : config) impl prof i =
  {
    impl;
    prof;
    components = cfg.components;
    readers = cfg.readers;
    writes_per_writer = cfg.writes_per_writer;
    scans_per_reader = cfg.scans_per_reader;
    fault_seed = cfg.base_seed + i;
  }

let run ?(jobs = 1) ?pool ?metrics cfg =
  (* Flatten the {impl × profile × seed} sweep into one task list so the
     pool can shard it: task [t] is seed index [t mod seeds] of cell
     [t / seeds].  Each task is a fully independent simulation run;
     minimization is deferred to the sequential merge below so that
     "first failing seed of each cell" means the same thing at every
     job count. *)
  let cells_spec =
    List.concat_map
      (fun impl -> List.map (fun prof -> (impl, prof)) cfg.profiles)
      cfg.impls
    |> Array.of_list
  in
  let ncells = Array.length cells_spec in
  let results, workers =
    Exec.Pool.map_workers ~jobs ?recorder:pool
      ~label:(fun t ->
        let impl, prof = cells_spec.(t / cfg.seeds) in
        Printf.sprintf "%s/%s seed=%d" (Campaign.impl_name impl) prof.label
          (cfg.base_seed + (t mod cfg.seeds)))
      ~worker:Obs.Metrics.create
      (ncells * cfg.seeds)
      (fun m t ->
        let impl, prof = cells_spec.(t / cfg.seeds) in
        let i = t mod cfg.seeds in
        let case = case_of cfg impl prof i in
        (* Alternate uniform-random and starvation scheduling so every
           cell sees both kinds of adversary. *)
        let policy =
          if i mod 2 = 0 then Schedule.Random case.fault_seed
          else Schedule.Starving case.fault_seed
        in
        let r = exec ~max_steps:cfg.max_steps case (Record policy) in
        Obs.Metrics.observe
          (Obs.Metrics.histogram m "chaos.schedule_entries")
          (Array.length r.schedule);
        r)
  in
  let cells =
    List.init ncells (fun ci ->
        let impl, prof = cells_spec.(ci) in
        let flagged = ref 0 in
        let stuck = ref 0 in
        let fired = ref 0 in
        let cx = ref None in
        for i = 0 to cfg.seeds - 1 do
          let r = results.((ci * cfg.seeds) + i) in
          fired := !fired + r.fired;
          (match r.outcome with
          | Passed | Diverged _ -> ()
          | Stuck_run _ -> incr stuck
          | Flagged _ -> incr flagged);
          if !cx = None && cfg.minimize_budget > 0 && outcome_failed r.outcome
            (* Minimization replays via Scripted, so only schedules
               that replay deterministically qualify; recorded
               schedules always do. *)
          then
            cx :=
              Some
                (minimize ~budget:cfg.minimize_budget
                   (case_of cfg impl prof i)
                   ~script:r.schedule)
        done;
        {
          cell_impl = impl;
          cell_profile = prof;
          runs = cfg.seeds;
          flagged = !flagged;
          stuck = !stuck;
          faults_fired = !fired;
          counterexample = !cx;
        })
  in
  let report =
    {
      cells;
      total_runs = List.fold_left (fun a c -> a + c.runs) 0 cells;
      total_flagged = List.fold_left (fun a c -> a + c.flagged) 0 cells;
      total_stuck = List.fold_left (fun a c -> a + c.stuck) 0 cells;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "chaos.runs" report.total_runs;
    c "chaos.flagged" report.total_flagged;
    c "chaos.stuck" report.total_stuck;
    c "chaos.faults_fired"
      (List.fold_left (fun a cl -> a + cl.faults_fired) 0 cells);
    c "chaos.minimize_replays"
      (List.fold_left
         (fun a cl ->
           a
           + Option.fold ~none:0 ~some:(fun cx -> cx.cx_replays)
               cl.counterexample)
         0 cells));
  report

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-18s %-18s runs=%-4d flagged=%-4d stuck=%-4d faults-fired=%d@,"
        (Campaign.impl_name c.cell_impl)
        c.cell_profile.label c.runs c.flagged c.stuck c.faults_fired)
    r.cells;
  Format.fprintf fmt "total: runs=%d flagged=%d stuck=%d@]" r.total_runs
    r.total_flagged r.total_stuck
