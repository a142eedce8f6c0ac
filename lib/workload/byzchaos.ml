open Csim

(* Byzantine survive/break campaigns across the full stack: run the
   composite snapshot constructions over [Registers.Byzantine.memory]
   (the f-tolerant SWMR-from-SWSR construction) whose base cells are
   actively faulty ([Csim.Faults] Byzantine kinds), and assert the
   tolerance boundary from both sides —

   - within tolerance (at most f lying base cells per link) every
     history must check out clean: the construction masks the lies;
   - beyond tolerance (f+1 concentrated liars) or with the Byzantine
     layer removed entirely (the unprotected stack), the Shrinking
     oracle must catch the regression, and the failure is delta-debugged
     to a minimal replayable counterexample exactly as in [Chaos].

   Mirrors [Chaos]/[Netchaos] in shape: record -> judge -> ddmin ->
   one-line replay script. *)

(* ------------------------------------------------------------------ *)
(* Profiles                                                             *)
(* ------------------------------------------------------------------ *)

type protection =
  | Unprotected  (* impls run directly over the faulty memory *)
  | Tolerant of int  (* Registers.Byzantine.memory ~f in between *)

type expectation = Survive | Break

type profile = {
  label : string;
  protection : protection;
  injections : Faults.injection list;
  expect : expectation;
}

let profile ?(protection = Tolerant 1) ~expect label injections =
  { label; protection; injections; expect }

let protection_label = function
  | Unprotected -> "none"
  | Tolerant f -> Printf.sprintf "f=%d" f

(* The default sweep over f and misbehavior profiles.  Survive rows
   keep the adversary within the construction's budget: at most [f]
   faulty base cells per link, placed either by the budgeted [Byzantine]
   adversary (claims in allocation order, so it concentrates on the
   first link) or by targeting the [.repK] replica groups of
   [Registers.Byzantine] cell names.  Break rows exceed the budget —
   every replica of every link into the first scanning reader lies —
   or drop the protective layer entirely. *)
let default_profiles ~components ~readers:_ =
  let all kind = [ { Faults.kind; target = Faults.All } ] in
  let at sub kind = [ { Faults.kind; target = Faults.Contains sub } ] in
  (* Reader ports are process ids; the first scanning reader is process
     [components].  Every link delivering to it has a cell name
     containing "<port>.rep" ("...w2rP.repK" or "...rIrP.repK"). *)
  let first_reader_links = Printf.sprintf "%d.rep" components in
  [
    profile "byz1-masked" ~expect:Survive
      (all (Faults.Byzantine { f = 1; prob = 1.0 }));
    profile "byz2-masked-f2" ~protection:(Tolerant 2) ~expect:Survive
      (all (Faults.Byzantine { f = 2; prob = 1.0 }));
    profile "equivocate-rep0" ~expect:Survive
      (at ".rep0" (Faults.Equivocate { prob = 1.0 }));
    profile "regress-rep0" ~expect:Survive
      (at ".rep0" (Faults.Regress { prob = 1.0 }));
    profile "drops-rep0" ~expect:Survive
      (at ".rep0" (Faults.Lost_write { prob = 0.6 }));
    profile "regress-reader" ~expect:Break
      (at first_reader_links (Faults.Regress { prob = 1.0 }));
    profile "unprotected" ~protection:Unprotected ~expect:Break
      (all (Faults.Byzantine { f = 1; prob = 1.0 }));
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
    impls = [ Campaign.Impl_anderson; Campaign.Impl_afek ];
    profiles = default_profiles ~components:2 ~readers:2;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seeds = 6;
    base_seed = 1;
    (* Every register access fans out over (2f+1)-replicated links, so
       byz runs are an order of magnitude heavier than plain chaos. *)
    max_steps = 400_000;
    minimize_budget = 1_200;
  }

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
  outcome : Chaos.outcome;
  schedule : int array;  (* scheduler picks, in order (record mode only) *)
  fired : int;  (* faults that actually triggered *)
  cells_claimed : int;  (* base cells the budgeted adversary owns *)
}

type mode = Record of Schedule.t | Replay of int array

(* Name the active stack for failure reports, outermost layer first:
   e.g. "byzantine(f=1,ports=4) over byz:1:1 over sim". *)
let stack_description (case : case) =
  let faulty =
    Faults.stack_label ~layers:[ case.prof.injections ] ~base:"sim"
  in
  match case.prof.protection with
  | Unprotected -> faulty
  | Tolerant f ->
    Printf.sprintf "byzantine(f=%d,ports=%d) over %s" f
      (case.components + case.readers)
      faulty

let exec ?metrics ~max_steps (case : case) mode =
  let env = Sim.create ~trace:false () in
  let base = Memory.of_sim env in
  let who () = try Sim.self () with Sim.Not_in_simulation -> 0 in
  let stack =
    Faults.wrap_over ~seed:case.fault_seed ~who case.prof.injections
      (Faults.stack ~base:"sim" base)
  in
  let counters = Faults.counters stack in
  let mem =
    match case.prof.protection with
    | Unprotected -> stack.Faults.mem
    | Tolerant f ->
      (* Every process — writers included, since their updates embed
         collects — needs a reader port, so the construction is sized
         for all of them. *)
      Registers.Byzantine.memory ~f
        ~readers:(case.components + case.readers)
        stack.Faults.mem
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
      cells_claimed = counters.Faults.byz_cells;
    }
  in
  match Sim.run env ~policy ~max_steps procs with
  | exception Sim.Stuck msg -> finish (Chaos.Stuck_run msg)
  | exception Schedule.Bad_script msg -> finish (Chaos.Diverged msg)
  | (_ : Sim.stats) ->
    (* No crashes here, so no dangling-operation excuses: every
       Shrinking condition must hold on the full history. *)
    let h = Composite.Snapshot.history rec_ in
    Option.iter
      (fun m -> Campaign.observe_op_latencies m ~prefix:"byzchaos" h)
      metrics;
    let violations = History.Shrinking.check ~equal:Int.equal h in
    finish
      (if violations = [] then Chaos.Passed else Chaos.Flagged violations)

let replay case ~script =
  (exec ~max_steps:default.max_steps case (Replay script)).outcome

(* ------------------------------------------------------------------ *)
(* Counterexample minimization                                          *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  cx_case : case;
  cx_script : int array;
  cx_violations : string;
  cx_stack : string;  (* the active fault stack of the minimized case *)
  cx_original_entries : int;
  cx_original_elements : int;
  cx_replays : int;
}

let minimize ~budget case ~script =
  (* The protection layer is the variant under test and is never
     dropped — removing it would change which construction stands
     accused.  The adversary's injections and the schedule shrink. *)
  let same_kind reference o =
    match (reference, o) with
    | Chaos.Flagged _, Chaos.Flagged _ -> true
    | Chaos.Stuck_run _, Chaos.Stuck_run _ -> true
    | _ -> false
  in
  let reference = replay case ~script in
  if not (Chaos.outcome_failed reference) then
    invalid_arg "Byzchaos.minimize: the given case does not fail under replay";
  let original = case.prof.injections in
  let injections, spent1 =
    Chaos.ddmin ~budget
      ~test:(fun injections ->
        let prof = { case.prof with injections } in
        same_kind reference (replay { case with prof } ~script))
      original
  in
  let case = { case with prof = { case.prof with injections } } in
  let entries, spent2 =
    Chaos.ddmin
      ~budget:(max 0 (budget - spent1))
      ~test:(fun entries ->
        same_kind reference (replay case ~script:(Array.of_list entries)))
      (Array.to_list script)
  in
  let cx_script = Array.of_list entries in
  {
    cx_case = case;
    cx_script;
    cx_violations = Chaos.render_outcome (replay case ~script:cx_script);
    cx_stack = stack_description case;
    cx_original_entries = Array.length script;
    cx_original_elements = List.length original;
    cx_replays = spent1 + spent2;
  }

(* ------------------------------------------------------------------ *)
(* Replayable one-line scripts                                          *)
(* ------------------------------------------------------------------ *)

let concat_map sep f xs = String.concat sep (List.map f xs)

let protection_to_string = function
  | Unprotected -> "none"
  | Tolerant f -> string_of_int f

let protection_of_string = function
  | "none" -> Some Unprotected
  | s -> (
    match int_of_string_opt s with
    | Some f when f >= 0 -> Some (Tolerant f)
    | _ -> None)

let cx_to_string cx =
  let c = cx.cx_case in
  Printf.sprintf
    "impl=%s prot=%s c=%d r=%d writes=%d scans=%d fault-seed=%d label=%s \
     faults=%s script=%s"
    (Campaign.impl_name c.impl)
    (protection_to_string c.prof.protection)
    c.components c.readers c.writes_per_writer c.scans_per_reader c.fault_seed
    c.prof.label
    (concat_map "," Faults.injection_to_string c.prof.injections)
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
    | None -> Error (Printf.sprintf "byz replay script: missing %s=" name)
  in
  let int_field name =
    let* v = req name in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None ->
      Error (Printf.sprintf "byz replay script: %s=%S is not an integer" name v)
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
  let* impl_s = req "impl" in
  let* impl =
    match Campaign.impl_of_name impl_s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "byz replay script: unknown impl %S" impl_s)
  in
  let* protection =
    let* v = req "prot" in
    match protection_of_string v with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "byz replay script: bad prot %S" v)
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
  let* script =
    list_field "script" (fun tok ->
        match int_of_string_opt tok with
        | Some n -> Ok n
        | None ->
          Error (Printf.sprintf "byz replay script: bad script entry %S" tok))
  in
  let cx_case =
    {
      impl;
      prof = { label; protection; injections; expect = Break };
      components;
      readers;
      writes_per_writer;
      scans_per_reader;
      fault_seed;
    }
  in
  Ok
    {
      cx_case;
      cx_script = Array.of_list script;
      cx_violations = "";
      cx_stack = stack_description cx_case;
      cx_original_entries = List.length script;
      cx_original_elements = List.length injections;
      cx_replays = 0;
    }

let pp_counterexample fmt cx =
  let c = cx.cx_case in
  Format.fprintf fmt
    "@[<v>minimized counterexample: impl=%s profile=%s@,\
     fault stack: %s@,\
     adversary elements: %d (from %d)  schedule entries: %d (from %d)  \
     minimizer replays: %d@,\
     faults=[%s] fault-seed=%d@,\
     violations of the minimized run:@,%s@,\
     replay with:@,  byz --replay '%s'@]"
    (Campaign.impl_name c.impl) c.prof.label cx.cx_stack
    (List.length c.prof.injections)
    cx.cx_original_elements (Array.length cx.cx_script)
    cx.cx_original_entries cx.cx_replays
    (concat_map "," Faults.injection_to_string c.prof.injections)
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
  cells_claimed : int;
  as_expected : bool;
      (* Survive rows stayed clean / Break rows were caught *)
  counterexample : counterexample option;
}

type report = {
  cells : cell list;
  total_runs : int;
  total_flagged : int;
  total_stuck : int;
  boundary_holds : bool;  (* every cell matched its profile's side *)
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
        Printf.sprintf "byz %s/%s seed=%d" (Campaign.impl_name impl) prof.label
          (cfg.base_seed + (t mod cfg.seeds)))
      ~worker:Obs.Metrics.create
      (ncells * cfg.seeds)
      (fun m t ->
        let impl, prof = cells_spec.(t / cfg.seeds) in
        let i = t mod cfg.seeds in
        let case = case_of cfg impl prof i in
        (* Alternate uniform-random and starvation scheduling, exactly
           as the shared-memory chaos campaign does. *)
        let policy =
          if i mod 2 = 0 then Schedule.Random case.fault_seed
          else Schedule.Starving case.fault_seed
        in
        let r = exec ~metrics:m ~max_steps:cfg.max_steps case (Record policy) in
        Obs.Metrics.observe
          (Obs.Metrics.histogram m "byz.schedule_entries")
          (Array.length r.schedule);
        r)
  in
  (* Sequential merge in cell-and-seed order, minimizing the first
     failing seed of each cell — deterministic at every job count. *)
  let cells =
    List.init ncells (fun ci ->
        let impl, prof = cells_spec.(ci) in
        let flagged = ref 0 in
        let stuck = ref 0 in
        let fired = ref 0 in
        let claimed = ref 0 in
        let cx = ref None in
        for i = 0 to cfg.seeds - 1 do
          let r = results.((ci * cfg.seeds) + i) in
          fired := !fired + r.fired;
          claimed := !claimed + r.cells_claimed;
          (match r.outcome with
          | Chaos.Passed | Chaos.Diverged _ -> ()
          | Chaos.Stuck_run _ -> incr stuck
          | Chaos.Flagged _ -> incr flagged);
          if
            !cx = None && cfg.minimize_budget > 0
            && Chaos.outcome_failed r.outcome
          then
            cx :=
              Some
                (minimize ~budget:cfg.minimize_budget
                   (case_of cfg impl prof i)
                   ~script:r.schedule)
        done;
        let as_expected =
          match prof.expect with
          | Survive -> !flagged = 0 && !stuck = 0
          | Break -> !flagged > 0
        in
        {
          cell_impl = impl;
          cell_profile = prof;
          runs = cfg.seeds;
          flagged = !flagged;
          stuck = !stuck;
          faults_fired = !fired;
          cells_claimed = !claimed;
          as_expected;
          counterexample = !cx;
        })
  in
  let report =
    {
      cells;
      total_runs = List.fold_left (fun a c -> a + c.runs) 0 cells;
      total_flagged = List.fold_left (fun a c -> a + c.flagged) 0 cells;
      total_stuck = List.fold_left (fun a c -> a + c.stuck) 0 cells;
      boundary_holds = List.for_all (fun c -> c.as_expected) cells;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "byz.runs" report.total_runs;
    c "byz.flagged" report.total_flagged;
    c "byz.stuck" report.total_stuck;
    c "byz.faults_fired"
      (List.fold_left (fun a cl -> a + cl.faults_fired) 0 cells);
    c "byz.cells_claimed"
      (List.fold_left (fun a cl -> a + cl.cells_claimed) 0 cells);
    c "byz.minimize_replays"
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
      Format.fprintf fmt
        "%-18s %-18s prot=%-5s expect=%-7s runs=%-3d flagged=%-3d stuck=%-3d \
         fired=%-5d claimed=%-3d %s@,"
        (Campaign.impl_name c.cell_impl)
        c.cell_profile.label
        (protection_label c.cell_profile.protection)
        (match c.cell_profile.expect with
        | Survive -> "survive"
        | Break -> "break")
        c.runs c.flagged c.stuck c.faults_fired c.cells_claimed
        (if c.as_expected then "ok" else "UNEXPECTED"))
    r.cells;
  Format.fprintf fmt "total: runs=%d flagged=%d stuck=%d boundary=%s@]"
    r.total_runs r.total_flagged r.total_stuck
    (if r.boundary_holds then "holds" else "VIOLATED")
