open Csim

type impl =
  | Impl_anderson
  | Impl_afek
  | Impl_unsafe_collect
  | Impl_repeated_collect

let impl_name = function
  | Impl_anderson -> "anderson"
  | Impl_afek -> "afek"
  | Impl_unsafe_collect -> "unsafe-collect"
  | Impl_repeated_collect -> "repeated-collect"

let all_impls =
  [ Impl_anderson; Impl_afek; Impl_unsafe_collect; Impl_repeated_collect ]

let impl_of_name s =
  List.find_opt (fun i -> String.equal (impl_name i) s) all_impls

let make_handle ?note ?(bits_per_value = 64) impl mem ~readers ~init =
  let h =
    match impl with
    | Impl_anderson ->
      Composite.Anderson.handle
        (Composite.Anderson.create ?note mem ~readers ~bits_per_value ~init)
    | Impl_afek -> Composite.Afek.create mem ~bits_per_value ~init
    | Impl_unsafe_collect ->
      Composite.Double_collect.create_unsafe mem ~bits_per_value ~init
    | Impl_repeated_collect ->
      Composite.Double_collect.create_repeated mem ~bits_per_value ~init
  in
  (* Implementations that support any number of readers advertise
     [max_int]; pin the actual count so process-id arithmetic in the
     recording wrapper stays sane. *)
  if h.Composite.Snapshot.readers = max_int then
    { h with Composite.Snapshot.readers }
  else h

type config = {
  impl : impl;
  backend : Backend.t;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  schedules : int;
  base_seed : int;
  check_generic : bool;
}

let default =
  {
    impl = Impl_anderson;
    backend = Backend.shm;
    components = 3;
    readers = 2;
    writes_per_writer = 3;
    scans_per_reader = 3;
    schedules = 100;
    base_seed = 1;
    check_generic = true;
  }

type result = {
  runs : int;
  ops_checked : int;
  flagged_runs : int;
  generic_failures : int;
  witness_failures : int;
  stuck_runs : int;
  disagreements : int;
  example : string option;
}

let procs rec_ ~components ~readers ~writes ~scans =
  Array.init (components + readers) (fun i () ->
      if i < components then
        for s = 1 to writes do
          rec_.Composite.Snapshot.rupdate ~writer:i (((i + 1) * 1000) + s)
        done
      else
        for _ = 1 to scans do
          ignore (rec_.Composite.Snapshot.rscan ~reader:(i - components))
        done)

let workload ?note ~clock impl mem ~components ~readers ~writes ~scans =
  let init = Array.init components (fun k -> (k + 1) * 10) in
  let handle = make_handle ?note impl mem ~readers ~init in
  let rec_ = Composite.Snapshot.record ?note ~clock ~initial:init handle in
  (rec_, procs rec_ ~components ~readers ~writes ~scans)

(* One seeded schedule, end to end: simulate, collect the history, run
   every checker.  Self-contained (its own [Sim.create]) and so safe to
   farm across domains; [ro_example] is rendered eagerly because the
   parallel merge has no way to go back and ask for it. *)
type run_outcome = {
  ro_stuck : bool;
  ro_ops : int;
  ro_flagged : bool;
  ro_generic_fail : bool;
  ro_witness_fail : bool;
  ro_disagreement : bool;
  ro_example : string option;
}

let stuck_outcome =
  {
    ro_stuck = true;
    ro_ops = 0;
    ro_flagged = false;
    ro_generic_fail = false;
    ro_witness_fail = false;
    ro_disagreement = false;
    ro_example = None;
  }

(* Per-op latencies out of a recorded history: res - inv in the
   harness's logical clock (scheduler steps for shm/byz, network ticks
   for net, atomic ticks for multicore).  Shared by every campaign
   flavor so each backend grows a comparable scan/update latency
   histogram for the SLO layer. *)
let observe_op_latencies m ~prefix (h : _ History.Snapshot_history.t) =
  let scan = Obs.Metrics.histogram m (prefix ^ ".scan.latency") in
  let update = Obs.Metrics.histogram m (prefix ^ ".update.latency") in
  List.iter
    (fun (w : _ History.Snapshot_history.write) ->
      Obs.Metrics.observe update (w.wres - w.winv))
    h.History.Snapshot_history.writes;
  List.iter
    (fun (r : _ History.Snapshot_history.read) ->
      Obs.Metrics.observe scan (r.rres - r.rinv))
    h.History.Snapshot_history.reads

let outcome_of_history worker_metrics cfg ~init h =
    let ops = History.Snapshot_history.size h in
    Obs.Metrics.observe
      (Obs.Metrics.histogram worker_metrics "campaign.ops_per_run")
      ops;
    observe_op_latencies worker_metrics
      ~prefix:("campaign." ^ cfg.backend.Backend.name)
      h;
    let violations = History.Shrinking.check ~equal:Int.equal h in
    let shrinking_ok = violations = [] in
    let witness_ok =
      match History.Shrinking.witness ~equal:Int.equal h with
      | Ok _ -> true
      | Error _ -> false
    in
    let generic_ok =
      if not cfg.check_generic then true
      else
        match
          History.Linearize.check
            (History.Linearize.snapshot_spec ~equal:Int.equal)
            ~init
            (History.Snapshot_history.to_ops h)
        with
        | History.Linearize.Linearizable _ -> true
        | History.Linearize.Not_linearizable -> false
        | History.Linearize.Too_large -> true (* skipped *)
    in
    {
      ro_stuck = false;
      ro_ops = ops;
      ro_flagged = not shrinking_ok;
      ro_generic_fail = not generic_ok;
      ro_witness_fail = shrinking_ok && not witness_ok;
      ro_disagreement = shrinking_ok && not generic_ok;
      ro_example =
        (if shrinking_ok then None
         else
           Some
             (Format.asprintf "%a@.%a"
                (Format.pp_print_list History.Shrinking.pp_violation)
                violations
                (History.Snapshot_history.pp string_of_int)
                h));
    }

(* Real parallelism: the handle sits on [Atomic.t] registers and the
   stress harness runs one domain per process.  The schedule index
   seeds nothing (the hardware interleaves), but every operation is
   recorded, so for histories the checkers accept — the expected case
   for the correct constructions — the outcome record is deterministic
   and the campaign result still merges bit-identically across [jobs]. *)
let run_one_domains worker_metrics cfg _i =
  let init = Array.init cfg.components (fun k -> (k + 1) * 10) in
  let handle =
    make_handle cfg.impl (Memory.atomic ()) ~readers:cfg.readers ~init
  in
  let h =
    Composite.Multicore.stress
      ~config:
        {
          Composite.Multicore.writer_ops = cfg.writes_per_writer;
          reader_ops = cfg.scans_per_reader;
          readers = cfg.readers;
        }
      ~init ~handle ()
  in
  outcome_of_history worker_metrics cfg ~init h

(* One schedule on any simulated substrate.  The backend descriptor is
   the whole story: it provisions the memory, the clock, the seeded
   driver and the metrics hook — the campaign no longer knows what the
   registers are made of, so a backend registered out of tree runs
   under the exact same code path as the built-ins. *)
let run_one worker_metrics cfg i =
  match cfg.backend.Backend.provision with
  | Backend.Domains -> run_one_domains worker_metrics cfg i
  | Backend.Simulated provision ->
    let seed = cfg.base_seed + i in
    let inst =
      provision ~metrics:worker_metrics ~seed
        ~procs:(cfg.components + cfg.readers)
    in
    let init = Array.init cfg.components (fun k -> (k + 1) * 10) in
    let rec_, procs =
      workload ~clock:inst.Backend.clock cfg.impl inst.Backend.memory
        ~components:cfg.components ~readers:cfg.readers
        ~writes:cfg.writes_per_writer ~scans:cfg.scans_per_reader
    in
    let outcome =
      match inst.Backend.drive procs with
      | Backend.Stuck_run -> stuck_outcome
      | Backend.Completed ->
        outcome_of_history worker_metrics cfg ~init
          (Composite.Snapshot.history rec_)
    in
    inst.Backend.observe worker_metrics;
    outcome

let run ?(jobs = 1) ?pool ?metrics cfg =
  let outcomes, workers =
    Exec.Pool.map_workers ~jobs ?recorder:pool
      ~label:(fun i -> Printf.sprintf "sched seed=%d" (cfg.base_seed + i))
      ~worker:Obs.Metrics.create cfg.schedules
      (fun m i -> run_one m cfg i)
  in
  (* The merge walks outcomes in schedule-index order, so the totals —
     and in particular which flagged run supplies [example] — are the
     same for every job count. *)
  let flagged = ref 0 in
  let generic_failures = ref 0 in
  let witness_failures = ref 0 in
  let stuck = ref 0 in
  let disagreements = ref 0 in
  let ops = ref 0 in
  let example = ref None in
  Array.iter
    (fun o ->
      if o.ro_stuck then incr stuck;
      ops := !ops + o.ro_ops;
      if o.ro_flagged then begin
        incr flagged;
        if !example = None then example := o.ro_example
      end;
      if o.ro_generic_fail then incr generic_failures;
      if o.ro_witness_fail then incr witness_failures;
      if o.ro_disagreement then incr disagreements)
    outcomes;
  let result =
    {
      runs = cfg.schedules;
      ops_checked = !ops;
      flagged_runs = !flagged;
      generic_failures = !generic_failures;
      witness_failures = !witness_failures;
      stuck_runs = !stuck;
      disagreements = !disagreements;
      example = !example;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "campaign.runs" result.runs;
    c "campaign.ops_checked" result.ops_checked;
    c "campaign.flagged_runs" result.flagged_runs;
    c "campaign.generic_failures" result.generic_failures;
    c "campaign.witness_failures" result.witness_failures;
    c "campaign.stuck_runs" result.stuck_runs;
    c "campaign.disagreements" result.disagreements);
  result

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>runs: %d@,operations checked: %d@,runs flagged by Shrinking \
     checker: %d@,runs rejected by generic oracle: %d@,witness failures: \
     %d@,stuck (non-wait-free) runs: %d@,checker disagreements: %d@]"
    r.runs r.ops_checked r.flagged_runs r.generic_failures r.witness_failures
    r.stuck_runs r.disagreements

(* ------------------------------------------------------------------ *)
(* Bounded-exhaustive                                                   *)
(* ------------------------------------------------------------------ *)

type exhaustive_result = {
  ex_runs : int;
  ex_exhaustive : bool;
  ex_flagged : int;
  ex_first_failure : string option;
}

exception Flagged of string

let exhaustive ?(max_runs = 200_000) ~impl ~components ~readers
    ~writes_per_writer ~scans_per_reader () =
  let flagged = ref 0 in
  let first_failure = ref None in
  let factory () =
    let env = Sim.create ~trace:false () in
    let rec_, procs =
      workload ~clock:(fun () -> Sim.now env) impl (Memory.of_sim env)
        ~components ~readers ~writes:writes_per_writer ~scans:scans_per_reader
    in
    let check (_ : Sim.env) =
      let h = Composite.Snapshot.history rec_ in
      match History.Shrinking.check ~equal:Int.equal h with
      | [] -> ()
      | violations ->
        raise
          (Flagged
             (Format.asprintf "%a"
                (Format.pp_print_list History.Shrinking.pp_violation)
                violations))
    in
    (env, procs, check)
  in
  let runs, exhaustive =
    match Sim.explore ~max_runs factory with
    | exploration -> (exploration.Sim.runs, exploration.Sim.exhaustive)
    | exception Sim.Exploration_failure { exn = Flagged msg; _ } ->
      incr flagged;
      if !first_failure = None then first_failure := Some msg;
      (* Exploration aborts on its first failing schedule. *)
      (0, false)
    | exception Sim.Exploration_failure { exn; _ } -> raise exn
  in
  {
    ex_runs = runs;
    ex_exhaustive = exhaustive;
    ex_flagged = !flagged;
    ex_first_failure = !first_failure;
  }
