(* Verification campaign for live resharding: each run is one service
   lifetime in which writer and reader domains hammer the handle while
   a reconfigurer domain walks a schedule of shard counts through
   {!Serve.reshard}.  Every recorded history is checked by the
   Shrinking Lemma and (bounded) the Wing–Gong oracle, and the
   per-epoch counter identities must close exactly at quiescence.  In
   mutant mode ([migrate = false]) the service publishes each new shard
   map with the previous epoch's boundary — acknowledged writes vanish
   at the epoch switch, and the campaign must flag it.  A flagged
   schedule is delta-debugged ({!Fault_campaign.ddmin}) down to a
   minimal sequence of reshard steps that still fails. *)

type config = {
  outer : Serve.outer_impl;
  shards : int;  (* initial shard count *)
  schedule : int list;  (* reshard steps: target shard counts, in order *)
  components : int;
  readers : int;
  writer_ops : int;
  reader_ops : int;
  runs : int;
  migrate : bool;  (* false = publish-before-migrate mutant *)
  check_generic : bool;
  minimize_budget : int;  (* ddmin re-runs for a flagged schedule; 0 = off *)
}

let default =
  {
    outer = Serve.Outer_afek;
    shards = 2;
    schedule = [ 4; 1; 3 ];
    components = 4;
    readers = 2;
    writer_ops = 4;
    reader_ops = 4;
    runs = 5;
    migrate = true;
    check_generic = true;
    minimize_budget = 40;
  }

type result = {
  runs : int;
  ops_checked : int;
  epochs_completed : int;
  flagged_runs : int;
  generic_failures : int;
  accounting_failures : int;
  example : string option;
  minimized : int list option;
      (* shrunk reshard schedule of the first flagged run *)
}

type run_outcome = {
  ro_ops : int;
  ro_epochs : int;
  ro_flagged : bool;
  ro_generic_fail : bool;
  ro_accounting_fail : bool;
  ro_example : string option;
}

(* The per-epoch identities, checked over every epoch of a finished
   lifetime: posts and scans are conserved across epoch boundaries
   (carried/in-flight work is handed over, never dropped or double
   counted), no delta is negative, and the final epoch closes with
   nothing left in flight. *)
let epoch_accounting_ok srv =
  let eps = Serve.epoch_stats srv in
  let per_epoch_ok (e : Serve.epoch_stats) =
    e.Serve.e_posted >= 0 && e.Serve.e_applied >= 0 && e.Serve.e_coalesced >= 0
    && e.Serve.e_publishes >= 0
    && e.Serve.e_carried_in >= 0
    && e.Serve.e_carried_out >= 0
    && e.Serve.e_scans_requested >= 0
    && e.Serve.e_scans_combined >= 0
    && e.Serve.e_scans_performed >= 0
    && e.Serve.e_inflight_in >= 0
    && e.Serve.e_inflight_out >= 0
    && e.Serve.e_posted + e.Serve.e_carried_in
       = e.Serve.e_applied + e.Serve.e_coalesced + e.Serve.e_carried_out
    && e.Serve.e_scans_requested + e.Serve.e_inflight_in
       = e.Serve.e_scans_combined + e.Serve.e_scans_performed
         + e.Serve.e_inflight_out
  in
  let last = eps.(Array.length eps - 1) in
  let st = Serve.stats srv in
  Array.for_all per_epoch_ok eps
  && last.Serve.e_carried_out = 0
  && last.Serve.e_inflight_out = 0
  && st.Serve.pending = 0
  && st.Serve.posted = st.Serve.applied + st.Serve.coalesced
  && st.Serve.scans_requested
     = st.Serve.scans_combined + st.Serve.scans_performed

(* One lifetime under a given reshard schedule; shared by the campaign
   proper and the ddmin re-runs. *)
let run_schedule ?metrics (cfg : config) ~schedule =
  let init = Array.init cfg.components (fun k -> (k + 1) * 10) in
  let clamp s = max 1 (min cfg.components s) in
  let schedule = List.map clamp schedule in
  let shards = clamp cfg.shards in
  let max_shards = List.fold_left max shards schedule in
  let srv =
    Serve.create ~outer:cfg.outer ~migrate:cfg.migrate ~max_shards ~shards
      ~readers:cfg.readers ~init ()
  in
  Serve.start srv;
  (* Pace on writer progress: wait until another write has been applied
     (or every write is done, or the load has stopped).  Scans are paced
     as in {!Serve_campaign} — unpaced reader domains would drain all
     their cached scans before the first write lands and the checkers
     would see no concurrency.  Reshards are paced too, so every closed
     epoch has a write applied in it: unpaced, the reconfigurer could
     walk the whole schedule before the first writer domain ran, leaving
     the publish-before-migrate mutant nothing to drop (about a third of
     mutant lifetimes passed clean). *)
  let total_writes = cfg.components * cfg.writer_ops in
  let applied () = (Serve.stats srv).Serve.applied in
  let pace_stalls = Atomic.make 0 in
  let stop = Atomic.make false in
  let pace () =
    let before = applied () in
    let b = Serve.Backoff.make pace_stalls in
    while
      before < total_writes && applied () = before && not (Atomic.get stop)
    do
      Serve.Backoff.once b
    done
  in
  let reconfigurer =
    Domain.spawn (fun () ->
        List.iter
          (fun s ->
            if not (Atomic.get stop) then begin
              pace ();
              Serve.reshard srv ~shards:s
            end)
          schedule)
  in
  let h =
    Composite.Multicore.stress ~reader_pace:pace
      ~config:
        {
          Composite.Multicore.writer_ops = cfg.writer_ops;
          reader_ops = cfg.reader_ops;
          readers = cfg.readers;
        }
      ~init ~handle:(Serve.handle srv) ()
  in
  Atomic.set stop true;
  Domain.join reconfigurer;
  Serve.shutdown srv;
  (match metrics with
  | None -> ()
  | Some m ->
    Serve.observe srv m;
    Obs.Metrics.incr
      ~by:(Atomic.get pace_stalls)
      (Obs.Metrics.counter m "reshard_campaign.pace.stalls"));
  (srv, init, h)

let outcome_of_run (cfg : config) (srv, init, h) =
  let ops = History.Snapshot_history.size h in
  let violations = History.Shrinking.check ~equal:Int.equal h in
  let shrinking_ok = violations = [] in
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
    ro_ops = ops;
    ro_epochs = Serve.epoch srv;
    ro_flagged = not shrinking_ok;
    ro_generic_fail = not generic_ok;
    ro_accounting_fail = not (epoch_accounting_ok srv);
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

let run_one worker_metrics (cfg : config) (_ : int) =
  outcome_of_run cfg (run_schedule ~metrics:worker_metrics cfg ~schedule:cfg.schedule)

(* Does [schedule] still fail?  Used as the ddmin predicate: a real
   epoch-boundary bug (the mutant) reproduces on nearly every lifetime,
   so a single re-run per candidate is enough for a useful shrink. *)
let still_fails (cfg : config) schedule =
  let o = outcome_of_run cfg (run_schedule cfg ~schedule) in
  o.ro_flagged || o.ro_generic_fail || o.ro_accounting_fail

let run ?(jobs = 1) ?pool ?metrics (cfg : config) =
  if cfg.runs < 1 then invalid_arg "Reshard_campaign.run: runs must be >= 1";
  let outcomes, workers =
    Exec.Pool.map_workers ~jobs ?recorder:pool
      ~label:(fun i ->
        Printf.sprintf "reshard run %d (S=%d, %d steps)" i cfg.shards
          (List.length cfg.schedule))
      ~worker:Obs.Metrics.create cfg.runs
      (fun m i -> run_one m cfg i)
  in
  (* Index-ordered merge, as in {!Campaign.run}: totals and the example
     choice are independent of the job count. *)
  let flagged = ref 0 in
  let generic_failures = ref 0 in
  let accounting_failures = ref 0 in
  let epochs = ref 0 in
  let ops = ref 0 in
  let example = ref None in
  Array.iter
    (fun o ->
      ops := !ops + o.ro_ops;
      epochs := !epochs + o.ro_epochs;
      if o.ro_flagged then begin
        incr flagged;
        if !example = None then example := o.ro_example
      end;
      if o.ro_generic_fail then incr generic_failures;
      if o.ro_accounting_fail then incr accounting_failures)
    outcomes;
  let any_failure =
    !flagged > 0 || !generic_failures > 0 || !accounting_failures > 0
  in
  let minimized =
    if (not any_failure) || cfg.minimize_budget <= 0 || cfg.schedule = [] then
      None
    else
      let shrunk, (_ : int) =
        Fault_campaign.ddmin ~budget:cfg.minimize_budget
          ~test:(fun s -> still_fails cfg s)
          cfg.schedule
      in
      Some shrunk
  in
  let result =
    {
      runs = cfg.runs;
      ops_checked = !ops;
      epochs_completed = !epochs;
      flagged_runs = !flagged;
      generic_failures = !generic_failures;
      accounting_failures = !accounting_failures;
      example = !example;
      minimized;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "reshard_campaign.runs" result.runs;
    c "reshard_campaign.ops_checked" result.ops_checked;
    c "reshard_campaign.epochs" result.epochs_completed;
    c "reshard_campaign.flagged_runs" result.flagged_runs;
    c "reshard_campaign.generic_failures" result.generic_failures;
    c "reshard_campaign.accounting_failures" result.accounting_failures);
  result

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>runs: %d@,operations checked: %d@,epochs completed: %d@,runs \
     flagged by Shrinking checker: %d@,runs rejected by generic oracle: \
     %d@,runs with broken epoch accounting: %d%a@]"
    r.runs r.ops_checked r.epochs_completed r.flagged_runs r.generic_failures
    r.accounting_failures
    (fun fmt -> function
      | None -> ()
      | Some s ->
        Format.fprintf fmt "@,minimized schedule: %s"
          (String.concat "->" (List.map string_of_int s)))
    r.minimized
