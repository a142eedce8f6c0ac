type config = {
  outer : Serve.outer_impl;
  shards : int;
  components : int;
  readers : int;
  writer_ops : int;
  reader_ops : int;
  runs : int;
  validate : bool;
  cache : bool;
  combine : bool;
  check_generic : bool;
}

let default =
  {
    outer = Serve.Outer_afek;
    shards = 2;
    components = 4;
    readers = 2;
    writer_ops = 4;
    reader_ops = 4;
    runs = 5;
    validate = true;
    cache = true;
    combine = true;
    check_generic = true;
  }

type result = {
  runs : int;
  ops_checked : int;
  flagged_runs : int;
  generic_failures : int;
  accounting_failures : int;
  example : string option;
}

type run_outcome = {
  ro_ops : int;
  ro_flagged : bool;
  ro_generic_fail : bool;
  ro_accounting_fail : bool;
  ro_example : string option;
}

(* The blind-cache mutant, outside the service: each reader's first
   scan goes to [h], and every later one returns that same snapshot
   without revalidating it — the stale reads the checkers must flag.
   [hits] counts the blind reuses. *)
let blind_cache hits (h : int Composite.Snapshot.t) =
  let caches = Array.make h.Composite.Snapshot.readers None in
  let scan_items ~reader =
    match caches.(reader) with
    | Some snap ->
      Atomic.incr hits;
      Array.copy snap
    | None ->
      let snap = h.Composite.Snapshot.scan_items ~reader in
      caches.(reader) <- Some snap;
      Array.copy snap
  in
  { h with Composite.Snapshot.scan_items }

(* One service lifetime: build, start the appliers, stress with writer
   and reader domains, stop, check the recorded history.  Self-contained
   and so safe to farm across pool domains (each run's own domains are
   nested under the pool worker's). *)
let run_one worker_metrics (cfg : config) (_ : int) =
  let init = Array.init cfg.components (fun k -> (k + 1) * 10) in
  let srv =
    Serve.create ~outer:cfg.outer ~cache:cfg.cache ~combine:cfg.combine
      ~shards:cfg.shards ~readers:cfg.readers ~init ()
  in
  let blind_hits = Atomic.make 0 in
  let handle =
    if cfg.cache && not cfg.validate then
      blind_cache blind_hits (Serve.handle srv)
    else Serve.handle srv
  in
  Serve.start srv;
  (* Cached scans are orders of magnitude cheaper than synchronous
     updates (mailbox -> applier -> publish -> ack), so unpaced reader
     domains would finish every scan before the first write completes
     and the checkers would see no concurrency at all.  Pace each scan
     on writer progress: start it only once another write has been
     applied (or all writes are done), so scans are spread across the
     whole write activity — which is also what makes the
     validation-disabled mutant reliably observable. *)
  let total_writes = cfg.components * cfg.writer_ops in
  let applied () = (Serve.stats srv).Serve.applied in
  (* Bounded exponential backoff instead of a bare relax loop: if an
     applier domain is descheduled mid-campaign the pacing readers back
     off instead of spinning flat out, and the waves that hit the cap
     are counted so the stall is visible in the worker metrics. *)
  let pace_stalls = Atomic.make 0 in
  let reader_pace () =
    let before = applied () in
    let b = Serve.Backoff.make pace_stalls in
    while before < total_writes && applied () = before do
      Serve.Backoff.once b
    done
  in
  let h =
    Composite.Multicore.stress ~reader_pace
      ~config:
        {
          Composite.Multicore.writer_ops = cfg.writer_ops;
          reader_ops = cfg.reader_ops;
          readers = cfg.readers;
        }
      ~init ~handle ()
  in
  Serve.shutdown srv;
  Serve.observe srv worker_metrics;
  let c name by =
    Obs.Metrics.incr ~by (Obs.Metrics.counter worker_metrics name)
  in
  c "serve_campaign.pace.stalls" (Atomic.get pace_stalls);
  c "serve_campaign.blind_hits" (Atomic.get blind_hits);
  (* The raw-speed identities must hold exactly at quiescence: every
     post applied or coalesced, every scan request either combined or
     performed (and the outer register paid only for the performed
     ones). *)
  let st = Serve.stats srv in
  let accounting_ok =
    st.Serve.posted = st.Serve.applied + st.Serve.coalesced
    && st.Serve.pending = 0
    && st.Serve.scans_requested
       = st.Serve.scans_combined + st.Serve.scans_performed
    && st.Serve.full_scans = st.Serve.scans_performed
    && (cfg.combine || st.Serve.scans_combined = 0)
  in
  let ops = History.Snapshot_history.size h in
  Obs.Metrics.observe
    (Obs.Metrics.histogram worker_metrics "serve_campaign.ops_per_run")
    ops;
  (* Latencies in multicore ticks (the stress clock): how many other
     operations started/finished while this one was in flight. *)
  Campaign.observe_op_latencies worker_metrics ~prefix:"serve_campaign" h;
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
    ro_flagged = not shrinking_ok;
    ro_generic_fail = not generic_ok;
    ro_accounting_fail = not accounting_ok;
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

let run ?(jobs = 1) ?pool ?metrics (cfg : config) =
  if cfg.runs < 1 then invalid_arg "Serve_campaign.run: runs must be >= 1";
  let outcomes, workers =
    Exec.Pool.map_workers ~jobs ?recorder:pool
      ~label:(fun i -> Printf.sprintf "serve run %d (S=%d)" i cfg.shards)
      ~worker:Obs.Metrics.create cfg.runs
      (fun m i -> run_one m cfg i)
  in
  (* Index-ordered merge, as in {!Campaign.run}: totals and the example
     choice are independent of the job count. *)
  let flagged = ref 0 in
  let generic_failures = ref 0 in
  let accounting_failures = ref 0 in
  let ops = ref 0 in
  let example = ref None in
  Array.iter
    (fun o ->
      ops := !ops + o.ro_ops;
      if o.ro_flagged then begin
        incr flagged;
        if !example = None then example := o.ro_example
      end;
      if o.ro_generic_fail then incr generic_failures;
      if o.ro_accounting_fail then incr accounting_failures)
    outcomes;
  let result =
    {
      runs = cfg.runs;
      ops_checked = !ops;
      flagged_runs = !flagged;
      generic_failures = !generic_failures;
      accounting_failures = !accounting_failures;
      example = !example;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "serve_campaign.runs" result.runs;
    c "serve_campaign.ops_checked" result.ops_checked;
    c "serve_campaign.flagged_runs" result.flagged_runs;
    c "serve_campaign.generic_failures" result.generic_failures;
    c "serve_campaign.accounting_failures" result.accounting_failures);
  result

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>runs: %d@,operations checked: %d@,runs flagged by Shrinking \
     checker: %d@,runs rejected by generic oracle: %d@,runs with broken \
     counter identities: %d@]"
    r.runs r.ops_checked r.flagged_runs r.generic_failures
    r.accounting_failures
