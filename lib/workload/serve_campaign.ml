type config = {
  outer : Serve.outer_impl;
  shards : int;
  schedule : int list;
  components : int;
  readers : int;
  writer_ops : int;
  reader_ops : int;
  runs : int;
  validate : bool;
  cache : bool;
  combine : bool;
  migrate : bool;
  check_generic : bool;
  minimize_budget : int;
}

let default =
  {
    outer = Serve.Outer_afek;
    shards = 2;
    schedule = [];
    components = 4;
    readers = 2;
    writer_ops = 4;
    reader_ops = 4;
    runs = 5;
    validate = true;
    cache = true;
    combine = true;
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
}

let failures r = r.flagged_runs + r.generic_failures + r.accounting_failures

type run_outcome = {
  ro_ops : int;
  ro_epochs : int;
  ro_flagged : bool;
  ro_generic_fail : bool;
  ro_accounting_fail : bool;
  ro_example : string option;
}

let ro_failed o = o.ro_flagged || o.ro_generic_fail || o.ro_accounting_fail

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

let stress ?(pace_stalls = Atomic.make 0) ?handle srv ~schedule ~writer_ops
    ~reader_ops ~init =
  let handle = Option.value handle ~default:(Serve.handle srv) in
  Serve.start srv;
  let total_writes = Serve.components srv * writer_ops in
  let applied () = (Serve.stats srv).Serve.applied in
  let stop = Atomic.make false in
  let schedule_done = Atomic.make (schedule = []) in
  (* Back off rather than spin: if an applier domain is descheduled
     mid-campaign, a spinning waiter burns the CPU it needs.  Waves at
     the cap are counted. *)
  let wait_while waiting =
    let b = Serve.Backoff.make pace_stalls in
    while waiting () do
      Serve.Backoff.once b
    done
  in
  (* A synchronous update drains its own shard as soon as a reshard
     releases the drain tokens, and writers can finish while a reshard
     is still joining the appliers: unpaced on the epoch, scans would
     rarely land between a switch and the next write of a component,
     which is where the publish-before-migrate mutant shows. *)
  let reader_pace () =
    let before = applied () and e = Serve.epoch srv in
    wait_while (fun () ->
        Serve.epoch srv = e
        && (if before < total_writes then applied () = before
            else not (Atomic.get schedule_done)))
  in
  let reshard_pace () =
    let before = applied () in
    wait_while (fun () ->
        before < total_writes && applied () = before && not (Atomic.get stop))
  in
  let reconfigurer =
    if schedule = [] then None
    else
      Some
        (Domain.spawn (fun () ->
             Fun.protect
               ~finally:(fun () -> Atomic.set schedule_done true)
               (fun () ->
                 List.iter
                   (fun s ->
                     if not (Atomic.get stop) then begin
                       reshard_pace ();
                       Serve.reshard srv ~shards:s
                     end)
                   schedule)))
  in
  let h =
    Composite.Multicore.stress ~reader_pace
      ~config:
        {
          Composite.Multicore.writer_ops;
          reader_ops;
          readers = Serve.readers srv;
        }
      ~init ~handle ()
  in
  Atomic.set stop true;
  Option.iter Domain.join reconfigurer;
  Serve.shutdown srv;
  h

(* One service lifetime under [schedule], checked.  Self-contained and
   so safe to farm across pool domains (each run's own domains are
   nested under the pool worker's). *)
let run_one metrics (cfg : config) ~schedule =
  let init = Array.init cfg.components (fun k -> (k + 1) * 10) in
  let clamp s = max 1 (min cfg.components s) in
  let schedule = List.map clamp schedule and shards = clamp cfg.shards in
  let srv =
    Serve.create ~outer:cfg.outer ~cache:cfg.cache ~combine:cfg.combine
      ~migrate:cfg.migrate
      ~max_shards:(List.fold_left max shards schedule)
      ~shards ~readers:cfg.readers ~init ()
  in
  let blind_hits = Atomic.make 0 and pace_stalls = Atomic.make 0 in
  let handle =
    if cfg.cache && not cfg.validate then
      Some (blind_cache blind_hits (Serve.handle srv))
    else None
  in
  let h =
    stress ~pace_stalls ?handle srv ~schedule ~writer_ops:cfg.writer_ops
      ~reader_ops:cfg.reader_ops ~init
  in
  Serve.observe srv metrics;
  let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter metrics name) in
  c "serve_campaign.pace.stalls" (Atomic.get pace_stalls);
  c "serve_campaign.blind_hits" (Atomic.get blind_hits);
  let ops = History.Snapshot_history.size h in
  Obs.Metrics.observe
    (Obs.Metrics.histogram metrics "serve_campaign.ops_per_run")
    ops;
  (* Latencies in multicore ticks (the stress clock): how many other
     operations started/finished while this one was in flight. *)
  Campaign.observe_op_latencies metrics ~prefix:"serve_campaign" h;
  let violations = History.Shrinking.check ~equal:Int.equal h in
  let generic_ok =
    (not cfg.check_generic)
    ||
    match
      History.Linearize.check
        (History.Linearize.snapshot_spec ~equal:Int.equal)
        ~init
        (History.Snapshot_history.to_ops h)
    with
    | History.Linearize.Not_linearizable -> false
    | History.Linearize.Linearizable _ | History.Linearize.Too_large -> true
  in
  {
    ro_ops = ops;
    ro_epochs = Serve.epoch srv;
    ro_flagged = violations <> [];
    ro_generic_fail = not generic_ok;
    ro_accounting_fail = Result.is_error (Serve.check_identities srv);
    ro_example =
      (if violations = [] then None
       else
         Some
           (Format.asprintf "%a@.%a"
              (Format.pp_print_list History.Shrinking.pp_violation)
              violations
              (History.Snapshot_history.pp string_of_int)
              h));
  }

let run ?(jobs = 1) ?pool ?metrics (cfg : config) =
  let at_least what n v =
    if v < n then
      invalid_arg
        (Printf.sprintf "Serve_campaign.run: %s = %d, must be >= %d" what v n)
  in
  at_least "components" 1 cfg.components;
  at_least "readers" 1 cfg.readers;
  at_least "runs" 1 cfg.runs;
  at_least "writer_ops" 0 cfg.writer_ops;
  at_least "reader_ops" 0 cfg.reader_ops;
  let outcomes, workers =
    Exec.Pool.map_workers ~jobs ?recorder:pool
      ~label:(fun i ->
        Printf.sprintf "serve run %d (S=%d, %d steps)" i cfg.shards
          (List.length cfg.schedule))
      ~worker:Obs.Metrics.create cfg.runs
      (fun m (_ : int) -> run_one m cfg ~schedule:cfg.schedule)
  in
  (* Index-ordered merge, as in {!Campaign.run}: totals and the example
     choice are independent of the job count. *)
  let sum f = Array.fold_left (fun n o -> n + f o) 0 outcomes in
  let count p = sum (fun o -> Bool.to_int (p o)) in
  let result =
    {
      runs = cfg.runs;
      ops_checked = sum (fun o -> o.ro_ops);
      epochs_completed = sum (fun o -> o.ro_epochs);
      flagged_runs = count (fun o -> o.ro_flagged);
      generic_failures = count (fun o -> o.ro_generic_fail);
      accounting_failures = count (fun o -> o.ro_accounting_fail);
      example = Array.find_map (fun o -> o.ro_example) outcomes;
      minimized = None;
    }
  in
  (* A real epoch-boundary bug reproduces on nearly every lifetime, so
     one re-run per ddmin candidate is enough for a useful shrink. *)
  let result =
    if failures result = 0 || cfg.minimize_budget <= 0 || cfg.schedule = []
    then result
    else
      let still_fails schedule =
        ro_failed (run_one (Obs.Metrics.create ()) cfg ~schedule)
      in
      let shrunk, (_ : int) =
        Fault_campaign.ddmin ~budget:cfg.minimize_budget ~test:still_fails
          cfg.schedule
      in
      { result with minimized = Some shrunk }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
    c "serve_campaign.runs" result.runs;
    c "serve_campaign.ops_checked" result.ops_checked;
    c "serve_campaign.epochs" result.epochs_completed;
    c "serve_campaign.flagged_runs" result.flagged_runs;
    c "serve_campaign.generic_failures" result.generic_failures;
    c "serve_campaign.accounting_failures" result.accounting_failures);
  result
