(** Verification campaigns for the sharded serving layer, static and
    elastic (experiments E17 and E22, correctness side).

    Each run is one service lifetime ({!stress}): a fresh {!Serve.t}
    with its applier domains, driven by the multicore stress harness
    (one domain per writer and reader, synchronous updates through the
    unified handle) while, when [schedule] is non-empty, a reconfigurer
    domain walks it through {!Serve.reshard} so that epoch switches land
    in the middle of the load.  The recorded history goes to the
    Shrinking checker and, for small configurations, the generic
    Wing–Gong oracle; the service's counters must pass
    {!Serve.check_identities}.

    Two mutants must be flagged.  [validate = false] with [cache] is the
    blind cache: it lives here, not in {!Serve}, as a wrapper over the
    service's handle that caches each reader's first scan and returns it
    on every later scan without revalidating.  [migrate = false] is the
    publish-before-migrate reshard ({!Serve.create}'s [~migrate]): each
    new shard map ships the previous epoch's boundary, so acknowledged
    writes vanish at the switch.  A failing schedule is delta-debugged
    ({!Fault_campaign.ddmin}) down to a minimal step sequence that still
    fails. *)

type config = {
  outer : Serve.outer_impl;  (** outer-register construction *)
  shards : int;  (** initial shard count (clamped to [1..components]) *)
  schedule : int list;
      (** reshard steps: target shard counts, walked in order (clamped
          to [1..components]); [[]] is a static service *)
  components : int;
  readers : int;
  writer_ops : int;  (** synchronous updates per writer domain *)
  reader_ops : int;  (** scans per reader domain *)
  runs : int;  (** service lifetimes to stress *)
  validate : bool;
      (** cache freshness checks; [false] with [cache] = the blind-cache
          mutant *)
  cache : bool;
  combine : bool;  (** scan-sharing ([false] = pre-combining baseline) *)
  migrate : bool;  (** [false] = the publish-before-migrate mutant *)
  check_generic : bool;
      (** also run the exponential Wing–Gong oracle (requires small
          histories) *)
  minimize_budget : int;
      (** lifetimes ddmin may spend shrinking a failing [schedule]; [0]
          disables minimization *)
}

val default : config
(** A static service: 2 shards, 4 components, 2 readers, 4 ops per
    process, 5 lifetimes, every optimization on, minimization budget
    40. *)

type result = {
  runs : int;
  ops_checked : int;  (** operations across all runs *)
  epochs_completed : int;  (** sum of final epochs over all runs *)
  flagged_runs : int;  (** runs with at least one Shrinking violation *)
  generic_failures : int;  (** runs the generic oracle rejected *)
  accounting_failures : int;
      (** runs whose counters failed {!Serve.check_identities} *)
  example : string option;  (** rendering of one flagged history *)
  minimized : int list option;
      (** ddmin-shrunk reshard schedule, present iff some run failed,
          [schedule] is non-empty and [minimize_budget > 0] *)
}

val failures : result -> int
(** [flagged_runs + generic_failures + accounting_failures]. *)

val stress :
  ?pace_stalls:int Atomic.t ->
  ?handle:int Composite.Snapshot.t ->
  int Serve.t ->
  schedule:int list ->
  writer_ops:int ->
  reader_ops:int ->
  init:int array ->
  int History.Snapshot_history.t
(** One service lifetime: start [srv], stress it with one writer domain
    per component and {!Serve.readers} reader domains through [handle]
    (default {!Serve.handle}) while a reconfigurer domain, spawned only
    when [schedule <> []], reshards it through [schedule]; then shut it
    down and return the recorded history.  [init] must be the service's
    initial contents.

    Cached scans are orders of magnitude cheaper than synchronous
    updates, so unpaced readers would finish before the first write and
    leave nothing concurrent to check.  Each scan therefore waits for
    another applied write or an epoch switch, and once every write is
    done, for the next switch or the end of the schedule; each reshard
    waits for another applied write, so every closed epoch has a write
    in it.  With [schedule = []] this is plain pacing on writer
    progress.  Waits back off ({!Serve.Backoff}); waves at the cap bump
    [pace_stalls]. *)

val run :
  ?jobs:int -> ?pool:Exec.Pool.recorder -> ?metrics:Obs.Metrics.t ->
  config -> result
(** Farm [runs] service lifetimes over [jobs] pool domains (each run
    additionally spawns its own applier/writer/reader domains) and
    merge outcomes in run-index order, so — as with {!Campaign.run} —
    clean campaigns report bit-identically at every job count.  Raises
    [Invalid_argument] if [components], [readers] or [runs] is below 1,
    or [writer_ops] or [reader_ops] is negative.

    When [metrics] is given, per-run serve totals accumulate into the
    [serve.*] counters ({!Serve.observe}), pacing stalls into
    [serve_campaign.pace.stalls], the blind cache's reuses into
    [serve_campaign.blind_hits], history sizes into histogram
    [serve_campaign.ops_per_run], and the result into counters
    [serve_campaign.runs], [serve_campaign.ops_checked],
    [serve_campaign.epochs], [serve_campaign.flagged_runs],
    [serve_campaign.generic_failures] and
    [serve_campaign.accounting_failures]. *)
