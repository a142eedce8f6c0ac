(** Verification campaigns for the sharded serving layer
    (experiment E17's correctness side).

    Each run builds a fresh {!Serve.t}, starts its applier domains,
    drives it with the multicore stress harness (one domain per writer
    and reader, synchronous updates through the unified handle), stops
    it, and feeds the recorded history to the Shrinking checker — and,
    for small configurations, the generic Wing–Gong oracle.  Serving
    the scans through the validated cache must be invisible to both;
    disabling validation ([validate = false] with [cache = true]) is
    the mutant the checkers must flag.  The mutant lives here, not in
    {!Serve}: it wraps the service's handle, caches each reader's first
    scan and returns it on every later scan without revalidating. *)

type config = {
  outer : Serve.outer_impl;  (** outer-register construction *)
  shards : int;
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
  check_generic : bool;
      (** also run the exponential Wing–Gong oracle (requires small
          histories) *)
}

val default : config

type result = {
  runs : int;
  ops_checked : int;  (** operations across all runs *)
  flagged_runs : int;  (** runs with at least one Shrinking violation *)
  generic_failures : int;  (** runs the generic oracle rejected *)
  accounting_failures : int;
      (** runs where a counter identity broke at quiescence
          ([posted = applied + coalesced], [pending = 0],
          [requested = combined + performed],
          [full_scans = performed], and [combined = 0] when combining
          is off) *)
  example : string option;  (** rendering of one flagged history *)
}

val run :
  ?jobs:int -> ?pool:Exec.Pool.recorder -> ?metrics:Obs.Metrics.t ->
  config -> result
(** Farm [runs] service lifetimes over [jobs] pool domains (each run
    additionally spawns its own applier/writer/reader domains) and
    merge outcomes in run-index order, so — as with {!Campaign.run} —
    clean campaigns report bit-identically at every job count.

    When [metrics] is given, per-run serve totals accumulate into the
    [serve.*] counters ({!Serve.observe}), the mutant's blind cache
    reuses into [serve_campaign.blind_hits], history sizes into histogram
    [serve_campaign.ops_per_run], and the result into counters
    [serve_campaign.runs], [serve_campaign.ops_checked],
    [serve_campaign.flagged_runs], [serve_campaign.generic_failures]
    and [serve_campaign.accounting_failures]. *)

val pp_result : Format.formatter -> result -> unit
