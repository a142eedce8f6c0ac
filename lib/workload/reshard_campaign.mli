(** Verification campaign for live resharding (elastic sharding of the
    {!Serve} layer on real domains).

    Each run is one service lifetime: writer and reader domains hammer
    the served composite register while a reconfigurer domain walks
    [schedule] — a list of target shard counts — through
    {!Serve.reshard}, so epoch switches land in the middle of open-loop
    load.  Every recorded history is checked with the Shrinking Lemma
    and (when small enough) the Wing–Gong generic oracle, and the
    per-epoch counter identities of {!Serve.epoch_stats} must close
    exactly:

    - per epoch, [posted + carried_in = applied + coalesced +
      carried_out] and the scan analog with in-flight requests;
    - no negative delta anywhere (a negative carry means a counter was
      double-bumped across the boundary);
    - the final epoch closes with zero carried and in-flight work.

    [migrate = false] runs the {e publish-before-migrate} mutant: the
    reshard publishes each new shard map with the {e previous} epoch's
    boundary snapshot, so acknowledged writes vanish at the switch —
    campaigns over it must flag violations ({!result.flagged_runs} >
    0).  A failing schedule is delta-debugged with
    {!Fault_campaign.ddmin} down to a minimal step sequence that still
    fails. *)

type config = {
  outer : Serve.outer_impl;
  shards : int;  (** initial shard count *)
  schedule : int list;
      (** reshard steps: target shard counts, walked in order (clamped
          to [1..components]) *)
  components : int;
  readers : int;
  writer_ops : int;
  reader_ops : int;
  runs : int;  (** service lifetimes *)
  migrate : bool;  (** [false] = publish-before-migrate mutant *)
  check_generic : bool;
  minimize_budget : int;
      (** ddmin re-runs allowed when a schedule fails; [0] disables
          minimization *)
}

val default : config
(** 2 initial shards growing/shrinking through [4 -> 1 -> 3], 4
    components, 5 lifetimes, migration on. *)

type result = {
  runs : int;
  ops_checked : int;
  epochs_completed : int;  (** sum of final epochs over all runs *)
  flagged_runs : int;
  generic_failures : int;
  accounting_failures : int;
  example : string option;
  minimized : int list option;
      (** ddmin-shrunk reshard schedule, present iff some run failed
          and [minimize_budget > 0] *)
}

val run :
  ?jobs:int -> ?pool:Exec.Pool.recorder -> ?metrics:Obs.Metrics.t ->
  config -> result
(** Run [config.runs] lifetimes, farmed over [jobs] pool domains.
    Totals merge in run-index order, so counts are independent of the
    job count.  [metrics] additionally receives the served layer's
    [serve.*] counters and [reshard_campaign.*] totals. *)

val pp_result : Format.formatter -> result -> unit
