(** Randomized and bounded-exhaustive verification campaigns
    (experiment E6).

    A campaign runs a composite-register implementation in the simulator
    over many schedules, recording every history and checking it with
    the Shrinking Lemma checker, the witness construction, and (for
    small histories) the generic linearizability oracle.  For the
    paper's construction every schedule must pass; for the unsafe
    double collect the campaign must catch violations. *)

type impl =
  | Impl_anderson
  | Impl_afek
  | Impl_unsafe_collect
  | Impl_repeated_collect

val impl_name : impl -> string
val impl_of_name : string -> impl option
val all_impls : impl list

val make_handle :
  ?note:(string -> unit) ->
  ?bits_per_value:int ->
  impl -> Csim.Memory.t -> readers:int -> init:int array ->
  int Composite.Snapshot.t
(** Instantiate an implementation on the given memory, as a unified
    {!Composite.Composite_intf.t} handle.  [note] is passed through to
    implementations that emit operation-span markers (only the paper's
    construction does today); see [Composite.Anderson.create].
    [bits_per_value] (default 64) is the declared register width, for
    space accounting in the simulator. *)

val procs :
  int Composite.Snapshot.recorded ->
  components:int ->
  readers:int ->
  writes:int ->
  scans:int ->
  (unit -> unit) array
(** The writers/readers workload every campaign runs: process
    [k < components] is writer [k], whose [s]-th Write has input
    [(k+1)*1000 + s] and (for every implementation in the repo) id [s],
    which {!Resilience.complete_dangling} relies on; every other process
    Scans [scans] times. *)

val workload :
  ?note:(string -> unit) ->
  clock:(unit -> int) ->
  impl ->
  Csim.Memory.t ->
  components:int ->
  readers:int ->
  writes:int ->
  scans:int ->
  int Composite.Snapshot.recorded * (unit -> unit) array
(** {!procs} over a fresh recorded handle whose component [k] starts at
    [(k+1)*10]; [note] goes to {!make_handle} and the recorder. *)

type config = {
  impl : impl;
  backend : Backend.t;
      (** Execution substrate, from the {!Backend} registry: ["shm"]
          (seeded simulator interleavings), ["net"] (ABD quorums over
          the simulated network, seeded delivery orders) or
          ["multicore"] (real domains over [Atomic.t] registers). *)
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  schedules : int;  (** number of random seeds to run *)
  base_seed : int;
  check_generic : bool;
      (** also run the exponential Wing–Gong oracle (requires small
          histories) *)
}

val default : config

val observe_op_latencies :
  Obs.Metrics.t -> prefix:string -> 'a History.Snapshot_history.t -> unit
(** Feed every recorded operation's [res - inv] latency (in the
    recording harness's logical clock) into [<prefix>.scan.latency] /
    [<prefix>.update.latency] histograms.  Campaigns call this with
    their backend name so the SLO layer ({!Obs.Slo}) sees one
    comparable latency class per backend. *)

type result = {
  runs : int;
  ops_checked : int;  (** operations across all runs *)
  flagged_runs : int;  (** runs with at least one Shrinking violation *)
  generic_failures : int;  (** runs the generic oracle rejected *)
  witness_failures : int;  (** runs where witness construction failed *)
  stuck_runs : int;  (** runs exceeding the step budget (wait-freedom) *)
  disagreements : int;
      (** runs where Shrinking said "ok" but the oracle said "not
          linearizable" — must always be 0 (soundness of the lemma) *)
  example : string option;  (** rendering of one flagged history *)
}

val run :
  ?jobs:int -> ?pool:Exec.Pool.recorder -> ?metrics:Obs.Metrics.t ->
  config -> result
(** Run the campaign.

    [jobs] (default 1) schedules are farmed over that many domains via
    {!Exec.Pool}; results are keyed by schedule index and merged in
    index order, so the returned record — including which flagged run
    supplies [example] — is identical for every job count.  [pool]
    records per-schedule worker spans for the Chrome trace exporter.
    With the ["multicore"] backend, individual runs are scheduled by
    the hardware rather than a seed; every operation is still recorded
    and checked, so for histories the checkers accept (the expected
    case for correct implementations) the merged record remains
    bit-identical across job counts.

    When [metrics] is given, the result is also accumulated into
    counters [campaign.runs], [campaign.ops_checked],
    [campaign.flagged_runs], [campaign.generic_failures],
    [campaign.witness_failures], [campaign.stuck_runs] and
    [campaign.disagreements], and per-run history sizes into histogram
    [campaign.ops_per_run] (additive across calls).  With the ["net"]
    backend, network totals accumulate too: counters
    [net.msgs_sent] / [net.msgs_delivered] / [net.msgs_lost] /
    [net.timeouts] / [net.rounds] / [net.retransmits] and the
    quorum-phase latency histogram [net.phase_wait].  Workers observe
    into private registries that are {!Obs.Metrics.merge}d at the join,
    so the metrics too are independent of [jobs]. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Bounded-exhaustive exploration} *)

type exhaustive_result = {
  ex_runs : int;
  ex_exhaustive : bool;  (** all interleavings were covered *)
  ex_flagged : int;  (** schedules on which a checker failed *)
  ex_first_failure : string option;
}

val exhaustive :
  ?max_runs:int -> impl:impl -> components:int -> readers:int ->
  writes_per_writer:int -> scans_per_reader:int -> unit ->
  exhaustive_result
(** Enumerates {e every} interleaving (up to [max_runs], default
    200_000) of the given tiny configuration, checking the Shrinking
    conditions on each. *)
