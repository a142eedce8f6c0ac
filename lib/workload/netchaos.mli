(** Chaos campaigns for the message-passing backend.

    The network substrate of {!Fault_campaign}: run composite registers
    over the ABD emulation while injecting {e network} faults — message
    loss, adversarial message reordering (a recorded [Random] delivery
    schedule), replica crash-stops, Byzantine replicas — plus one
    deliberately wrong protocol variant (a non-majority quorum) as a
    negative control.  In-model faults (loss, reorder, minority
    crashes) must leave every history clean: that is exactly the fault
    envelope the ABD emulation claims to mask.  The broken quorum voids
    the intersection argument, and the campaign must catch it, minimize
    the failure — over both the fault elements and the {e message
    delivery schedule} — and print a one-line deterministic replay.

    Unlike shared-memory process crashes, replica crashes leave no
    dangling client operations (the emulation retransmits around them),
    so the judge excuses nothing: all Shrinking conditions must hold on
    the full history. *)

type profile = {
  label : string;
  loss : float;  (** per-message loss probability in [0, 1) *)
  crashes : (int * int) list;
      (** [(replica, after_k_messages)] crash-stops; must leave a
          majority alive *)
  byz : (int * Net.Sim.byz_flavor) list;
      (** replicas that {e lie} instead of stopping — forged acks,
          stale-value replies, equivocating quorum responses
          ({!Net.Sim.byz_flavor}); the ABD emulation makes no Byzantine
          claim, so these profiles are expected to be flagged *)
  quorum : int option;
      (** [None] = majority (correct); [Some k] forces
          {!Net.Abd.Fixed}[ k] — non-majority values are the broken
          variant *)
}

val profile :
  ?loss:float ->
  ?crashes:(int * int) list ->
  ?byz:(int * Net.Sim.byz_flavor) list ->
  ?quorum:int ->
  string ->
  profile

val broken_quorum : profile -> bool

val default_profiles : replicas:int -> profile list
(** [none], [loss], [crash-last], [crash+loss] (all of which must stay
    clean) and [broken-quorum] (which must be caught). *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
  replicas : int;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seeds : int;
  base_seed : int;
  max_steps : int;
  minimize_budget : int;
}

val default : config

type case = {
  impl : Campaign.impl;
  prof : profile;
  replicas : int;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seed : int;
}

type run_result = {
  outcome : Fault_campaign.outcome;
  schedule : int array;
      (** network-scheduler picks, in order (record mode only) *)
  net : Net.Sim.stats;
  byz_lies : int;
      (** individual replica misbehaviors, summed over the run *)
  byz_per_replica : (int * int) list;
      (** [(replica, misbehaviors)] in assignment order — the exact
          per-replica account ({!Net.Sim.byz_stats}) *)
}

val run_once :
  ?log:bool ->
  ?metrics:Obs.Metrics.t ->
  ?causal:Obs.Causal.t ->
  case ->
  run_result
(** One recorded [Random case.seed] run of the case, outside any
    campaign.  [metrics] books the history's per-op latencies into
    [netchaos.scan.latency]/[netchaos.update.latency]; [causal] enables
    end-to-end causal tracing (the collector is fed both the composite
    note markers and the ABD instrumentation — see
    {!Net.Abd.create}[ ~causal]).  Tracing does not change the
    schedule: the run's outcome and counters are identical with and
    without it (E19 measures the wall-clock overhead). *)

val export_timeline :
  ?pp:(Net.Sim.payload -> string) -> case -> path:string -> run_result
(** Run one recorded schedule of the case with event logging on and
    write the message timeline ({!Net.Timeline}) to [path]. *)

val export_causal :
  ?pp:(Net.Sim.payload -> string) ->
  case ->
  path:string ->
  run_result * Obs.Causal.t
(** Like {!export_timeline}, but with causal tracing on: writes the
    {e merged} Chrome trace ({!Net.Timeline.export}[ ~causal]) — span
    trees for every composite Scan/Update, ABD op, phase and
    per-replica rpc on the client tracks, message flow arrows joining
    them — and returns the collector for span accounting. *)

type tally = {
  msgs_sent : int;
  msgs_lost : int;
  byz_lies : int;
  byz_per_replica : (int * int) list;  (** summed per replica *)
}

include
  Fault_campaign.S
    with type profile := profile
     and type config := config
     and type case := case
     and type tally := tally
(** The quorum override is part of the case and is never minimized
    away — it names the variant under accusation; loss, each crash and
    each Byzantine replica are the fault elements.  Scripts read
    [impl=... n=... quorum=... c=... r=... writes=... scans=... seed=...
    label=... loss=... crashes=... byz=... script=...] (for
    [net --replay]).  With [metrics], {!run} books counters
    [netchaos.runs], [netchaos.flagged], [netchaos.stuck],
    [netchaos.msgs_sent], [netchaos.msgs_lost], [netchaos.byz_lies] and
    per-replica [netchaos.byz.replicaR], histograms
    [netchaos.schedule_entries] and [netchaos.scan.latency] /
    [netchaos.update.latency]. *)
