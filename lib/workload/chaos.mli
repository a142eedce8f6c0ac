(** Chaos campaigns: linearizability checking under injected faults,
    with automatic counterexample minimization.

    A chaos campaign sweeps {implementation × fault profile × seed},
    running the standard writers/readers workload in the simulator with

    - faulty base memory (via {!Csim.Faults}: lost writes, stuck-at
      cells, stuttered duplicate writes, read corruption, and the
      regular-register new/old-inversion weakening),
    - process faults (halting crashes and stall/resume freezes, via
      [Sim.run ~crashes ~stalls]), and
    - adversarial scheduling ([Schedule.Random] and the starvation
      policy [Schedule.Starving], alternating by seed),

    and judging every completed history with the Shrinking-Lemma
    oracle ([History.Shrinking]).  The point is robustness of the
    reproduction itself: on atomic memory the paper's constructions
    must pass {e every} profile that only breaks processes (crash,
    stall) — that is the theorem — while profiles that break the
    {e memory} assumption must be caught by the oracle, exactly as the
    deliberately-wrong implementations are.

    Judging: for profiles with crashes, the victim's dangling Write is
    first completed ({!Resilience.complete_dangling}) and residual
    [Integrity] violations — artifacts of writes left half-published by
    a crash — are excused, as in the resilience sweep.  Everything else
    counts.

    The record → judge → minimize → replay pipeline is
    {!Fault_campaign}'s: chaos elements (injections, crashes, stalls)
    shrink first, then the schedule, and a counterexample prints as
    [impl=... c=... r=... writes=... scans=... fault-seed=... label=...
    faults=... crashes=... stalls=... script=...], which the [chaos]
    CLI subcommand re-executes with [--replay]. *)

open Csim

(** {2 Fault profiles} *)

type profile = {
  label : string;
  injections : Faults.injection list;  (** faulty-memory wrappers *)
  crashes : (int * int) list;  (** halting failures, per [Sim.run] *)
  stalls : (int * int * int) list;  (** stall/resume faults, per [Sim.run] *)
}

val profile :
  ?injections:Faults.injection list ->
  ?crashes:(int * int) list ->
  ?stalls:(int * int * int) list ->
  string ->
  profile

val faulty_memory : profile -> bool
(** True iff the profile perturbs the memory itself (such profiles may
    legitimately be flagged even for correct implementations). *)

val default_profiles : components:int -> readers:int -> profile list
(** The standard taxonomy: [none]; crash and stall variants aimed at
    writer 0 and the last reader; and one profile per memory-fault
    kind. *)

(** {2 Campaign} *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seeds : int;  (** runs per (impl, profile) *)
  base_seed : int;
  max_steps : int;  (** step budget per run (bounds Stuck detection) *)
  minimize_budget : int;
      (** candidates the minimizer may judge per counterexample, cache
          answers included ({!Fault_campaign.ddmin}); [0] disables
          minimization *)
}

val default : config

val render_outcome : Fault_campaign.outcome -> string
(** {!Fault_campaign.render_outcome}. *)

(** A self-contained, replayable case: everything needed to re-execute
    one run, given its schedule. *)
type case = {
  impl : Campaign.impl;
  prof : profile;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  fault_seed : int;  (** seed of the {!Faults.wrap} PRNG *)
}

type tally = { faults_fired : int  (** memory faults that triggered *) }

include
  Fault_campaign.S
    with type profile := profile
     and type config := config
     and type case := case
     and type tally := tally
(** With [metrics], {!run} books counters [chaos.runs], [chaos.flagged],
    [chaos.stuck], [chaos.faults_fired], [chaos.minimize_replays] and
    histogram [chaos.schedule_entries]. *)
