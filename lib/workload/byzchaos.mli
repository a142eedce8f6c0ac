(** Byzantine survive/break campaigns across the full stack.

    The composite snapshot constructions run over
    {!Registers.Byzantine.memory} — the f-tolerant SWMR-from-SWSR
    construction — whose base cells are actively faulty
    ({!Csim.Faults} Byzantine kinds: equivocation, timestamp
    regression, budgeted lying adversaries).  The campaign asserts the
    tolerance boundary from both sides:

    - {e survive} profiles keep the adversary within the construction's
      budget (at most [f] lying base cells per link) and every history
      must check out clean;
    - {e break} profiles exceed the budget, or remove the protective
      layer entirely (the unprotected stack), and the Shrinking oracle
      must catch the regression.

    The Byzantine substrate of {!Fault_campaign}, beside {!Chaos}
    (benign memory and process faults) and {!Netchaos} (network
    faults): the engine records, judges and delta-debugs the runs —
    over the adversary's injections, then the schedule — and prints
    each minimized counterexample as a one-line script for
    [byz --replay].  No crash excuses: all Shrinking conditions must
    hold.  On top of the engine's report this module checks the
    survive/break boundary ({!as_expected}, {!boundary_holds}). *)

type protection =
  | Unprotected
      (** the impls run directly over the faulty memory — the stack the
          construction is supposed to make unnecessary to trust *)
  | Tolerant of int
      (** [Registers.Byzantine.memory ~f] sits between the faulty
          memory and the impls *)

type expectation = Survive | Break

type profile = {
  label : string;
  protection : protection;
  injections : Csim.Faults.injection list;  (** the adversary *)
  expect : expectation;
      (** which side of the tolerance boundary this profile
          demonstrates *)
}

val profile :
  ?protection:protection ->
  expect:expectation ->
  string ->
  Csim.Faults.injection list ->
  profile
(** [protection] defaults to [Tolerant 1]. *)

val protection_label : protection -> string

val default_profiles : components:int -> readers:int -> profile list
(** The default sweep over [f] and misbehavior profiles: budgeted
    adversaries at [f] and [f = 2] (masked), per-replica equivocation /
    regression / targeted drops (masked), every link into the first
    scanning reader lying (caught), and the unprotected stack
    (caught). *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
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
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  fault_seed : int;
}

val stack_description : case -> string
(** The active fault stack of a case, outermost first — e.g.
    ["byzantine(f=1,ports=4) over byz:1:1 over sim"] ({!Csim.Faults.describe}
    composed with the protection layer). *)

type tally = {
  faults_fired : int;
  cells_claimed : int;
      (** base cells owned by budgeted adversaries, summed over runs *)
}

include
  Fault_campaign.S
    with type profile := profile
     and type config := config
     and type case := case
     and type tally := tally
(** The protection layer is part of the case and is never minimized
    away — it names the construction under accusation.  Scripts read
    [impl=... prot=... c=... r=... writes=... scans=... fault-seed=...
    label=... faults=... script=...].  The report's [total:] line ends
    with [boundary=holds] or [boundary=VIOLATED].  With [metrics],
    {!run} books counters [byz.runs], [byz.flagged], [byz.stuck],
    [byz.faults_fired], [byz.cells_claimed], [byz.minimize_replays],
    histograms [byz.schedule_entries] and [byzchaos.scan.latency] /
    [byzchaos.update.latency]. *)

val as_expected : cell -> bool
(** [Survive] rows stayed clean / [Break] rows were caught. *)

val boundary_holds : report -> bool
(** Every cell matched its profile's side. *)
