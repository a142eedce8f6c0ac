(** The snapshot {e serving} layer: a long-lived, sharded composite
    register with write coalescing, scan-sharing and validated read
    caching.

    The paper's Section 4 recursion builds a [C]-component register out
    of smaller composite registers; this module applies the same move
    horizontally to serve traffic.  [C] components are partitioned
    across [S] {e shards}.  Each shard's state lives in one component
    of an {e outer} composite register (Afek et al. by default — the
    polynomial scan is the hot path; the paper's exponential Anderson
    construction is retained as the differential oracle), so a
    cross-shard Scan is one linearizable scan of the outer register —
    the serving layer is itself literally an [S]-component composite
    register of shard views.  Every register the hot path touches
    (version cells, mailboxes, counters) lives on its own
    cache line ({!Composite.Padded_atomic}).

    {2 Write path}

    Writers never touch the outer register.  A {!post} drops the value
    into the component's {e mailbox} — a single [Atomic.exchange], so
    the handoff is wait-free.  A {e drain} of a shard empties its
    mailboxes, folds the batch into the shard state, and publishes the
    new view with a single outer-register update.  Each shard has one
    {e drain token}, and only its holder may drain the shard: the
    shard's {e applier} domain ({!start}) takes it on every poll,
    {!drain} and {!reshard} take it, and so does a synchronous
    {!update}.  Posts to a component that arrive while an
    earlier post is still in the mailbox {e coalesce}: the mailbox
    keeps only the latest value and the earlier one is counted in the
    coalesce counters.  Because the exchange is atomic, every post is
    either applied or coalesced, exactly once:
    [posted = applied + coalesced + pending].  The mailbox is the only
    write channel: each one has a single writer and is emptied only by
    the holder of its owning shard's token, so a drain is one pass over
    the owned mailboxes with nothing left to arbitrate.  Taking and
    releasing the token hands the shard state, the id counters and the
    outer slot's writer-local state from one drainer to the next.

    The synchronous {!update} (the {!handle} path used by the stress
    harness and checkers) posts and then, until its ticket is
    acknowledged, drains its own shard whenever the shard's token is
    free — it publishes itself instead of waiting for an applier to
    wake.  Acks are written only after the publish, whoever drains, so
    the write is in the outer register when [update] returns, and every
    synchronous write receives an auxiliary id — no write checked by
    the history checkers is ever coalesced away.

    {2 Read path}

    Every shard has a version counter: a plain atomic cell the drainer
    bumps {e before} each publish, and whose current value is also
    embedded in each published view.  A reader caches its last full
    scan together with the version vector it saw.  On the next Scan it
    collects the [S] cells once; if each equals the cached version,
    monotonicity of versions plus bump-before-publish imply every shard
    has held the cached view continuously since before the collect
    began — so the cached snapshot was the exact register state at the
    instant the collect started, a valid linearization point inside the
    Scan's interval.  Otherwise the cache is stale and the reader pays
    the outer register — but not necessarily alone:

    {2 Scan-sharing (flat combining)}

    With [combine] (the default), concurrent readers that all need the
    outer register's state share one collect.  A {e combiner} takes a
    lock, stamps and performs the collect, and publishes the snapshot —
    tagged with its version vector and stamp — in a shared slot.  Other
    readers {e enlist} and adopt a published snapshot in exactly two
    sound ways: {e validated adoption} (a one-collect freshness check
    of the version cells proves the snapshot is the register state
    right now, so the adopter's own collect is its linearization
    point), or {e stamped adoption} (the stamp proves the shared
    collect started after the adopter arrived, so the collect's
    linearization point lies inside the adopter's interval as well).
    Requests, adoptions and self-performed collects are counted
    exactly: [scans_requested = scans_combined + scans_performed], per
    service and per reader ({!reader_stats} — so hot-cell profiles can
    attribute shared collects to their enlisted readers, not just the
    combiner).  The published slot doubles as a service-wide validated
    cache: between publishes, readers with no (or stale) private cache
    adopt it for the price of one cell collect.

    Enlistment is {e bounded}: a reader waiting on an in-flight collect
    spins only a fixed budget of steps before reverting to a private
    collect of its own, so the combiner lock gates who publishes into
    the shared slot, never whether a reader makes progress — scans stay
    wait-free even when a combiner is preempted mid-collect.
    [~combine:false] disables sharing entirely (every cache miss pays
    its own outer scan) and is the differential baseline of experiment
    E20's before/after rows.

    {2 Elastic sharding (epochs)}

    The shard count is no longer fixed for the service's lifetime:
    {!reshard} moves the service from [S] to [S'] shards {e while
    operations are in flight}.  The outer register is the mechanism.
    It has [1 + max_shards] components: component [0] holds the current
    {e configuration} — an epoch number, the component-to-shard map,
    and the {e boundary}, a full [C]-item snapshot of everything
    applied before the epoch began — and component [1+s] holds shard
    [s]'s view, tagged with the epoch it was published under.
    Publishing a new configuration is one outer-register update, so the
    epoch switch is atomic: {e a scan that decodes the new map sees the
    migrated boundary in the same collect}.  A scan decodes component
    [k] from its owning shard's view when that shard has published
    under the configuration's epoch, and from the boundary otherwise
    (the shard has not published since the switch, so its components'
    state is exactly the boundary state).

    A reshard quiesces the closing epoch's appliers, takes every drain
    token, drains, snapshots the boundary, publishes the new
    configuration (bumping the configuration's version cell first, so
    every validated cache and shared snapshot of the old epoch goes
    stale), installs the new layout, bumps the epoch, releases the
    tokens and respawns appliers.  Writers never stop: posts keep
    landing in their components' mailboxes, which the new epoch's
    drainers drain into the new layout, so the
    [posted = applied + coalesced + pending] identity holds {e per
    epoch} (see {!epoch_stats}), with the boundary residue carried into
    the next epoch.

    Passing [~migrate:false] to {!create} produces a deliberately
    broken mutant: {!reshard} publishes the new map but ships the
    {e previous} epoch's boundary — the observable effect of
    publishing the map before migrating state.  Acknowledged writes
    from the closing epoch vanish from scans until their components are
    re-written; the checkers must flag the new-old inversions. *)

(** Bounded exponential backoff for spin waits, shared by every spin
    site in the serving stack (applier idle loop, drain-token waits,
    scan-sharing enlistment) and reusable by campaigns and
    the network edge.  Same shape as the ABD retransmit policy: the
    delay doubles from 1 up to [cap] relaxations per wave and collapses
    back on progress.  Every wave spent {e at} the cap increments the
    supplied stall counter — making stalled waiters observable (the
    service feeds its own counter into {!observe} as [serve.stalls]) —
    and {e yields the OS timeslice} instead of spinning: past the cap
    the waited-on domain is plausibly starved for the very CPU the
    waiter is burning (single-core hosts, oversubscribed pools). *)
module Backoff : sig
  type t

  val default_cap : int
  (** 4096 relaxations per wave. *)

  val make : ?cap:int -> int Atomic.t -> t
  (** [make stalls] starts a fresh backoff; waves that reach [cap]
      (default {!default_cap}) bump [stalls]. *)

  val once : t -> unit
  (** Wait one wave ([delay] times [Domain.cpu_relax]), then double the
      delay up to the cap.  At the cap: count a stall and sleep a few
      tens of microseconds (yielding the OS thread) instead of
      spinning. *)

  val reset : t -> unit
  (** Collapse the delay back to 1 — call on progress. *)

  val stall_count : t -> int
  (** Current value of the backing stall counter. *)
end

type outer_impl = Outer_anderson | Outer_afek

val outer_impl_name : outer_impl -> string
val outer_impl_of_name : string -> outer_impl option

type 'a t

val create :
  ?outer:outer_impl ->
  ?cache:bool ->
  ?combine:bool ->
  ?migrate:bool ->
  ?max_shards:int ->
  ?note:(string -> unit) ->
  shards:int ->
  readers:int ->
  init:'a array ->
  unit ->
  'a t
(** [create ~shards ~readers ~init ()] builds a service with
    [C = Array.length init] components partitioned contiguously across
    [shards] inner slices (sizes differ by at most one), composed via an
    outer register built by [outer] (default [Outer_afek], whose
    polynomial scans suit the outer object) on padded
    atomic registers ({!Composite.Multicore.padded_memory}).

    [max_shards] (default [shards]) caps what {!reshard} may grow to;
    the outer register is created with [1 + max_shards] components, so
    leaving it at the default costs one extra (configuration) component
    over the pre-elastic layout and nothing else.

    [cache] (default [true]) enables per-reader validated caching.
    [combine]
    (default [true]) enables scan-sharing; [~combine:false] preserves
    the pre-combining behavior (every cache miss pays its own outer
    scan).  [migrate] (default [true]): [~migrate:false] is the broken
    resharding mutant — {!reshard} publishes the new shard map without
    the state applied during the closing epoch (see the module
    preamble).

    [note] (default none) receives {!Csim.Trace.span_begin}/[span_end]
    markers ["scan.collect.r<j>"] around a combiner's outer collect,
    ["scan.enlist.r<j>"] around an enlisted reader's wait, and
    ["reshard.e<n>"] around a reconfiguration, so span profiles
    attribute shared collects per reader and reshards per epoch.

    Raises [Invalid_argument] unless
    [1 <= shards <= max_shards <= C] and [readers >= 1]. *)

val components : 'a t -> int

val shards : 'a t -> int
(** Shard count of the {e current} epoch. *)

val max_shards : 'a t -> int
val readers : 'a t -> int

val combining : 'a t -> bool
(** Whether scan-sharing is enabled. *)

val shard_of : 'a t -> int -> int
(** Owning shard of a component. *)

(** {2 Service lifecycle} *)

val start : 'a t -> unit
(** Spawn one applier domain per shard.  Raises [Invalid_argument] if
    already started. *)

val shutdown : 'a t -> unit
(** Stop and join the appliers.  Each applier performs one final drain
    after seeing the stop flag, waiting for its shard's token if needed,
    so posts issued before [shutdown] are still applied.  Callers must
    have stopped issuing operations. *)

(** {2 Reconfiguration} *)

val reshard : 'a t -> shards:int -> unit
(** Move the service to [shards] shards, atomically with respect to
    every concurrent operation (see the module preamble: the epoch
    boundary).  Posts, synchronous updates and scans may be in flight
    throughout; a synchronous {!update} issued during the switch waits
    for the drain tokens, which the reshard holds from its boundary
    sweep until the new layout and epoch are in place, and then
    completes by draining its shard itself in the new epoch.  Works in both
    modes: with appliers running they are quiesced and respawned over
    the new layout; in manual mode ({!drain}) only the layout and epoch
    change.  Serialized with {!start}/{!shutdown} and other reshards.
    Raises [Invalid_argument] unless [1 <= shards <= max_shards]. *)

val epoch : 'a t -> int
(** Current configuration epoch: 0 at creation, +1 per completed
    {!reshard}. *)

val caps : 'a t -> Composite.Composite_intf.caps
(** The service's capability record: [epoch] reads {!epoch},
    [reconfigure] is [Some] and calls {!reshard}.  {!handle} embeds
    it. *)

(** {2 Operations} *)

val post : 'a t -> writer:int -> 'a -> unit
(** Asynchronous write: wait-free mailbox handoff, coalescing bursts to
    the same component down to the latest value.  [writer] is the
    component index (one writer process per component). *)

val update : 'a t -> writer:int -> 'a -> int
(** Synchronous write: posts, then returns the auxiliary id the value
    was assigned once it is published.  Until then the writer drains
    its component's shard itself whenever it can take the shard's
    token, so it never waits on a sleeping applier; if another token
    holder is draining, it backs off and re-checks its ack.  Works with
    the appliers running and in manual mode alike. *)

val scan_items : 'a t -> reader:int -> 'a Composite.Item.t array
(** Linearizable Scan of all [C] components: a cache hit when the
    version collect validates, otherwise a shared or private scan of
    the outer register. *)

val scan : 'a t -> reader:int -> 'a array
(** [scan_items] with the auxiliary ids stripped. *)

val handle : 'a t -> 'a Composite.Snapshot.t
(** The unified-handle view ({!Composite.Composite_intf.t}): synchronous
    [update], cached [scan_items].  Plugs the service into the existing
    stress harness, checkers and campaigns unchanged. *)

val drain : 'a t -> unit
(** Manual mode for deterministic unit tests: drain every shard's
    mailboxes once on the calling thread, as the holder of each shard's
    token in turn (waiting while a concurrent {!update} holds it).  A
    drain with every mailbox empty allocates nothing.  Raises
    [Invalid_argument] if appliers are running: they own the polling,
    and manual mode is for the caller's own schedule. *)

(** {2 Accounting}

    All counters are exact, not sampled; see the module preamble for
    the [posted = applied + coalesced + pending] and
    [scans_requested = scans_combined + scans_performed] identities. *)

type stats = {
  posted : int;  (** posts accepted across all components *)
  coalesced : int;  (** posts superseded before application *)
  applied : int;  (** posts folded into a published view *)
  pending : int;  (** posts sitting in mailboxes *)
  publishes : int;  (** outer-register updates across all shards *)
  batch_installs : int;
      (** always 0: the batched-post channel it counted is gone, and the
          field stays only so that code building a [stats] record field
          by field keeps compiling *)
  hits : int;  (** scans served from a validated private cache *)
  misses : int;  (** scans with no cache to validate *)
  stale : int;  (** scans whose cache failed validation *)
  full_scans : int;  (** outer-register collects actually performed *)
  scans_requested : int;  (** entries into the (shared) scan machinery *)
  scans_combined : int;  (** requests served by an adopted shared snapshot *)
  scans_performed : int;  (** requests that performed their own collect *)
  stalls : int;
      (** backoff waves that hit their cap across all spin sites — a
          proxy for time burned idling in an applier or waiting on a
          descheduled token holder or combiner *)
}

type writer_stats = { w_posted : int; w_coalesced : int; w_applied : int }

type reader_stats = {
  r_requested : int;
  r_combined : int;
  r_performed : int;
}
(** Per-reader split of the scan-sharing counters:
    [r_requested = r_combined + r_performed] once the reader is
    quiescent. *)

val stats : 'a t -> stats
val writer_stats : 'a t -> writer:int -> writer_stats
val reader_stats : 'a t -> reader:int -> reader_stats

(** Per-epoch slice of the accounting.  All deltas are differences of
    the cumulative counters between the epoch's two boundaries (the
    open epoch's upper boundary is "now").  Work in flight at a
    boundary is {e carried}: [e_carried_in]/[e_carried_out] are posts
    accepted but not yet applied or coalesced at each boundary, and
    [e_inflight_in]/[e_inflight_out] the scans requested but not yet
    resolved.  The per-epoch identities are then exact even under
    open-loop load:
    [e_posted + e_carried_in = e_applied + e_coalesced + e_carried_out]
    and
    [e_scans_requested + e_inflight_in
       = e_scans_combined + e_scans_performed + e_inflight_out],
    with every field non-negative — a negative carry would mean a
    counter was double-bumped.  At final quiescence the last epoch's
    carry and inflight are 0 and the totals identities close. *)
type epoch_stats = {
  e_epoch : int;
  e_shards : int;  (** shard count during the epoch *)
  e_posted : int;
  e_coalesced : int;
  e_applied : int;
  e_carried_in : int;
  e_carried_out : int;
  e_publishes : int;
  e_scans_requested : int;
  e_scans_combined : int;
  e_scans_performed : int;
  e_inflight_in : int;
  e_inflight_out : int;
}

val epoch_stats : 'a t -> epoch_stats array
(** One entry per epoch, index = epoch number; the last entry is the
    open epoch measured against the current totals. *)

val check_identities : 'a t -> (unit, string) result
(** The quiescent counter identities, stated once for every caller:
    [pending = 0], [posted = applied + coalesced],
    [scans_requested = scans_combined + scans_performed],
    [full_scans = scans_performed], [scans_combined = 0] when
    scan-sharing is off, and for every epoch of {!epoch_stats}
    non-negative deltas and both per-epoch conservation identities,
    with zero carried and in-flight work out of the final epoch.
    [Error] names the first identity that breaks.  Meaningful only at
    quiescence (after {!shutdown}, or after {!drain} in manual mode):
    under load the carries are legitimately non-zero. *)

val observe : 'a t -> Obs.Metrics.t -> unit
(** Accumulate current totals into counters [serve.posted],
    [serve.coalesced], [serve.applied], [serve.publishes],
    [serve.cache.hit], [serve.cache.miss],
    [serve.cache.stale], [serve.full_scans], [serve.scan.requested],
    [serve.scan.combined], [serve.scan.performed] and [serve.stalls]
    (additive across calls — observe once per service lifetime). *)
