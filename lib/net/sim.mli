(** A deterministic simulated asynchronous message-passing system.

    The system has [n] {e server replicas} (passive: they only react to
    messages) and any number of {e client processes} (active: the
    algorithm code, run as effect-handled coroutines exactly like
    {!Csim.Sim} processes).  All communication is point-to-point
    messages; there is no shared memory.  Messages in flight form a
    single multiset and the scheduler — driven by an ordinary
    {!Csim.Schedule.t} policy — picks which pending event happens next,
    so message {e reordering and delay} fall out of the schedule
    ([Random] explores them, [Scripted] replays an exact interleaving)
    while {e loss} and {e replica crashes} are explicit injected faults:

    - [loss]: each transmission is independently dropped with the given
      probability (drawn from a private seeded PRNG, so runs replay);
    - [crashes]: [(r, k)] crash-stops replica [r] after it has handled
      its first [k] messages; later deliveries to [r] are discarded.
      At most a minority of replicas may crash ([f < n/2]), matching
      the ABD emulation's liveness requirement.

    Determinism: a fixed [(seed, policy, crashes, loss)] yields a
    bit-identical run — same delivery order, same counters, same
    events — which is what campaign sharding and counterexample replay
    rely on. *)

exception Not_in_network
(** Raised by {!send}/{!recv}/{!self} outside {!run}. *)

exception Stuck of string
(** The run exceeded its step budget without completing — e.g. a
    protocol waiting on a quorum that loss keeps destroying. *)

type payload = ..
(** Protocol messages.  Extensible so each protocol (e.g. {!Abd})
    declares its own constructors against one network type. *)

type addr = Client of int | Replica of int

type ctx = { trace : int; span : int }
(** Causal context stamped on messages: the trace id of the top-level
    operation and the span id of the protocol step that sent the
    message (ids from an {!Obs.Causal} collector).  Replica replies
    inherit the request's context, so every message of an ABD phase —
    including retransmits and late acks — carries the phase's identity
    end to end. *)

type packet = {
  src : addr;
  dst : addr;
  seq : int;
  payload : payload;
  lamport : int;
  ctx : ctx option;
}
(** [seq] is a globally unique, monotonically increasing transmission
    id — the canonical order used to enumerate pending deliveries.
    [lamport] is the sender's Lamport clock after the send tick (each
    node ticks on send; receivers advance to [max local witnessed + 1]
    at delivery), giving every message a happens-before-consistent
    timestamp independent of the delivery schedule. *)

type handler = replica:int -> src:int -> payload -> (int * payload) list
(** Replica logic: given the replica id, the sending client and the
    message, return the replies to send as [(client, payload)] pairs.
    Handlers run atomically at delivery.  A reply may go to any client
    that has started (usually [src]); a reply to a client that has not
    started raises [Invalid_argument], which keeps every message
    between a replica and a started client (see {!run}). *)

type env

(** {1 Byzantine replicas}

    A Byzantine replica does not merely stop: it {e lies}.  Each faulty
    replica is assigned one misbehavior flavor, applied by the protocol
    handler (see {!Abd}) at every delivery, and every individual lie is
    accounted per replica in a {!byz_stat} so campaign reports can say
    exactly which replica misbehaved how often. *)

type byz_flavor =
  | Forge_ts
      (** Acknowledge writes without storing them, and answer reads
          with a forged far-future timestamp on a stale value — the
          poisoning lie, since honest readers write the forged pair
          back. *)
  | Stale_replies
      (** Store honestly but always answer reads with the register's
          initial value — a maximally regressing timestamp. *)
  | Equivocate
      (** Answer honestly to even-numbered clients and with the initial
          value to odd-numbered ones: different quorum faces for
          different readers. *)
  | Mute  (** Never reply — a silent Byzantine, counted against the
          liveness minority like a crash. *)

val byz_flavor_to_string : byz_flavor -> string
val byz_flavor_of_string : string -> byz_flavor option
(** Round-tripping names ["forge"], ["stale"], ["equivocate"], ["mute"]
    — the forms counterexample scripts and CLI flags use. *)

val byz_replica_to_string : int * byz_flavor -> string
val byz_replica_of_string : string -> (int * byz_flavor, string) result
(** A Byzantine replica as [REPLICA:FLAVOR], e.g. ["1:forge"]: the
    form of [net --byz] and of [byz=] in replay scripts. *)

type byz_stat = {
  mutable forged : int;  (** forged-timestamp replies and dropped stores *)
  mutable stale_served : int;  (** initial-value replies by [Stale_replies] *)
  mutable equivocations : int;  (** lying faces shown by [Equivocate] *)
  mutable muted : int;  (** deliveries swallowed by [Mute] *)
}

val byz_misbehaviors : byz_stat -> int
(** Total individual lies of one replica. *)

val create :
  ?loss:float ->
  ?crashes:(int * int) list ->
  ?byzantine:(int * byz_flavor) list ->
  ?log:bool ->
  replicas:int ->
  seed:int ->
  unit ->
  env
(** [loss] defaults to [0.]; must be in [[0, 1)].  [crashes] is a list
    of [(replica, after_k_messages)] crash-stop faults, validated to
    name distinct in-range replicas.  [byzantine] assigns misbehavior
    flavors to distinct replicas (disjoint from [crashes]).  Liveness
    validation: crash-stops plus [Mute] Byzantines together must stay a
    minority ([f < n/2]); lying flavors do answer, so they do not count
    against it.  [log] (default [false]) records the full event
    timeline for {!Timeline} export.  [seed] drives the loss PRNG only;
    scheduling randomness comes from the policy passed to {!run}. *)

val replicas : env -> int

val byz_flavor : env -> int -> byz_flavor option
(** The misbehavior assigned to this replica, if any. *)

val byz_stat : env -> int -> byz_stat
(** This replica's (mutable) misbehavior account — protocol handlers
    bump it as they lie. *)

val byz_stats : env -> (int * byz_flavor * byz_stat) list
(** Exact per-replica misbehavior accounting, in assignment order. *)

val now : env -> int
(** The network clock: delivery and timeout events each advance it by
    one.  Used as the logical clock when recording operation
    histories. *)

val lamport : env -> addr -> int
(** This node's current Lamport clock (0 before its first event). *)

val set_context : env -> client:int -> ctx option -> unit
(** Set (or with [None] clear) the causal context stamped on this
    client's subsequent sends.  Protocol layers (see [Abd]) set it
    around each phase; it changes nothing but the metadata carried on
    packets, so traced and untraced runs schedule identically. *)

val context : env -> client:int -> ctx option

val set_handler : env -> handler -> unit

val crashed : env -> int -> bool
(** Has this replica passed its crash point? *)

(** {1 Client operations} (only inside {!run}) *)

val send : int -> payload -> unit
(** Asynchronous send to a replica; never blocks, may be lost. *)

val recv : unit -> packet option
(** Block until some message addressed to this client is delivered.
    [None] is a timeout: the scheduler proves no message can currently
    arrive (nothing deliverable is in flight and every other client is
    also blocked), so the protocol should retransmit. *)

val self : unit -> int
(** This client's id. *)

(** {1 Running} *)

type stats = {
  steps : int;
  sent : int;       (** transmissions attempted (including lost) *)
  delivered : int;  (** handled by a live replica or consumed by [recv] *)
  lost : int;       (** dropped by the loss fault at transmission *)
  to_crashed : int; (** delivered to a crashed replica, discarded *)
  expired : int;    (** addressed to a client that had already returned *)
  timeouts : int;
}

val run :
  env ->
  ?policy:Csim.Schedule.t ->
  ?max_steps:int ->
  (unit -> unit) array ->
  stats
(** Run the client processes to completion over this network, and
    until no replica-bound packet is left in flight (so late requests
    are still handled and message counts are exact).  The scheduler's
    enabled set at each step is the canonical action list — unstarted
    clients in id order, then pending deliveries in [seq] order — and
    the policy picks an {e index} into it, which is what [Scripted]
    replay scripts record.

    Deliverability invariant: a message goes from a client to a replica
    or from a replica to a started client, and a started client is
    blocked in {!recv} unless it returned.  Packets to returned clients
    expire (counted in [expired]) as soon as a client returns or a
    replica replies to a returned client, so at every step every packet
    in flight is deliverable: the action count is [unstarted +
    in-flight] and packet action [k] is the [k]-th packet in flight,
    both found without a scan.  Raises {!Stuck} after [max_steps] scheduling events
    (default 200_000) without completion.  When [run] raises, every
    client still blocked in {!recv} is unwound (resumed with a private
    exception), so its fiber is freed and its finalisers run once. *)

val totals : env -> stats
(** Absolute counters since [create] (a superset of any one run). *)

(** {1 Event log} (only when [create ~log:true]) *)

type event_kind =
  | Ev_send
  | Ev_deliver
  | Ev_loss
  | Ev_to_crashed
  | Ev_expire
  | Ev_timeout

type event = {
  at : int;
  kind : event_kind;
  e_src : addr;
  e_dst : addr;
  e_seq : int;
  e_payload : payload option;
  e_lamport : int;
      (** send-side events carry the packet's Lamport stamp, deliveries
          the receiver's clock after the merge, timeouts the waiting
          client's tick *)
  e_ctx : ctx option;  (** the packet's causal context, if any *)
}

val events : env -> event list
(** Oldest first. *)
