(** The one handle interface every composite-register object satisfies.

    A composite register presents [C] components to [R] declared Reader
    processes; a Scan ([scan_items]) returns all [C] components with
    their auxiliary ids, and [update ~writer v] performs a Write and
    returns the auxiliary id assigned to it.  Every construction in
    this repository — the paper's recursive construction, the Afek
    et al. baseline, the double collects, the multi-writer wrapper
    ({!Multi_writer.handle}) and the serving layer ([Serve.handle]) —
    is reachable through a value of this record type, so campaigns,
    meters, stress harnesses and benchmarks are written once, against
    this interface.

    Conventions:
    - [update ~writer:k v] performs a Write of [v] through write port
      [k] and returns the auxiliary id ([phi] of the operation).  For
      single-writer objects, port [k] writes component [k]; wrappers
      with several writers per component (e.g. [Multi_writer.handle])
      expose [W] ports per component and document the port-to-component
      mapping.
    - [scan_items ~reader:j] performs a Read as Reader [j], returning
      all [C] components.  The array may be shared: an implementation
      may hand the same snapshot to several calls and readers (the
      serving layer's validated cache does), so callers must not
      mutate it.
    - Handles are not thread-safe by themselves: one process per write
      port, one per reader index, exactly as the paper's procedures are
      resident to processes.

    [Snapshot.t] is an alias of this type (the record is re-exported
    there), so existing code using [Composite.Snapshot.t] and new code
    using [Composite_intf.t] interoperate freely. *)

(** {2 Capabilities}

    Beyond the four operations, a handle advertises what it {e can do}
    as data, so campaigns, the edge server and the CLI discover
    reconfigurability instead of special-casing backend names.

    Every handle carries a {!caps} record:
    - [epoch ()] is the configuration epoch the object is currently
      serving.  Static constructions (the paper's recursion, Afek
      et al., the double collects, …) are forever in epoch [0]; an
      elastic object ([Serve.handle]) increments it at each completed
      reconfiguration.  Epochs are monotone and start at [0].
    - [reconfigure], when present, atomically moves the object to a new
      shard count {e while operations are in flight}: a Scan that
      observes the new epoch observes all migrated state, and every
      accounting identity holds per epoch.  [None] means the layout is
      fixed at creation — the common case, and the default
      ({!static_caps}). *)
type caps = {
  epoch : unit -> int;
      (** Current configuration epoch (monotone, 0 at creation). *)
  reconfigure : (shards:int -> unit) option;
      (** Online reconfiguration to [shards] shards, or [None] for
          static constructions. *)
}

val static_caps : caps
(** The capability record of every fixed-layout construction:
    [epoch () = 0] forever, no [reconfigure]. *)

type 'a t = {
  components : int;
  readers : int;
  scan_items : reader:int -> 'a Item.t array;
      (** A Read as Reader [j].  The result may be shared with other
          calls and readers: read it, never mutate it. *)
  update : writer:int -> 'a -> int;
  caps : caps;
}

val components : 'a t -> int
val readers : 'a t -> int
val scan_items : 'a t -> reader:int -> 'a Item.t array
val update : 'a t -> writer:int -> 'a -> int

val scan : 'a t -> reader:int -> 'a array
(** [scan_items] with the auxiliary ids stripped: the public Read. *)

val caps : 'a t -> caps

val epoch : 'a t -> int
(** [caps t .epoch ()]. *)

val reconfigurable : 'a t -> bool
(** Whether [caps t .reconfigure] is present. *)

val reconfigure : 'a t -> shards:int -> unit
(** Invoke the capability; raises [Invalid_argument] on a static
    handle (check {!reconfigurable} first). *)

(** First-class-module spelling of the same contract, for code that
    wants to abstract the handle representation itself rather than use
    the record directly. *)
module type HANDLE = sig
  type elt
  type handle

  val components : handle -> int
  val readers : handle -> int
  val scan_items : handle -> reader:int -> elt Item.t array
  val update : handle -> writer:int -> elt -> int
end
