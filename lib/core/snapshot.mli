(** The composite register object interface.

    A single-writer composite register (the paper's [C/B/1/R] object)
    has [C] components, each owned by exactly one Writer process, and
    [R] Reader processes.  All implementations in this library — the
    paper's construction, the Afek-et-al. baseline, the naive double
    collects — are exposed as a {!t} handle so that tests, checkers and
    benchmarks are implementation-generic.

    Conventions:
    - [update ~writer:k v] performs a k-Write of input value [v] and
      returns the auxiliary id assigned to it ([phi_k] of the
      operation);
    - [scan ~reader:j] performs a Read returning all [C] component
      values;
    - [scan_items] additionally exposes the auxiliary ids
      ([phi_k] for each [k]), which the harness records for checking.
      Its array may be shared with other calls and readers (the
      serving layer hands out its cached snapshot), so callers must
      not mutate it; [scan] returns a fresh array.

    Handles are not thread-safe by themselves: the caller must respect
    the access pattern (one process per writer index, one per reader
    index), exactly as the paper's procedures are resident to
    processes.

    The record is an alias of {!Composite_intf.t} — the unified handle
    interface every composite object in the repository satisfies — so
    generic code written against either module accepts handles from
    both. *)

type 'a t = 'a Composite_intf.t = {
  components : int;
  readers : int;
  scan_items : reader:int -> 'a Item.t array;
      (** Read-only result: it may be shared, never mutate it. *)
  update : writer:int -> 'a -> int;
  caps : Composite_intf.caps;
      (** Capability record ({!Composite_intf.caps}):
          [Composite_intf.static_caps] for every fixed-layout
          construction. *)
}

val scan : 'a t -> reader:int -> 'a array
(** [scan_items] with the auxiliary ids stripped: the public Read. *)

type factory = {
  make_sw : 'a. readers:int -> init:'a array -> 'a t;
      (** Builds a fresh single-writer composite register; higher-level
          objects ({!Multi_writer}, the [Prmw] library) are parametric
          in which construction they sit on. *)
}

val name_check : 'a t -> reader:int -> writer:int -> unit
(** Validate indices; raises [Invalid_argument]. *)

(** {2 Recording wrapper}

    Wraps a handle so every operation is recorded into a
    {!History.Snapshot_history.collector} with simulator timestamps.
    Intended for single-threaded simulation runs. *)

type 'a recorded = {
  handle : 'a t;
  coll : 'a History.Snapshot_history.collector;
  rscan : reader:int -> 'a array;  (** recorded Read *)
  rupdate : writer:int -> 'a -> unit;  (** recorded Write *)
}

val record :
  ?note:(string -> unit) ->
  clock:(unit -> int) ->
  initial:'a array ->
  'a t ->
  'a recorded
(** [record ~clock ~initial handle]: [clock] supplies invocation and
    response timestamps (use [fun () -> Csim.Sim.now env] in
    simulations, or a fetch-and-add counter on multicore).

    [note] (default: none) receives operation-span markers
    ([Csim.Trace.span_begin "scan"] before each Scan starts, matching
    [span_end] after it returns, likewise ["update"]) — pass
    [Obs.Span.emitter env] to record them into the simulator trace for
    span reconstruction and Chrome-trace export. *)

val history : 'a recorded -> 'a History.Snapshot_history.t
