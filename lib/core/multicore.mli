(** Real-parallel instances of the constructions, on OCaml domains.

    Each register of the algorithms becomes one [Atomic.t] holding an
    immutable value — a hardware atomic register strictly stronger than
    the MRSW primitive the constructions assume — so the very same
    algorithm code (written against {!Csim.Memory.t}) runs unmodified
    and wait-free on parallel domains.

    This module also provides a lock-based snapshot, the blocking
    comparator of the wait-free constructions, and a small stress
    harness that runs writer and reader domains and returns the recorded
    history for offline checking. *)

val padded_memory : unit -> Csim.Memory.t
(** {!Csim.Memory.atomic} with every register on its own cache line
    ({!Padded_atomic}); the substrate of every construction below and
    of the serving layer's outer register. *)

val anderson : readers:int -> init:'a array -> 'a Snapshot.t
val afek : init:'a array -> 'a Snapshot.t

val multi_writer :
  components:int -> writers_per_component:int -> readers:int ->
  init:'a array -> 'a Multi_writer.t
(** Multi-writer composite register on [Atomic.t] registers (substrate:
    the Afek-style snapshot, whose polynomial scans suit the [C * W]
    slot count). *)

val locked : readers:int -> init:'a array -> 'a Snapshot.t
(** Mutex-protected array: scans and updates serialize.  Linearizable
    but blocking — the baseline the wait-free constructions are
    compared against.  The mutex supports any number of readers, but
    the handle reports the [readers] the caller declares (rather than a
    [max_int] sentinel) so code sizing per-reader state from
    [Snapshot.readers] stays honest. *)

val tick_clock : unit -> (unit -> int)
(** A fetch-and-add logical clock.  Timestamps taken before and after an
    operation bound its real-time interval, so the interval order they
    induce is a sound under-approximation of real-time precedence — as
    required for linearizability checking of parallel runs. *)

type stress_config = {
  writer_ops : int;  (** operations per writer domain *)
  reader_ops : int;  (** operations per reader domain *)
  readers : int;
}

val stress :
  ?reader_pace:(unit -> unit) ->
  config:stress_config -> init:int array -> handle:int Snapshot.t ->
  unit -> int History.Snapshot_history.t
(** Runs [C] writer domains (writer [k] writes values [k*1000 + seq])
    and [config.readers] reader domains concurrently, recording every
    operation with {!tick_clock} timestamps.  Returns the merged
    history.

    [reader_pace] (default: none) runs on the reader domain before each
    scan's invocation timestamp is taken.  Handles whose scans are much
    cheaper than their updates (e.g. cached serving-layer reads) finish
    all their scans before the first write completes, leaving nothing
    concurrent to check; a pacing hook that waits for writer progress
    restores genuine overlap. *)
