(** Scheduling policies for the simulator.

    At every step of a run the scheduler must pick one enabled process
    (a process that has not yet returned) to execute its next atomic
    statement.  A policy encapsulates that choice.  All policies are
    deterministic — randomness comes only from an explicit seed — so
    every run is replayable. *)

type t =
  | Round_robin
      (** Cycle through processes in index order, skipping finished
          ones. *)
  | Random of int
      (** Uniform choice among enabled processes, driven by a private
          PRNG seeded with the given seed. *)
  | Starving of int
      (** Adversarial starvation, seeded.  Preferentially grants steps
          to the process that has already received the most (so the
          least-run process is starved and its pending operation spans
          a maximal window of foreign events), with an occasional
          (probability 1/4) step to the most-starved process so every
          operation eventually completes.  This is the scheduler that
          stretches one slow Read across many Writes — the adversary
          the paper's handshake mechanisms exist to defeat. *)
  | Scripted of int array * t
      (** [Scripted (script, fallback)] follows [script] — an array of
          process ids, one per step — and switches to [fallback] when
          the script is exhausted.  Scheduling a finished or unknown
          process id is an error (the script is meant to encode an exact
          scenario, e.g. the paper's Figure 4). *)
  | Choose of (enabled:int array -> step:int -> int)
      (** Fully custom policy: receives the ids of the enabled processes
          (ascending) and the current step index, returns the id of the
          process to run.  Used by the exhaustive explorer. *)

exception Bad_script of string
(** Raised when a [Scripted] policy names a process that is finished or
    out of range. *)

type driver
(** Instantiated policy: owns any mutable state (PRNG, script cursor). *)

val driver : t -> driver

val pick : driver -> enabled:int array -> step:int -> int
(** [pick d ~enabled ~step] returns the id of the process to run next.
    [enabled] is nonempty and sorted ascending. *)

(** A tiny deterministic splitmix64 PRNG, exposed for workload
    generators that need reproducible randomness independent of
    [Stdlib.Random]'s global state.  Its state is kept unboxed, so an
    {!int} draw allocates nothing. *)
module Prng : sig
  type t

  val make : int -> t
  val int : t -> int -> int
  (** [int t bound] is uniform in [0, bound) — exactly uniform, via
      rejection sampling of the 62-bit draw.  Raises [Invalid_argument]
      if [bound <= 0]. *)

  val bits64 : t -> int64
  val float : t -> float
  (** Uniform in [0, 1). *)
end
