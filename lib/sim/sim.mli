(** The simulated asynchronous shared-memory machine.

    This module realizes the execution model of Section 2 of the paper:
    a fixed set of sequential processes, each a sequence of atomic
    statements, interleaved by an adversarial scheduler.  The scheduling
    points are exactly the shared-memory accesses: between any two
    accesses of one process, any number of steps of other processes may
    occur, and each access itself is a single indivisible event.

    Processes are ordinary OCaml functions.  Inside a process, shared
    cells are accessed with {!read} and {!write}, which first park the
    process (via one payload-free effect) until the scheduler grants it
    its next step; the access itself happens when the process is
    resumed, on its own fiber, before it runs on to its next access.
    Everything is single-threaded and deterministic given the policy. *)

type env
(** A simulation environment: the registry of shared cells, the global
    event counter, and the trace buffer. *)

val create : ?trace:bool -> ?trace_capacity:int -> unit -> env
(** Fresh environment.  [trace] (default [true]) controls whether events
    are recorded; accounting counters are always maintained.
    [trace_capacity] bounds the trace to a ring buffer of that many
    events (see [Trace.create]) — used by long campaigns so the event
    list cannot grow without limit. *)

val make_cell :
  env -> ?pp:('a -> string) -> ?bits:int -> string -> 'a -> 'a Cell.t
(** [make_cell env name init] allocates a shared cell and registers it
    with [env] for space accounting.  [bits] defaults to 0 (unknown). *)

val read : 'a Cell.t -> 'a
(** Atomic read.  Must be called from inside a process of a running
    simulation; raises [Not_in_simulation] otherwise. *)

val write : 'a Cell.t -> 'a -> unit
(** Atomic write.  Same restrictions as {!read}. *)

exception Not_in_simulation
(** Raised by {!read}/{!write} outside of {!run}. *)

val self : unit -> int
(** The id of the currently-running process.  Not an event (consumes no
    scheduling step).  Raises {!Not_in_simulation} outside a run.  Used
    by memory adapters that must route accesses by process identity
    (e.g. running an algorithm on top of registers that have per-reader
    ports, such as [Registers.Constructions.Atomic_mrsw_of_srsw]). *)

val on_event : env -> (step:int -> unit) -> unit
(** Register an observer invoked after every shared-memory event, with
    the post-event value of {!now}.  Observers run on the fiber of the
    process that was just stepped, right after its access and before it
    continues: they may {!Cell.peek} but must not {!read} or {!write}
    (that would park the stepped process inside its own access).  Used
    to record ghost state for the executable proof lemmas (see
    [Workload.Lemmas]). *)

val now : env -> int
(** The number of shared-memory events that have occurred so far.  Used
    by harnesses to timestamp operation invocations and responses: an
    operation [p] with response time [t1] precedes an operation [q] with
    invocation time [t0] iff [t1 <= t0]. *)

val note : env -> proc:int -> string -> unit
(** Append a harness note to the trace at the current step. *)

val trace : env -> Trace.t
val total_accesses : env -> int
(** Total reads + writes across all cells since creation (equals
    {!now}). *)

val reset_counters : env -> unit
(** Zero every cell's read/write counters (the trace and step counter
    are preserved). *)

val space_bits : env -> int
(** Sum of the declared widths of all registered cells: the space
    accounting used to reproduce the paper's [S(C,B,1,R)]
    recurrence. *)

val cells : env -> Cell.packed list
(** All registered cells, in creation order. *)

type cell_stat = {
  cell : string;  (** cell name *)
  creads : int;  (** read events on this cell since creation/reset *)
  cwrites : int;  (** write events on this cell since creation/reset *)
}

val cell_stats : env -> cell_stat list
(** Per-cell read/write counters, in creation order.  Unlike
    {!total_accesses} this attributes every event to the cell it
    touched; the hot-cell profiler ([Obs.Profile]) ranks contention
    from it.  Counters are zeroed by {!reset_counters}. *)

type stats = {
  steps : int;  (** number of shared-memory events in the run *)
  switches : int;  (** number of context switches between processes *)
}

exception Stuck of string
(** Raised when the step budget is exhausted — only possible if some
    process loops forever without terminating, i.e. a wait-freedom
    violation. *)

val run :
  env ->
  ?policy:Schedule.t ->
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  ?stalls:(int * int * int) list ->
  (unit -> unit) array ->
  stats
(** [run env procs] executes all processes to completion under the given
    scheduling policy (default [Round_robin]).  Process [i] is
    [procs.(i)].  [max_steps] (default [10_000_000]) bounds the total
    number of events; exceeding it raises {!Stuck}, which for the
    wait-free algorithms in this repository indicates a bug.

    [crashes] injects halting failures: [(p, n)] halts process [p]
    forever once it has performed [n] shared-memory events (so [n = 0]
    halts it before its first event — possibly mid-operation, which is
    the paper's failure model).  Crashed processes are simply never
    scheduled again; the run completes when every process has finished
    or crashed.  Wait-freedom (Section 1 of the paper) says the
    surviving processes' operations still complete — which {!Stuck}
    would expose if violated.

    [stalls] injects transient (stall/resume) faults: [(p, at, dur)]
    removes process [p] from the schedulable set once it has performed
    [at] events — freezing it mid-operation, like a crash — and returns
    it after [dur] further global events have been performed by other
    processes.  Unlike a crash the operation then resumes and must still
    complete correctly; a stalled process is exactly the "slow" process
    of the paper's adversarial arguments, stretched over an explicit
    window.  If at some point {e every} runnable process is stalled, the
    stall due to resume soonest is released early (global time advances
    only through events, so the window could otherwise never elapse).
    At most one crash entry and one stall entry per process; duplicate
    or out-of-range process ids, and negative event counts, raise
    [Invalid_argument].

    When [run] ends — normally, or by raising {!Stuck},
    [Schedule.Bad_script] or a process's exception — every process
    still parked (crash victims, or everyone still running) is unwound:
    its fiber is resumed with a private exception, so its stack is freed
    and its [Fun.protect] finalisers run exactly once.  A process must
    therefore not swallow every exception around an access. *)

val validate_faults :
  n:int -> crashes:(int * int) list -> stalls:(int * int * int) list -> unit
(** The fault checks {!run} applies before it starts [n] processes:
    raises [Invalid_argument] on an out-of-range or duplicate process
    id, or a negative event count.  For callers that take fault lists
    from outside, such as replay-script parsers. *)

val run_solo : env -> ?max_steps:int -> (unit -> unit) -> stats
(** Run a single process alone; convenient for sequential tests and for
    measuring the exact per-operation access counts of Section 4's time
    complexity recurrences. *)

(** {2 Bounded-exhaustive schedule exploration}

    For small configurations, every interleaving can be enumerated by
    re-running the system once per schedule.  The factory must build a
    fresh, identically-initialized system on each call (fresh [env],
    fresh cells, fresh processes); [check] is called after each run and
    should raise to report a violation. *)

type exploration = {
  runs : int;  (** number of distinct schedules executed *)
  exhaustive : bool;  (** false if [max_runs] was hit first *)
}

exception
  Exploration_failure of {
    schedule : int list;  (** process ids, in order, of the failing run *)
    exn : exn;
  }

val explore :
  ?max_runs:int ->
  (unit -> env * (unit -> unit) array * (env -> unit)) ->
  exploration
(** [explore factory] enumerates schedules depth-first.  [factory ()]
    must return [(env, procs, check)].  Default [max_runs] is
    [100_000]. *)
