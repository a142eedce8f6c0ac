(** A tiny effect-based cooperative scheduler for socket fibers.

    Connection handlers are written in direct style; when a socket
    would block they perform {!await_readable}/{!await_writable}, which
    suspends the fiber (capturing its continuation via [Effect.Deep])
    until one [Unix.select]-driven event loop — one scheduler per
    worker domain, no cross-domain state — reports the descriptor
    ready.  This is the "effect-based accept loop" of the edge: the
    accept fiber and every connection fiber multiplex cooperatively on
    a single domain, and the domain pool runs one scheduler each.

    Fibers must only await descriptors in non-blocking mode and must
    be prepared for {!Cancelled} to be raised at any await or
    {!yield} point (use
    [Fun.protect] to release descriptors); cancellation is how the
    loop tears down idle connections at shutdown. *)

type t

exception Cancelled
(** Raised inside a fiber blocked at an await point (or yielded) when
    the loop cancels it ({!cancel_fd} or the [run] grace deadline). *)

val create : ?on_error:(exn -> unit) -> unit -> t
(** A fresh scheduler.  [on_error] (default: ignore) receives any
    exception that escapes a fiber other than {!Cancelled}. *)

val spawn : t -> (unit -> unit) -> unit
(** Queue a new fiber.  May be called from inside a running fiber. *)

val await_readable : Unix.file_descr -> unit
val await_writable : Unix.file_descr -> unit
(** Suspend the calling fiber until the descriptor is ready.  Must be
    called from a fiber of the scheduler currently running. *)

val yield : unit -> unit
(** Suspend the calling fiber until the next select round is over: the
    fibers that round wakes run first, then the yielded ones, in the
    order they yielded.  While any fiber has yielded, that round polls
    (zero timeout) instead of blocking.  A fiber with work already in
    hand (e.g. a pipelined frame in its read buffer) yields before
    each item, so it cannot starve the acceptor or the other
    connections of its domain.  Same calling rule as the awaits. *)

val cancel_fd : t -> Unix.file_descr -> unit
(** Cancel every fiber currently awaiting this descriptor (they resume
    with {!Cancelled}).  Yielded fibers await no descriptor and are
    not touched. *)

val alive : t -> int
(** Fibers spawned and not yet finished. *)

val run :
  ?grace:float ->
  ?on_stop:(unit -> unit) ->
  ?before_select:(unit -> bool) ->
  stop:(unit -> bool) ->
  t ->
  unit
(** Run fibers until none remain.  Once [stop ()] first returns [true],
    [on_stop] fires (use it to {!cancel_fd} the accept socket), and
    fibers still blocked or yielded after [grace] seconds (default
    1.0) are cancelled; fibers that finish on their own (e.g. because
    the peer closed) need no cancellation.

    [before_select] (default: nothing to do) runs once per round, after
    the round's fibers have run and just before [select]: the server
    publishes the posts its fibers left in [Serve]'s mailboxes there.
    It returns whether it left work behind (e.g. a drain token that
    was busy); if so, that round polls with a zero timeout, as it does
    while a fiber has yielded, so the work never waits out a blocking
    round.  [stop] is polled between select rounds, which block at
    most 20ms, and not at all while a fiber has yielded or
    [before_select] has left work behind. *)
