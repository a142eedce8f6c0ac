(** The TCP front-end: a listening socket served by a small pool of
    worker domains, each running an effect-based accept loop
    ({!Sched}).

    Every worker selects on the shared non-blocking listen socket and
    accepts directly — no cross-domain dispatch, the kernel is the load
    balancer — then serves each connection as a fiber: take a
    length-prefixed frame from the connection's read buffer, decode,
    execute against the {!Backend}, reply.

    Socket I/O is optimistic.  One read fills the buffer with whatever
    the socket holds (it starts at 4 KiB and grows to a larger frame,
    at most {!Wire.max_payload}, while that frame is read), so a frame
    sent in one write is one read.  Reads and writes go first, and the
    fiber awaits its descriptor only on [EAGAIN].  A frame already in
    the buffer when the previous reply is sent (a pipelining client)
    is served only after a {!Sched.yield}, so one connection cannot
    starve the acceptor or the others on its worker.

    Each worker calls the backend's [drain_ready] once per scheduler
    round, just before it blocks in [select] ({!Sched.run}'s
    [before_select]): over {!Backend.of_serve} that publishes the posts
    the round's fibers left in the mailboxes, on the same worker.  If
    it left a post behind a busy drain token, the round polls instead
    of blocking.

    A malformed frame gets an ['e'] response and a closed
    connection; the server survives and counts it.  Backend
    [Invalid_argument] (e.g. component out of range) is returned as an
    ['e'] response with the connection kept open.

    {!shutdown} is graceful: stop accepting, give in-flight fibers a
    grace period (connections closed by their clients finish
    immediately), cancel stragglers, join the workers, then shut the
    backend down — which drains what is left in its mailboxes — and
    finally report the backend's accounting identities. *)

type config = {
  workers : int;  (** worker domains (≥ 1) *)
  backlog : int;  (** listen(2) backlog *)
  grace : float;  (** shutdown grace for in-flight fibers, seconds *)
}

val default_config : config
(** 4 workers, backlog 64, 1.0s grace. *)

type stats = {
  accepted : int;  (** connections accepted *)
  disconnects : int;  (** connections that ended (any reason) *)
  hellos : int;
  writes : int;
  posts : int;
  scans : int;
  reshards : int;  (** completed online reconfigurations *)
  protocol_errors : int;  (** malformed frames (connection dropped) *)
  op_errors : int;  (** well-formed requests the backend rejected *)
  fiber_errors : int;  (** fibers killed by unexpected exceptions *)
}

type t

val start : ?config:config -> Backend.t -> t
(** Bind [127.0.0.1] on an ephemeral port, listen, spawn the workers.
    Sets [SIGPIPE] to ignored for the whole process, so that writing to
    a peer that reset is an [EPIPE] error (a disconnect), not a fatal
    signal. *)

val port : t -> int
val backend : t -> Backend.t
val stats : t -> stats

val shutdown : t -> (unit, string) result
(** Graceful shutdown as described above.  The result is the backend's
    {!Backend.identities_ok} verdict at quiescence. *)

val observe : t -> Obs.Metrics.t -> unit
(** Accumulate {!stats} into counters [edge.accepted],
    [edge.disconnects], [edge.hello], [edge.write], [edge.post],
    [edge.scan], [edge.reshard], [edge.protocol_errors],
    [edge.op_errors] and [edge.fiber_errors]. *)
