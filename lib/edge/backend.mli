(** What the TCP front-end serves: any composite-register
    implementation, adapted to a worker-indexed, mutually-excluded op
    surface.

    The unified handle ({!Composite.Composite_intf.t}) is SWMR per
    component and single-process per reader; a socket front-end has
    neither property — any connection may write any component, and ops
    execute on whichever worker domain owns the connection.  This
    module closes the gap: writes to one component are serialized by a
    per-component mutex (the edge {e is} the component's single
    writer), and the scan reader identity is the worker index, so each
    worker is one long-lived reader with its own validated cache. *)

type t = {
  label : string;
  components : int;
  caps : Composite.Composite_intf.caps;
      (** The served object's capability record.  [reconfigure] present
          means the edge can reshard the service {e while serving} (the
          wire [Reshard] request). *)
  write : worker:int -> component:int -> int -> int;
      (** synchronous write; returns the auxiliary id *)
  post : worker:int -> component:int -> int -> unit;
      (** asynchronous write (falls back to [write] where the handle
          has no async channel) *)
  scan : worker:int -> (int * int) array;
      (** one linearizable snapshot: per component (value, aux id) *)
  drain_ready : worker:int -> bool;
      (** publish, without waiting, what [post] left unpublished; the
          server calls it on each worker just before that worker blocks
          in [select].  Returns whether work was left behind (the
          worker then polls instead of blocking); [false] where posts
          are synchronous *)
  shutdown : unit -> unit;
      (** quiesce and release; called once, after all ops have
          returned and the workers have stopped *)
  identities_ok : unit -> (unit, string) result;
      (** exact accounting identities at quiescence (after
          [shutdown]); [Ok ()] where a backend has none to check *)
  counters : unit -> (string * int) list;
      (** backend-side accounting snapshot for reports (may be empty) *)
}

val of_handle :
  label:string ->
  workers:int ->
  int Composite.Snapshot.t ->
  t
(** Serve a real-domain-safe handle (e.g. {!Composite.Multicore}).
    Scans map [worker] to reader [worker mod readers]; writes take the
    component's mutex.  Raises [Invalid_argument] if [workers < 1] or
    if the handle serves fewer readers than [workers] would need ([workers] must be at most
    the handle's reader count, so worker-to-reader identities stay
    disjoint). *)

val of_serve :
  ?outer:Serve.outer_impl ->
  ?max_shards:int ->
  shards:int ->
  workers:int ->
  init:int array ->
  unit ->
  t
(** A sharded serving instance with [workers] readers.  [post] is the
    wait-free mailbox channel ({!Serve.post}), and the server's workers
    publish posts themselves: [drain_ready] is {!Serve.drain_ready},
    which each worker calls before it blocks, so a post is published on
    the worker that took it, right after its reply is sent.  [write] is
    {!Serve.update}, which drains its own shard.  [max_shards]
    (default [shards]) bounds what the [caps.reconfigure] capability —
    wired to {!Serve.reshard} — may grow the service to.  [shutdown] is
    a final {!Serve.drain} of whatever posts are still pending once
    the workers have stopped; [identities_ok] is then
    {!Serve.check_identities}: the lifetime totals and every per-epoch
    slice of {!Serve.epoch_stats}. *)
