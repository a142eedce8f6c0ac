(** A minimal blocking client for the edge protocol — one request in
    flight per connection.  Used by the unit tests and smoke checks;
    the load generator ({!Workload.Loadgen}) drives its own
    non-blocking engine instead. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** TCP connect (default host 127.0.0.1), [TCP_NODELAY] set. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The raw socket — for tests that abort mid-request on purpose. *)

val request : t -> Wire.request -> (Wire.response, string) result
(** Send one frame, block for the reply.  [Error _] on protocol
    violations or a closed peer. *)

val receive : t -> (Wire.response, string) result
(** Block for the next reply without sending — for tests that pipeline
    frames with {!send_raw}.  Errors as {!request}. *)

(** Typed wrappers over {!request}; an ['e'] response or a mismatched
    response kind is [Error _]. *)

val hello : t -> (int, string) result
val write : t -> component:int -> int -> (int, string) result
val post : t -> component:int -> int -> (unit, string) result
val scan : t -> ((int * int) array, string) result

val reshard : t -> shards:int -> (int, string) result
(** Online reconfiguration to [shards] shards; [Ok epoch] is the
    configuration epoch after the switch.  [Error _] if the served
    backend has no [reconfigure] capability. *)

val send_raw : t -> bytes -> unit
(** Write raw bytes on the socket — for malformed-frame tests. *)
