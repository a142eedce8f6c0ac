(** Byzantine-linearizable SWMR atomic register from SWSR atomic base
    registers, up to [f] of which may be actively faulty — after
    Kshemkalyani–Rai–Vaidya (arXiv 2405.19457), adapted to this
    repository's substrate.

    The paper's two mechanisms are kept: {e vouching} (a value counts
    only with f+1 agreeing sources: every single-writer/single-reader
    link is replicated over 2f+1 base cells and a link read accepts the
    highest-timestamp pair supported by at least f+1 of them, falling
    back to the freshest previously-validated pair so each link stays
    monotone for its one reader) and {e relay} (readers announce what
    they are about to return over reader-to-reader links and adopt the
    freshest of post and announcements — the Israeli–Li handshake of
    [Constructions.Atomic_mrsw_of_srsw], which makes the register
    atomic {e across} readers).

    With at most [f] faulty base cells in any link the faults are
    masked exactly; [f + 1] faults concentrated on one link push the
    liars' agreed-on pair past the vouching threshold and the
    regression becomes observable — the boundary the byz campaign
    demonstrates from both sides.

    {!memory} presents the construction as a {!Csim.Memory.t}, so
    Anderson/Afek and the serving layer run over it unchanged —
    mirroring how [Net.Abd.memory] plugs the message-passing emulation
    into the same seam. *)

open Csim

type 'a t

type 'a tagged = { ts : int; v : 'a }
(** A value with the writer's sequence number, as every base cell of a
    link holds it. *)

val vote : f:int -> last:'a tagged -> 'a tagged array -> 'a tagged
(** [vote ~f ~last seen] is one link read's vote over the [2f + 1]
    pairs [seen] collected from the link's base cells: the
    highest-timestamp pair that at least [f + 1] entries of [seen]
    equal (structurally), the first such in [seen] order; or [last],
    the freshest pair validated before, when no such pair has a larger
    timestamp than [last].  Values are compared with [(=)], so they
    must not hold functions or NaN floats. *)

val create :
  Memory.t -> name:string -> bits:int -> f:int -> readers:int -> 'a -> 'a t
(** Allocate the [(readers + readers²) · (2f+1)] base cells of one
    register from the given memory (named ["<name>.w2rJ.repK"] and
    ["<name>.rIrJ.repK"], so fault injections can target replica
    groups).  Raises [Invalid_argument] if [f < 0] or [readers < 1]. *)

val write : 'a t -> 'a -> unit
val read : 'a t -> reader:int -> 'a

val ghost_peek : 'a t -> 'a
(** Vote over [peek]s of the writer posts; no events, no state
    mutation — for observers and checkers only. *)

val replication : f:int -> int
(** Base cells per link: [2f + 1]. *)

val base_registers : f:int -> readers:int -> int
(** Base cells per constructed register. *)

val read_cost : f:int -> readers:int -> int
(** Exact base-register accesses per read: [(2f+1)(2·readers - 1)]. *)

val write_cost : f:int -> readers:int -> int
(** Exact base-register accesses per write: [(2f+1)·readers]. *)

val memory : ?self:(unit -> int) -> f:int -> readers:int -> Memory.t -> Memory.t
(** The construction as a memory: every cell [make] hands out is a
    Byzantine-tolerant register built from cells of the base memory.
    [self] names the reading process (the reader port used for the
    relay matrix) and defaults to {!Sim.self}, falling back to port [0]
    outside a simulation; [readers] must cover every process that will
    read.  Raises [Invalid_argument], with {!create}'s messages, if
    [f < 0] or [readers < 1]. *)
