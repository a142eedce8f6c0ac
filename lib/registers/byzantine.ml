open Csim

(* Byzantine-linearizable SWMR atomic register from SWSR atomic
   registers of which up to [f] may lie arbitrarily — the construction
   of Kshemkalyani–Rai–Vaidya (arXiv 2405.19457), adapted to this
   repository's substrate.  The paper builds the register from two
   mechanisms and we keep both:

   - Vouching: a value counts only when f+1 independent sources agree
     on it, so f liars can never push a fabricated (value, timestamp)
     pair past a reader.  Here every single-writer/single-reader link
     is replicated over n = 2f+1 base cells; a link read collects all
     n and accepts the highest-timestamp pair supported by at least
     f+1 of them.  Correct cells of a link are written sequentially by
     one writer, so at any point they split between at most two
     adjacent pairs; with 2f+1 - f = f+1 correct cells the pigeonhole
     gives some correct pair the required support mid-write, and when
     no pair qualifies (more liars than the design point) the reader
     falls back to the freshest pair it ever validated — which keeps
     each link's reads monotone, i.e. atomic for its single reader.

   - Relay: readers announce the value they are about to return to
     every other reader over reader-to-reader links and adopt the
     freshest of the writer's post and all announcements (the
     Israeli–Li handshake this repo already uses for
     [Constructions.Atomic_mrsw_of_srsw]).  This is what upgrades the
     per-reader-monotone links to a register that is atomic across
     readers: no two non-overlapping reads can return new-then-old.

   Tolerance boundary: with a global adversary budget of at most f
   faulty base cells every link still has >= f+1 correct replicas, so
   the construction masks the faults exactly; at f+1 faults
   concentrated on one link, the liars' agreed-on pair reaches the
   vouching threshold (or starves the correct pair of it) and the
   regression becomes observable — which is what the byz campaign's
   flagged side demonstrates. *)

type 'a tagged = { ts : int; v : 'a }

type 'a link = {
  reps : 'a tagged Memory.cell array;  (* n = 2f + 1 base cells *)
  lf : int;
  mutable last : 'a tagged;  (* freshest validated pair (reader-private) *)
}

(* [suffixes.(i)] names replica [i]: the cell is [name ^ suffixes.(i)]. *)
let mk_link (mem : Memory.t) ~name ~suffixes ~bits ~f init =
  let t0 = { ts = 0; v = init } in
  {
    reps =
      Array.map
        (fun sfx -> mem.Memory.make ~name:(name ^ sfx) ~bits t0)
        suffixes;
    lf = f;
    last = t0;
  }

let write_link l x = Array.iter (fun c -> c.Memory.write x) l.reps

(* Support is counted on structurally equal (ts, v) pairs: correct
   replicas of a link hold identical pairs because they are written with
   the same tagged value, so most agreeing pairs are physically equal,
   and pairs with different timestamps never need their values walked.
   Only a pair fresher than the current answer can change it, so the
   others are not counted at all. *)
let vote ~f ~last seen =
  let n = Array.length seen in
  let best = ref last in
  for i = 0 to n - 1 do
    let x = seen.(i) in
    if x.ts > !best.ts then begin
      let support = ref 0 in
      for j = 0 to n - 1 do
        let y = seen.(j) in
        if y == x || (y.ts = x.ts && y = x) then incr support
      done;
      if !support >= f + 1 then best := x
    end
  done;
  !best

(* Collect all replicas, vote, keep the link monotone. *)
let read_link l =
  let seen = Array.map (fun c -> c.Memory.read ()) l.reps in
  let x = vote ~f:l.lf ~last:l.last seen in
  l.last <- x;
  x

(* Ghost vote over [peek]s: never mutates [last], never an event. *)
let peek_link l =
  vote ~f:l.lf ~last:l.last (Array.map (fun c -> c.Memory.peek ()) l.reps)

type 'a t = {
  w2r : 'a link array;  (* writer -> reader j *)
  r2r : 'a link array array;  (* reader i -> reader j *)
  readers : int;
  f : int;
  mutable wseq : int;
}

(* The shape of a register, with its replica-name suffixes built once
   for every register of that shape: [w2r_sfx.(j).(k)] is
   [".w2r<j>.rep<k>"] and [r2r_sfx.(i).(j).(k)] is [".r<i>r<j>.rep<k>"].
   A cell name is then one concatenation, and building a shape calls
   [string_of_int], which is costly next to the rest of a register's
   set-up, only 2f + 1 + readers times. *)
type shape = {
  sf : int;
  sreaders : int;
  w2r_sfx : string array array;
  r2r_sfx : string array array array;
}

let shape ~f ~readers =
  if f < 0 then invalid_arg "Byzantine.create: f must be >= 0";
  if readers < 1 then invalid_arg "Byzantine.create: readers must be >= 1";
  let rep = Array.init ((2 * f) + 1) (fun k -> ".rep" ^ string_of_int k) in
  let port = Array.init readers string_of_int in
  let reps link = Array.map (fun r -> link ^ r) rep in
  {
    sf = f;
    sreaders = readers;
    w2r_sfx = Array.map (fun j -> reps (".w2r" ^ j)) port;
    r2r_sfx =
      Array.map
        (fun i -> Array.map (fun j -> reps (".r" ^ i ^ "r" ^ j)) port)
        port;
  }

(* Links are allocated writer posts first, then the relay matrix row by
   row: the budgeted Byzantine adversary claims cells in this order. *)
let build (mem : Memory.t) sh ~name ~bits init =
  let link suffixes = mk_link mem ~name ~suffixes ~bits ~f:sh.sf init in
  let w2r = Array.map link sh.w2r_sfx in
  let r2r = Array.map (Array.map link) sh.r2r_sfx in
  { w2r; r2r; readers = sh.sreaders; f = sh.sf; wseq = 0 }

let create mem ~name ~bits ~f ~readers init =
  build mem (shape ~f ~readers) ~name ~bits init

let write t v =
  t.wseq <- t.wseq + 1;
  let x = { ts = t.wseq; v } in
  for j = 0 to t.readers - 1 do
    write_link t.w2r.(j) x
  done

let read t ~reader =
  if reader < 0 || reader >= t.readers then
    invalid_arg "Byzantine.read: reader out of range";
  let best = ref (read_link t.w2r.(reader)) in
  for i = 0 to t.readers - 1 do
    if i <> reader then begin
      let x = read_link t.r2r.(i).(reader) in
      if x.ts > !best.ts then best := x
    end
  done;
  for i = 0 to t.readers - 1 do
    if i <> reader then write_link t.r2r.(reader).(i) !best
  done;
  !best.v

let ghost_peek t =
  let best = ref (peek_link t.w2r.(0)) in
  for j = 1 to t.readers - 1 do
    let x = peek_link t.w2r.(j) in
    if x.ts > !best.ts then best := x
  done;
  !best.v

(* Exact base-register and access accounting, for the space/time
   overhead bench (E18). *)
let replication ~f = (2 * f) + 1
let base_registers ~f ~readers = (readers + (readers * readers)) * replication ~f

let read_cost ~f ~readers =
  (* own post + (readers-1) announcements in, (readers-1) announcements
     out; every link access touches all 2f+1 replicas. *)
  replication ~f * ((2 * readers) - 1)

let write_cost ~f ~readers = replication ~f * readers

(* ------------------------------------------------------------------ *)
(* The construction as a Memory.t                                       *)
(* ------------------------------------------------------------------ *)

let memory ?self ~f ~readers (base : Memory.t) =
  let sh = shape ~f ~readers in
  let self =
    match self with
    | Some s -> s
    | None -> fun () -> (try Sim.self () with Sim.Not_in_simulation -> 0)
  in
  let make : type a. name:string -> bits:int -> a -> a Memory.cell =
   fun ~name ~bits init ->
    let r = build base sh ~name ~bits init in
    {
      Memory.read = (fun () -> read r ~reader:(self ()));
      write = (fun v -> write r v);
      peek = (fun () -> ghost_peek r);
    }
  in
  { Memory.make }
