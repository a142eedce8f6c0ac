open Csim

(* The contents of the register Y[0] (paper: Ytype).  The whole record
   is written in one atomic statement, which is why Y[0]'s width in the
   space recurrence is 4R + CB + B + 2 bits (ids are auxiliary and not
   counted). *)
type 'a y0 = {
  y_item : 'a Item.t;  (* val and (auxiliary) id *)
  seq : int array array;  (* seq[0..1][0..R-1], each 0..2 *)
  ss : 'a Item.t array;  (* ss[0..C-1]: Writer 0's last snapshot *)
  wc : int;  (* modulo-3 write counter *)
}

(* A C/B/1/R register.  [Rec] is the recursive case of Figure 3; its
   [rest] field is the (C-1)-component register Y[1..C-1], which stores
   the *items* written by Writers 1..C-1 — hence the nested (non-regular)
   type ['a Item.t t], traversed below with polymorphic recursion. *)
(* Which branch of Reader statement 8 a scan took (observability only;
   the algorithm itself never reads this). *)
type case =
  | Case_snapshot_seq  (* e.seq[1,j] = newseq: borrowed Writer 0's ss *)
  | Case_snapshot_wc  (* e.wc = a.wc (+) 2: borrowed Writer 0's ss *)
  | Case_ab  (* a.wc = c.wc: returned (a, b) *)
  | Case_cd  (* otherwise: returned (c, d) *)

type 'a t =
  | Base of {
      cell : 'a Item.t Memory.cell;
      mutable base_wid : int;
      base_readers : int;
      base_note : (string -> unit) option;
      base_level : int;
    }
  | Rec of {
      c : int;  (* components at this level *)
      r : int;  (* readers at this level *)
      note : (string -> unit) option;  (* span-marker sink (observability) *)
      level : int;  (* recursion depth: 0 at the outermost register *)
      y0 : 'a y0 Memory.cell;
      z : int Memory.cell array;  (* Z[0..R-1] *)
      rest : 'a Item.t t;  (* Y[1..C-1]: C-1 components, R+1 readers *)
      (* Writer 0's private persistent variables (paper: initialization
         clause of procedure Writer0). *)
      mutable w_wc : int;
      mutable w_item : 'a Item.t;
      mutable w_seq0 : int array;
      mutable w_seq1 : int array;
      mutable w_ss : 'a Item.t array;
      (* Writer i's private persistent item.id, for i in 1..C-1. *)
      w_ids : int array;
      (* Debug: branch taken by each reader's most recent scan at this
         level (one slot per reader; never read by the algorithm). *)
      dbg_case : case option array;
    }

let mod3 x = x mod 3

(* Span markers bracketing one operation at one recursion level, so a
   reconstructed trace exhibits the C -> C-1 nesting.  No-ops (and no
   string allocation) when the register was created without [note]. *)
let span note marker op level =
  match note with
  | None -> ()
  | Some f -> f (marker (Printf.sprintf "%s@%d" op level))

let rec create : type a. Memory.t -> prefix:string ->
    note:(string -> unit) option -> level:int -> readers:int ->
    bits_per_value:int -> init:a array -> a t =
 fun mem ~prefix ~note ~level ~readers ~bits_per_value ~init ->
  let c = Array.length init in
  if c < 1 then invalid_arg "Anderson.create: need at least one component";
  if readers < 1 then invalid_arg "Anderson.create: need at least one reader";
  if c = 1 then
    Base
      {
        cell =
          mem.Memory.make
            ~name:(prefix ^ ".Y0")
            ~bits:bits_per_value (Item.initial init.(0));
        base_wid = 0;
        base_readers = readers;
        base_note = note;
        base_level = level;
      }
  else begin
    let r = readers in
    let initial_items = Array.map Item.initial init in
    let y0_init =
      {
        y_item = initial_items.(0);
        seq = [| Array.make r 0; Array.make r 0 |];
        ss = Array.copy initial_items;
        wc = 0;
      }
    in
    let y0 =
      mem.Memory.make
        ~name:(prefix ^ ".Y0")
        ~bits:((4 * r) + (c * bits_per_value) + bits_per_value + 2)
        y0_init
    in
    let z =
      Array.init r (fun j ->
          mem.Memory.make ~name:(prefix ^ ".Z" ^ string_of_int j) ~bits:2 0)
    in
    let rest =
      create mem
        ~prefix:(prefix ^ "'")
        ~note ~level:(level + 1) ~readers:(r + 1) ~bits_per_value
        ~init:(Array.sub initial_items 1 (c - 1))
    in
    Rec
      {
        c;
        r;
        note;
        level;
        y0;
        z;
        rest;
        w_wc = y0_init.wc;
        w_item = y0_init.y_item;
        w_seq0 = Array.make r 0;
        w_seq1 = Array.copy y0_init.seq.(1);
        w_ss = Array.copy y0_init.ss;
        w_ids = Array.make (c - 1) 0;
        dbg_case = Array.make r None;
      }
  end

(* procedure Reader(j) — statements 0..9 of Figure 3. *)
let rec scan_items : type a. a t -> reader:int -> a Item.t array =
 fun t ~reader ->
  match t with
  | Base b ->
    span b.base_note Trace.span_begin "scan" b.base_level;
    let v = [| b.cell.Memory.read () |] in
    span b.base_note Trace.span_end "scan" b.base_level;
    v
  | Rec g ->
    let j = reader in
    if j < 0 || j >= g.r then invalid_arg "Anderson.scan_items: bad reader";
    span g.note Trace.span_begin "scan" g.level;
    (* 0: read x := Y[0] *)
    let x = g.y0.Memory.read () in
    (* 1: select newseq differing from both of Writer 0's copies *)
    let newseq =
      let forbidden0 = x.seq.(0).(j) and forbidden1 = x.seq.(1).(j) in
      let rec pick v =
        if v <> forbidden0 && v <> forbidden1 then v else pick (v + 1)
      in
      pick 0
    in
    assert (newseq <= 2);
    (* 2: write Z[j] := newseq *)
    g.z.(j).Memory.write newseq;
    (* 3: read a := Y[0] *)
    let a = g.y0.Memory.read () in
    (* 4: read b := Y[1..C-1] (snapshot of the other Writers) *)
    let b = Item.values (scan_items g.rest ~reader:j) in
    (* 5: read c := Y[0] *)
    let c = g.y0.Memory.read () in
    (* 6: read d := Y[1..C-1] *)
    let d = Item.values (scan_items g.rest ~reader:j) in
    (* 7: read e := Y[0] *)
    let e = g.y0.Memory.read () in
    (* 8: the three-way case analysis *)
    let result =
      if e.seq.(1).(j) = newseq then begin
        g.dbg_case.(j) <- Some Case_snapshot_seq;
        Array.copy e.ss
      end
      else if e.wc = mod3 (a.wc + 2) then begin
        g.dbg_case.(j) <- Some Case_snapshot_wc;
        Array.copy e.ss
      end
      else if a.wc = c.wc then begin
        g.dbg_case.(j) <- Some Case_ab;
        Array.append [| a.y_item |] b
      end
      else begin
        (* c.wc = e.wc *)
        g.dbg_case.(j) <- Some Case_cd;
        Array.append [| c.y_item |] d
      end
    in
    span g.note Trace.span_end "scan" g.level;
    result

(* procedure Writer0(val) — statements 0..8; and procedure
   Writer(i, val) for i >= 1, which performs an (i-1)-Write of the inner
   register with a freshly wrapped item. *)
let rec update : type a. a t -> writer:int -> a -> int =
 fun t ~writer v ->
  match t with
  | Base b ->
    if writer <> 0 then invalid_arg "Anderson.update: bad writer";
    span b.base_note Trace.span_begin "update" b.base_level;
    b.base_wid <- b.base_wid + 1;
    b.cell.Memory.write { Item.v; id = b.base_wid };
    span b.base_note Trace.span_end "update" b.base_level;
    b.base_wid
  | Rec g ->
    if writer < 0 || writer >= g.c then invalid_arg "Anderson.update: bad writer";
    span g.note Trace.span_begin "update" g.level;
    if writer = 0 then begin
      (* 0: wc, item.val, item.id := wc (+) 1, val, item.id + 1 *)
      g.w_wc <- mod3 (g.w_wc + 1);
      g.w_item <- { Item.v; id = g.w_item.Item.id + 1 };
      (* 1, 2.n: read seq[0, n] := Z[n] for each reader *)
      for n = 0 to g.r - 1 do
        g.w_seq0.(n) <- g.z.(n).Memory.read ()
      done;
      (* 3: write Y[0] (first copy: new val/wc/seq[0], old ss/seq[1]) *)
      g.y0.Memory.write
        {
          y_item = g.w_item;
          seq = [| Array.copy g.w_seq0; Array.copy g.w_seq1 |];
          ss = Array.copy g.w_ss;
          wc = g.w_wc;
        };
      (* 4: read y := Y[1..C-1] (snapshot of the other Writers) *)
      let y = Item.values (scan_items g.rest ~reader:g.r) in
      (* 5: ss := item, y[1..C-1] *)
      g.w_ss <- Array.append [| g.w_item |] y;
      (* 6: seq[1] := seq[0] *)
      g.w_seq1 <- Array.copy g.w_seq0;
      (* 7: write Y[0] (second copy: now with fresh ss and seq[1]) *)
      g.y0.Memory.write
        {
          y_item = g.w_item;
          seq = [| Array.copy g.w_seq0; Array.copy g.w_seq1 |];
          ss = Array.copy g.w_ss;
          wc = g.w_wc;
        };
      span g.note Trace.span_end "update" g.level;
      g.w_item.Item.id
    end
    else begin
      (* Writer i, i in 1..C-1: statements 0..2. *)
      let i = writer in
      let id = g.w_ids.(i - 1) + 1 in
      g.w_ids.(i - 1) <- id;
      (* 1: write Y[i] := item — a (i-1)-Write of the inner register. *)
      let (_ : int) = update g.rest ~writer:(i - 1) { Item.v; id } in
      span g.note Trace.span_end "update" g.level;
      id
    end

let components = function Base _ -> 1 | Rec g -> g.c
let readers = function Base b -> b.base_readers | Rec g -> g.r

let last_case ?(reader = 0) = function
  | Base _ -> None
  | Rec g -> g.dbg_case.(reader)

(* Ghost view of the register's current logical contents: the item most
   recently written to each component.  Performs no events (uses cell
   peeks), so observers may call it between any two events to track the
   abstract state — this is how the executable Lemma 2 check works. *)
let rec ghost_items : type a. a t -> a Item.t array = function
  | Base b -> [| b.cell.Memory.peek () |]
  | Rec g ->
    let y0 = g.y0.Memory.peek () in
    Array.append [| y0.y_item |] (Item.values (ghost_items g.rest))

let rec depth_registers : type a. a t -> int = function
  | Base _ -> 1
  | Rec g -> 1 + Array.length g.z + depth_registers g.rest

let create ?note mem ~readers ~bits_per_value ~init =
  create mem ~prefix:"A" ~note ~level:0 ~readers ~bits_per_value ~init

let handle t =
  {
    Snapshot.components = components t;
    readers = readers t;
    scan_items = (fun ~reader -> scan_items t ~reader);
    update = (fun ~writer v -> update t ~writer v);
    caps = Composite_intf.static_caps;
  }
