type Sim.payload +=
  | Read_req of { reg : int; rid : int }
  | Read_ack of { reg : int; rid : int; ts : int; v : exn }
  | Write_req of { reg : int; rid : int; ts : int; v : exn }
  | Write_ack of { reg : int; rid : int }

let payload_label = function
  | Read_req { reg; _ } -> Printf.sprintf "rd?%d" reg
  | Read_ack { reg; ts; _ } -> Printf.sprintf "rd!%d@%d" reg ts
  | Write_req { reg; ts; _ } -> Printf.sprintf "wr?%d@%d" reg ts
  | Write_ack { reg; _ } -> Printf.sprintf "wr!%d" reg
  | _ -> "msg"

type quorum = Majority | Fixed of int

type backoff = { base : int; cap : int; jitter : int }

(* Legacy behavior: retransmit on every timeout.  Exponential backoff
   is opt-in so that pinned counterexample scripts recorded before the
   knob existed keep replaying bit-identically. *)
let no_backoff = { base = 1; cap = 1; jitter = 0 }

(* Timestamp lead of a Forge_ts reply: far past anything an honest
   writer reaches, so the forged pair wins every max-timestamp vote. *)
let forge_lead = 1_000_000

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable rounds : int;
  mutable retransmits : int;
  mutable retrans_suppressed : int;
  mutable backoff_peak : int;
  mutable phase_wait_total : int;
  mutable phase_wait_max : int;
}

(* One replica's registers, indexed by the dense register id: the
   timestamp and value it holds. *)
type store = { mutable ts : int array; mutable vs : exn array }

type t = {
  env : Sim.env;
  n : int;
  quorum : quorum;
  (* The active member set (sorted replica ids).  Reads and writes are
     quorum operations over the members only; the other replicas of the
     environment are passive — alive and answering, but never asked —
     until a {!reconfigure} joins them.  During a reconfiguration
     [trans] holds the incoming member set and every phase requires a
     quorum of BOTH sets (joint quorums): any operation completing
     during the transition is installed where both the old and the new
     configuration's quorums will find it. *)
  mutable members : int array;
  mutable trans : int array option;
  mutable cfg_epoch : int;
  stores : store array;  (* per replica *)
  mutable firsts : exn array;
      (* register id -> initial value, at timestamp 0: the pair lying
         replicas serve as their maximally stale answer *)
  backoff : backoff;
  retry_prng : Csim.Schedule.Prng.t;
  mutable next_reg : int;
  mutable next_rid : int;
  stats : stats;
  on_phase : wait:int -> unit;
  causal : Obs.Causal.t option;
  (* Per epoch, newest first: (epoch, members, cumulative stats at the
     epoch's start, cumulative network sends at its start, registers
     state-transferred by the reconfiguration that opened it). *)
  mutable epoch_log : (int * int array * stats * int * int) list;
}

let snap_stats (st : stats) = { st with reads = st.reads }

let maj set = (Array.length set / 2) + 1

let quorum_of t set =
  match t.quorum with Majority -> maj set | Fixed k -> k

let quorum_size t = quorum_of t t.members
let stats t = t.stats
let epoch t = t.cfg_epoch
let members t = Array.to_list t.members

let check_members ~n ~quorum ~via raw =
  let ms = List.sort_uniq compare raw in
  if ms = [] then invalid_arg (Printf.sprintf "Net.Abd.%s: empty member set" via);
  List.iter
    (fun r ->
      if r < 0 || r >= n then
        invalid_arg
          (Printf.sprintf "Net.Abd.%s: member %d not a replica (0..%d)" via r
             (n - 1)))
    ms;
  (match quorum with
  | Majority -> ()
  | Fixed k ->
    if k < 1 || k > List.length ms then
      invalid_arg
        (Printf.sprintf "Net.Abd.%s: quorum %d not in 1..%d members" via k
           (List.length ms)));
  Array.of_list ms

let create ?(quorum = Majority) ?(backoff = no_backoff) ?(retry_seed = 0)
    ?(on_phase = fun ~wait:_ -> ()) ?causal ?members env =
  let n = Sim.replicas env in
  let members =
    match members with
    | None -> Array.init n (fun r -> r)
    | Some ms -> check_members ~n ~quorum ~via:"create" ms
  in
  if backoff.base < 1 || backoff.cap < backoff.base || backoff.jitter < 0 then
    invalid_arg "Net.Abd.create: backoff wants 1 <= base <= cap, jitter >= 0";
  let t =
    {
      env;
      n;
      quorum;
      members;
      trans = None;
      cfg_epoch = 0;
      stores = Array.init n (fun _ -> { ts = [||]; vs = [||] });
      firsts = [||];
      backoff;
      retry_prng = Csim.Schedule.Prng.make retry_seed;
      next_reg = 0;
      next_rid = 0;
      stats =
        {
          reads = 0;
          writes = 0;
          rounds = 0;
          retransmits = 0;
          retrans_suppressed = 0;
          backoff_peak = 0;
          phase_wait_total = 0;
          phase_wait_max = 0;
        };
      on_phase;
      causal;
      epoch_log = [];
    }
  in
  t.epoch_log <-
    [ (0, members, snap_stats t.stats, (Sim.totals env).Sim.sent, 0) ];
  (* Honest replica logic, shared by every flavor branch that does not
     override the given request. *)
  let honest_read store ~src ~reg ~rid =
    [ (src, Read_ack { reg; rid; ts = store.ts.(reg); v = store.vs.(reg) }) ]
  in
  let honest_write store ~src ~reg ~rid ~ts ~v =
    (* Timestamp rule: adopt strictly newer values only. *)
    if ts > store.ts.(reg) then begin
      store.ts.(reg) <- ts;
      store.vs.(reg) <- v
    end;
    [ (src, Write_ack { reg; rid }) ]
  in
  Sim.set_handler env (fun ~replica ~src payload ->
      let store = t.stores.(replica) in
      match Sim.byz_flavor env replica with
      | None -> (
        match payload with
        | Read_req { reg; rid } -> honest_read store ~src ~reg ~rid
        | Write_req { reg; rid; ts; v } ->
          honest_write store ~src ~reg ~rid ~ts ~v
        | _ -> [])
      | Some flavor -> (
        let st = Sim.byz_stat env replica in
        match flavor with
        | Sim.Mute ->
          (* Swallow every delivery: a silent Byzantine, observationally
             a crash but accounted as misbehavior. *)
          st.Sim.muted <- st.Sim.muted + 1;
          []
        | Sim.Forge_ts -> (
          match payload with
          | Read_req { reg; rid } ->
            (* Serve whatever stale pair it kept, with a forged
               far-future timestamp: honest readers adopt it, write it
               back, and the poison spreads. *)
            st.Sim.forged <- st.Sim.forged + 1;
            [
              ( src,
                Read_ack
                  { reg; rid; ts = store.ts.(reg) + forge_lead;
                    v = store.vs.(reg) } );
            ]
          | Write_req { reg; rid; ts = _; v = _ } ->
            (* A forged ack: pretend to store, keep nothing. *)
            st.Sim.forged <- st.Sim.forged + 1;
            [ (src, Write_ack { reg; rid }) ]
          | _ -> [])
        | Sim.Stale_replies -> (
          match payload with
          | Read_req { reg; rid } ->
            (* Store honestly but always answer with the register's
               initial pair — a maximal timestamp regression. *)
            st.Sim.stale_served <- st.Sim.stale_served + 1;
            [ (src, Read_ack { reg; rid; ts = 0; v = t.firsts.(reg) }) ]
          | Write_req { reg; rid; ts; v } ->
            honest_write store ~src ~reg ~rid ~ts ~v
          | _ -> [])
        | Sim.Equivocate -> (
          match payload with
          | Read_req { reg; rid } ->
            if src land 1 = 0 then honest_read store ~src ~reg ~rid
            else begin
              (* Odd clients are shown the initial pair, even ones the
                 truth: different quorum faces for different readers. *)
              st.Sim.equivocations <- st.Sim.equivocations + 1;
              [ (src, Read_ack { reg; rid; ts = 0; v = t.firsts.(reg) }) ]
            end
          | Write_req { reg; rid; ts; v } ->
            honest_write store ~src ~reg ~rid ~ts ~v
          | _ -> [])));
  t

let fresh_rid t =
  let r = t.next_rid in
  t.next_rid <- r + 1;
  r

(* Causal bookkeeping around one phase: the phase span (child of the
   operation span), one async rpc span per replica request — closed by
   the accepted ack, left unclosed by a silent replica — instant retx
   child spans per retransmission, and a wait span per backoff window.
   All sends inside the phase are stamped with the phase's (trace, span)
   context via [Sim.set_context], so replies and retransmits alike carry
   the phase identity on the wire. *)
type probe = {
  c : Obs.Causal.t;
  client : int;
  ph : Obs.Causal.span;
  rpcs : Obs.Causal.span option array;
  mutable waiting : Obs.Causal.span option;  (* open backoff window *)
}

(* Span names are built only when a collector is attached: [name] is
   completed by the register id. *)
let probe_start t ~op ~name ~reg =
  match t.causal with
  | None -> None
  | Some c ->
    let client = Sim.self () in
    let ph =
      Obs.Causal.start c ?parent:op ~kind:Obs.Causal.Phase ~track:client
        ~at:(Sim.now t.env)
        (name ^ string_of_int reg)
    in
    Sim.set_context t.env ~client
      (Some { Sim.trace = ph.Obs.Causal.trace; span = ph.Obs.Causal.id });
    Some { c; client; ph; rpcs = Array.make t.n None; waiting = None }

let probe_sent t pr ~replica ~retx =
  match pr with
  | None -> ()
  | Some p -> (
    let at = Sim.now t.env in
    match p.rpcs.(replica) with
    | None ->
      p.rpcs.(replica) <-
        Some
          (Obs.Causal.start p.c ~parent:p.ph ~kind:Obs.Causal.Rpc
             ~track:p.client ~at
             (Printf.sprintf "rpc r%d" replica))
    | Some rpc ->
      if retx then begin
        (* An instant child span per retransmission to this replica. *)
        let s =
          Obs.Causal.start p.c ~parent:rpc ~kind:Obs.Causal.Rpc
            ~track:p.client ~at
            (Printf.sprintf "retx r%d" replica)
        in
        Obs.Causal.finish p.c ~at s
      end)

let probe_wait_begin t pr =
  match pr with
  | None -> ()
  | Some p ->
    if p.waiting = None then
      p.waiting <-
        Some
          (Obs.Causal.start p.c ~parent:p.ph ~kind:Obs.Causal.Wait
             ~track:p.client ~at:(Sim.now t.env) "backoff")

let probe_wait_end t pr =
  match pr with
  | None -> ()
  | Some p -> (
    match p.waiting with
    | None -> ()
    | Some w ->
      Obs.Causal.finish p.c ~at:(Sim.now t.env) w;
      p.waiting <- None)

let probe_acked t pr ~replica ~lamport =
  match pr with
  | None -> ()
  | Some p -> (
    match p.rpcs.(replica) with
    | None -> ()
    | Some rpc ->
      Obs.Causal.finish p.c ~at:(Sim.now t.env)
        ~args:[ ("ack_lamport", Obs.Json.Int lamport) ]
        rpc)

let probe_finish t pr ~wait =
  match pr with
  | None -> ()
  | Some p ->
    probe_wait_end t pr;
    (* Unacked rpc spans stay open on purpose: a crashed or mute
       replica's request is visibly unclosed in the export. *)
    Obs.Causal.finish p.c ~at:(Sim.now t.env)
      ~args:[ ("wait", Obs.Json.Int wait) ]
      p.ph;
    Sim.set_context t.env ~client:p.client None

(* One quorum phase: broadcast [payload] to every current target not
   yet heard from, then consume deliveries until the quorum predicate
   holds (acks matched by [on_ack], which also learns which replica the
   ack came from); timeouts retransmit to the laggards under bounded
   exponential backoff — the delay (counted in timeout events) doubles
   up to [cap] plus seeded jitter, and resets to [base] whenever an ack
   is accepted.  Acks are counted per replica, so duplicates from
   retransmission are harmless.

   The target set and the quorum predicate are re-evaluated live on
   every loop iteration rather than captured at phase start.  That is
   the reconfiguration safety argument: the simulator is cooperative,
   so "this phase completed" and "a transition began" are totally
   ordered.  A phase that completes before the transition installs its
   value at a quorum of the old members, which the transfer's joint
   read then meets by old-quorum intersection; a phase still in flight
   when the transition begins picks up the joint predicate on its next
   iteration and must additionally meet a quorum of the incoming set —
   so either way the value is where the next configuration looks. *)
let phase t ?op ~name ~reg payload ~on_ack =
  t.stats.rounds <- t.stats.rounds + 1;
  let started = Sim.now t.env in
  let pr = probe_start t ~op ~name ~reg in
  let acked = Array.make t.n false in
  let count set =
    Array.fold_left (fun acc r -> if acked.(r) then acc + 1 else acc) 0 set
  in
  let quorum_met () =
    count t.members >= quorum_of t t.members
    && match t.trans with
       | None -> true
       | Some tr -> count tr >= quorum_of t tr
  in
  let send_round ~retx =
    let send_to r =
      if not acked.(r) then begin
        Sim.send r payload;
        probe_sent t pr ~replica:r ~retx
      end
    in
    Array.iter send_to t.members;
    Option.iter (Array.iter send_to) t.trans
  in
  send_round ~retx:false;
  let timeouts = ref 0 in
  let delay = ref t.backoff.base in
  let due = ref t.backoff.base in
  while not (quorum_met ()) do
    match Sim.recv () with
    | None ->
      incr timeouts;
      if !timeouts >= !due then begin
        t.stats.retransmits <- t.stats.retransmits + 1;
        probe_wait_end t pr;
        send_round ~retx:true;
        delay := min t.backoff.cap (!delay * 2);
        if !delay > t.stats.backoff_peak then
          t.stats.backoff_peak <- !delay;
        let j =
          if t.backoff.jitter > 0 then
            Csim.Schedule.Prng.int t.retry_prng (t.backoff.jitter + 1)
          else 0
        in
        due := !timeouts + !delay + j
      end
      else begin
        t.stats.retrans_suppressed <- t.stats.retrans_suppressed + 1;
        probe_wait_begin t pr
      end
    | Some pkt -> (
      match pkt.Sim.src with
      | Sim.Replica r when not acked.(r) ->
        if on_ack ~replica:r pkt.Sim.payload then begin
          acked.(r) <- true;
          probe_wait_end t pr;
          probe_acked t pr ~replica:r ~lamport:pkt.Sim.lamport;
          (* Progress: collapse the backoff window. *)
          delay := t.backoff.base;
          due := !timeouts
        end
      | _ -> ())
  done;
  let wait = Sim.now t.env - started in
  t.stats.phase_wait_total <- t.stats.phase_wait_total + wait;
  if wait > t.stats.phase_wait_max then t.stats.phase_wait_max <- wait;
  probe_finish t pr ~wait;
  t.on_phase ~wait

(* The operation-level span: parent of the phases.  [Causal.start]
   resolves its parent to the innermost composite-level note span of
   this client (a Scan/Update bracket), stitching the layers. *)
let op_start t name id =
  match t.causal with
  | None -> None
  | Some c ->
    Some
      (Obs.Causal.start c ~kind:Obs.Causal.Op ~track:(Sim.self ())
         ~at:(Sim.now t.env) (name ^ string_of_int id))

let op_finish t op =
  match (t.causal, op) with
  | Some c, Some sp ->
    let client = sp.Obs.Causal.track in
    Obs.Causal.finish c ~at:(Sim.now t.env)
      ~args:[ ("lamport", Obs.Json.Int (Sim.lamport t.env (Sim.Client client))) ]
      sp
  | _ -> ()

let write_phase t ?op reg ~ts ~v =
  let rid = fresh_rid t in
  phase t ?op ~name:"write reg" ~reg
    (Write_req { reg; rid; ts; v })
    ~on_ack:(fun ~replica:_ -> function
      | Write_ack w -> w.rid = rid
      | _ -> false)

(* SWMR write: one round.  [wts] is the writer's private timestamp
   counter for this register. *)
let write t reg wts v =
  t.stats.writes <- t.stats.writes + 1;
  incr wts;
  let op = op_start t "abd.write reg" reg in
  write_phase t ?op reg ~ts:!wts ~v;
  op_finish t op

(* Read: query round picks the maximum-timestamp value a quorum knows,
   then a write-back round makes that value known to a quorum before
   returning — the step that makes reads atomic rather than merely
   regular (no new/old inversion between non-overlapping reads).
   Returns the adopted value together with the replica whose ack won,
   so the API boundary can name the offender on a shape mismatch. *)
let read t reg =
  t.stats.reads <- t.stats.reads + 1;
  let rid = fresh_rid t in
  let op = op_start t "abd.read reg" reg in
  let best_ts = ref (-1) in
  let best_v = ref None in
  let best_src = ref (-1) in
  phase t ?op ~name:"query reg" ~reg
    (Read_req { reg; rid })
    ~on_ack:(fun ~replica -> function
      | Read_ack a when a.rid = rid ->
        if a.ts > !best_ts then begin
          best_ts := a.ts;
          best_v := Some a.v;
          best_src := replica
        end;
        true
      | _ -> false);
  let ts = !best_ts in
  let v =
    match !best_v with
    | Some v -> v
    | None ->
      (* Unreachable: every store is seeded at register creation, so
         the first matching ack always carries ts >= 0 > -1. *)
      invalid_arg
        (Printf.sprintf "Net.Abd.read: register %d: quorum with no value"
           reg)
  in
  write_phase t ?op reg ~ts ~v;
  op_finish t op;
  (v, !best_src)

(* Online membership change.  Runs as an ordinary client coroutine
   inside [Sim.run]:

   1. Arm the transition: [trans <- Some new_members].  From this
      instant every phase — including ones already in flight — must
      meet a quorum of BOTH member sets (see [phase]).
   2. State transfer: one joint-quorum [read] per allocated register.
      The query meets a quorum of the old members, so by intersection
      it sees the freshest completed write; the read's write-back phase
      then installs that value at a quorum of the incoming set.
   3. Install: [members <- new_members], [trans <- None], epoch++, and
      an epoch-log entry snapshotting the cumulative counters so the
      per-epoch deltas of [epochs] stay exact.

   Transfer traffic is charged to the epoch being closed (the entry for
   the new epoch is pushed after the transfer completes).  Liveness,
   not safety, is the casualty when a joint quorum is unreachable —
   like a crash set beyond f, the phase retransmits forever. *)
let reconfigure t ~members:raw =
  if t.trans <> None then
    invalid_arg "Net.Abd.reconfigure: reconfiguration already in progress";
  let nm = check_members ~n:t.n ~quorum:t.quorum ~via:"reconfigure" raw in
  let op = op_start t "abd.reconfigure e" (t.cfg_epoch + 1) in
  t.trans <- Some nm;
  let transferred = ref 0 in
  for reg = 0 to t.next_reg - 1 do
    ignore (read t reg);
    incr transferred
  done;
  t.members <- nm;
  t.trans <- None;
  t.cfg_epoch <- t.cfg_epoch + 1;
  t.epoch_log <-
    (t.cfg_epoch, nm, snap_stats t.stats, (Sim.totals t.env).Sim.sent,
     !transferred)
    :: t.epoch_log;
  op_finish t op

type epoch_info = {
  ei_epoch : int;
  ei_members : int list;
  ei_transferred : int;
  ei_reads : int;
  ei_writes : int;
  ei_rounds : int;
  ei_retransmits : int;
  ei_sent : int;
}

(* Per-epoch deltas from the cumulative snapshots, oldest first.  The
   diffs telescope: summing any field over all epochs reproduces the
   cumulative total exactly — the accounting identity the reconfig
   tests assert. *)
let epochs t =
  let rec build (upper : stats) upper_sent acc = function
    | [] -> acc
    | (e, ms, (at : stats), at_sent, transferred) :: rest ->
      let info =
        {
          ei_epoch = e;
          ei_members = Array.to_list ms;
          ei_transferred = transferred;
          ei_reads = upper.reads - at.reads;
          ei_writes = upper.writes - at.writes;
          ei_rounds = upper.rounds - at.rounds;
          ei_retransmits = upper.retransmits - at.retransmits;
          ei_sent = upper_sent - at_sent;
        }
      in
      build at at_sent (info :: acc) rest
  in
  build (snap_stats t.stats) (Sim.totals t.env).Sim.sent [] t.epoch_log

(* Ghost read for [Memory.peek]: the freshest value any replica store
   holds, without network traffic.  Also returns the holding replica. *)
let peek t reg =
  let best = ref 0 in
  for r = 1 to t.n - 1 do
    if t.stores.(r).ts.(reg) > t.stores.(!best).ts.(reg) then best := r
  done;
  (t.stores.(!best).vs.(reg), !best)

(* A universal type via an extensible variant, so one monomorphic
   network message type can carry values of every register's type.
   [proj] is total: a payload built by a different register's [inj]
   (or forged by a Byzantine replica) projects to [None] instead of
   crashing mid-quorum — the caller owns the error report. *)
let embed (type a) () : (a -> exn) * (exn -> a option) =
  let module M = struct
    exception E of a
  end in
  ((fun x -> M.E x), function M.E x -> Some x | _ -> None)

let memory t =
  let make : type a. name:string -> bits:int -> a -> a Csim.Memory.cell =
   fun ~name ~bits:_ init ->
    let reg = t.next_reg in
    t.next_reg <- reg + 1;
    let inj, proj = embed () in
    (* Shape validation at the API boundary: a mismatched payload is a
       typed, catchable [Invalid_argument] naming the register and the
       replica that supplied the value — not a [failwith] deep in the
       quorum loop. *)
    let checked ~via (e, replica) =
      match proj e with
      | Some v -> v
      | None ->
        invalid_arg
          (Printf.sprintf
             "Net.Abd.%s: register %d (%s): value of unexpected type \
              from replica %d"
             via reg name replica)
    in
    (* Register ids are dense: [reg] is the next index of every array. *)
    let first = inj init in
    t.firsts <- Array.append t.firsts [| first |];
    Array.iter
      (fun st ->
        st.ts <- Array.append st.ts [| 0 |];
        st.vs <- Array.append st.vs [| first |])
      t.stores;
    let wts = ref 0 in
    {
      Csim.Memory.read = (fun () -> checked ~via:"read" (read t reg));
      write = (fun v -> write t reg wts (inj v));
      peek = (fun () -> checked ~via:"peek" (peek t reg));
    }
  in
  { Csim.Memory.make }
