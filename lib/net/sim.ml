exception Not_in_network
exception Stuck of string

type payload = ..

type addr = Client of int | Replica of int

type ctx = { trace : int; span : int }

type packet = {
  src : addr;
  dst : addr;
  seq : int;
  payload : payload;
  lamport : int;  (* sender's Lamport clock after the send tick *)
  ctx : ctx option;  (* causal trace/span the message belongs to *)
}

type handler = replica:int -> src:int -> payload -> (int * payload) list

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable to_crashed : int;
  mutable expired : int;
  mutable timeouts : int;
}

type byz_flavor = Forge_ts | Stale_replies | Equivocate | Mute

let byz_flavor_to_string = function
  | Forge_ts -> "forge"
  | Stale_replies -> "stale"
  | Equivocate -> "equivocate"
  | Mute -> "mute"

let byz_flavor_of_string = function
  | "forge" -> Some Forge_ts
  | "stale" -> Some Stale_replies
  | "equivocate" -> Some Equivocate
  | "mute" -> Some Mute
  | _ -> None

let byz_replica_to_string (r, fl) =
  Printf.sprintf "%d:%s" r (byz_flavor_to_string fl)

let byz_replica_of_string s =
  match String.split_on_char ':' s with
  | [ r; fl ] -> (
    match (int_of_string_opt r, byz_flavor_of_string fl) with
    | Some r, Some fl -> Ok (r, fl)
    | None, _ -> Error (Printf.sprintf "bad replica number %S" r)
    | _, None ->
      Error
        (Printf.sprintf "unknown flavor %S (forge|stale|equivocate|mute)" fl))
  | _ -> Error "expected REPLICA:FLAVOR, e.g. 1:forge"

type byz_stat = {
  mutable forged : int;
  mutable stale_served : int;
  mutable equivocations : int;
  mutable muted : int;
}

let byz_misbehaviors s = s.forged + s.stale_served + s.equivocations + s.muted

type stats = {
  steps : int;
  sent : int;
  delivered : int;
  lost : int;
  to_crashed : int;
  expired : int;
  timeouts : int;
}

type event_kind =
  | Ev_send
  | Ev_deliver
  | Ev_loss
  | Ev_to_crashed
  | Ev_expire
  | Ev_timeout

type event = {
  at : int;
  kind : event_kind;
  e_src : addr;
  e_dst : addr;
  e_seq : int;
  e_payload : payload option;
  e_lamport : int;
  e_ctx : ctx option;
}

type env = {
  n_replicas : int;
  loss : float;
  crash_at : int array;  (* per replica: messages handled before it stops *)
  byzantine : (int * byz_flavor) list;
  flavors : byz_flavor option array;  (* per replica *)
  byz : byz_stat array;  (* per replica, indexed by replica id *)
  prng : Csim.Schedule.Prng.t;
  mutable handler : handler option;
  (* In-flight packets in ascending seq order (sends append):
     [flight.(0 .. in_flight - 1)], the rest of the array is padding. *)
  mutable flight : packet array;
  mutable in_flight : int;
  mutable next_seq : int;
  mutable step : int;
  ctr : counters;
  log : bool;
  mutable events : event list;  (* newest first *)
  handled : int array;  (* per replica: messages processed so far *)
  replica_addr : addr array;  (* [Replica r], built once *)
  replica_clock : int array;  (* per-replica Lamport clocks *)
  mutable client_clock : int array;  (* per-client Lamport clocks, grown on demand *)
  mutable client_ctx : ctx option array;  (* current causal ctx per client *)
}

type payload += No_payload

let no_packet =
  { src = Client 0; dst = Client 0; seq = -1; payload = No_payload; lamport = 0;
    ctx = None }

(* [a] extended with [fill] so that index [i] is valid. *)
let grow a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let create ?(loss = 0.0) ?(crashes = []) ?(byzantine = []) ?(log = false)
    ~replicas ~seed () =
  if replicas < 1 then invalid_arg "Net.Sim.create: need at least one replica";
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Net.Sim.create: loss probability must be in [0, 1)";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r, k) ->
      if r < 0 || r >= replicas then
        invalid_arg
          (Printf.sprintf "Net.Sim.create: crash names replica %d (of %d)" r
             replicas);
      if k < 0 then
        invalid_arg "Net.Sim.create: crash point must be non-negative";
      if Hashtbl.mem seen r then
        invalid_arg
          (Printf.sprintf "Net.Sim.create: duplicate crash for replica %d" r);
      Hashtbl.add seen r ())
    crashes;
  List.iter
    (fun (r, _) ->
      if r < 0 || r >= replicas then
        invalid_arg
          (Printf.sprintf
             "Net.Sim.create: byzantine names replica %d (of %d)" r replicas);
      if Hashtbl.mem seen r then
        invalid_arg
          (Printf.sprintf
             "Net.Sim.create: replica %d is both crashed and byzantine (or \
              named twice)"
             r);
      Hashtbl.add seen r ())
    byzantine;
  (* ABD liveness needs a majority of replicas that answer: crash-stops
     and mute Byzantines both silence a replica for good. *)
  let silent =
    List.length crashes
    + List.length (List.filter (fun (_, fl) -> fl = Mute) byzantine)
  in
  if 2 * silent >= replicas then
    invalid_arg
      (Printf.sprintf
         "Net.Sim.create: %d silent replica(s) among %d — need f < n/2" silent
         replicas);
  {
    n_replicas = replicas;
    loss;
    crash_at =
      (let a = Array.make replicas max_int in
       List.iter (fun (r, k) -> a.(r) <- k) crashes;
       a);
    byzantine;
    flavors =
      (let a = Array.make replicas None in
       List.iter (fun (r, fl) -> a.(r) <- Some fl) byzantine;
       a);
    byz =
      Array.init replicas (fun _ ->
          { forged = 0; stale_served = 0; equivocations = 0; muted = 0 });
    prng = Csim.Schedule.Prng.make seed;
    handler = None;
    flight = Array.make 16 no_packet;
    in_flight = 0;
    next_seq = 0;
    step = 0;
    ctr =
      {
        sent = 0;
        delivered = 0;
        lost = 0;
        to_crashed = 0;
        expired = 0;
        timeouts = 0;
      };
    log;
    events = [];
    handled = Array.make replicas 0;
    replica_addr = Array.init replicas (fun r -> Replica r);
    replica_clock = Array.make replicas 0;
    client_clock = [||];
    client_ctx = [||];
  }

let replicas env = env.n_replicas
let now env = env.step
let set_handler env h = env.handler <- Some h
let events env = List.rev env.events

let lamport env = function
  | Replica r -> if r >= 0 && r < env.n_replicas then env.replica_clock.(r) else 0
  | Client c ->
    if c >= 0 && c < Array.length env.client_clock then env.client_clock.(c)
    else 0

let tick env node witnessed =
  let c = max (lamport env node) witnessed + 1 in
  (match node with
  | Replica r -> env.replica_clock.(r) <- c
  | Client j ->
    env.client_clock <- grow env.client_clock j 0;
    env.client_clock.(j) <- c);
  c

let set_context env ~client ctx =
  env.client_ctx <- grow env.client_ctx client None;
  env.client_ctx.(client) <- ctx

let context env ~client =
  if client >= 0 && client < Array.length env.client_ctx then
    env.client_ctx.(client)
  else None

let crashed env r = env.handled.(r) >= env.crash_at.(r)
let byz_flavor env r = env.flavors.(r)
let byz_stat env r = env.byz.(r)

let byz_stats env =
  List.map (fun (r, fl) -> (r, fl, env.byz.(r))) env.byzantine

let totals env =
  {
    steps = env.step;
    sent = env.ctr.sent;
    delivered = env.ctr.delivered;
    lost = env.ctr.lost;
    to_crashed = env.ctr.to_crashed;
    expired = env.ctr.expired;
    timeouts = env.ctr.timeouts;
  }

(* Callers test [env.log] first, so an unlogged run never builds the
   event or its [Some] boxes. *)
let record env kind ~src ~dst ~seq ~payload ~lamport ~ctx =
  env.events <-
    { at = env.step; kind; e_src = src; e_dst = dst; e_seq = seq;
      e_payload = payload; e_lamport = lamport; e_ctx = ctx }
    :: env.events

let record_packet env kind ~lamport p =
  record env kind ~src:p.src ~dst:p.dst ~seq:p.seq ~payload:(Some p.payload)
    ~lamport ~ctx:p.ctx

(* ------------------------------------------------------------------ *)
(* Transport                                                          *)
(* ------------------------------------------------------------------ *)

let transmit env ~src ~dst ~ctx p =
  (* Causal context: explicit (replica replies inherit the request's),
     else the sending client's current context, if any. *)
  let ctx =
    match (ctx, src) with
    | Some _, _ -> ctx
    | None, Client c -> context env ~client:c
    | None, Replica _ -> None
  in
  let lamport = tick env src 0 in
  let seq = env.next_seq in
  env.next_seq <- seq + 1;
  env.ctr.sent <- env.ctr.sent + 1;
  let p = { src; dst; seq; payload = p; lamport; ctx } in
  if env.log then record_packet env Ev_send ~lamport:p.lamport p;
  if env.loss > 0.0 && Csim.Schedule.Prng.float env.prng < env.loss then begin
    env.ctr.lost <- env.ctr.lost + 1;
    if env.log then record_packet env Ev_loss ~lamport:p.lamport p
  end
  else begin
    env.flight <- grow env.flight env.in_flight no_packet;
    env.flight.(env.in_flight) <- p;
    env.in_flight <- env.in_flight + 1
  end

(* Drop the in-flight packet at index [j], keeping seq order. *)
let remove_flight env j =
  let n = env.in_flight - 1 in
  Array.blit env.flight (j + 1) env.flight j (n - j);
  env.flight.(n) <- no_packet;
  env.in_flight <- n

(* ------------------------------------------------------------------ *)
(* Client-side effects                                                *)
(* ------------------------------------------------------------------ *)

(* What a running client is told about itself, built once per client. *)
type client = { net : env; id : int; addr : addr }

type _ Effect.t +=
  | Net_here : client Effect.t
  | Net_recv : packet option Effect.t

let here () =
  try Effect.perform Net_here with Effect.Unhandled _ -> raise Not_in_network

let send r p =
  let c = here () in
  let env = c.net in
  if r < 0 || r >= env.n_replicas then
    invalid_arg
      (Printf.sprintf "Net.Sim.send: replica %d out of range 0..%d" r
         (env.n_replicas - 1));
  transmit env ~src:c.addr ~dst:env.replica_addr.(r) ~ctx:None p

let recv () =
  try Effect.perform Net_recv with Effect.Unhandled _ -> raise Not_in_network

let self () = (here ()).id

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

(* A client blocked in [recv] keeps one record whose continuation is
   overwritten at every park. *)
type state =
  | Not_started of (unit -> unit)
  | At_recv of { mutable k : (packet option, unit) Effect.Deep.continuation }
  | Finished

let start state me ~on_return f =
  let open Effect.Deep in
  let i = me.id in
  let park =
    Some
      (fun (k : (packet option, unit) continuation) ->
        match state.(i) with
        | At_recv r -> r.k <- k
        | Not_started _ | Finished -> state.(i) <- At_recv { k })
  in
  let here = Some (fun (k : (client, unit) continuation) -> continue k me) in
  match_with f ()
    {
      retc =
        (fun () ->
          state.(i) <- Finished;
          on_return ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Net_recv -> (park : ((a, unit) continuation -> unit) option)
          | Net_here -> (here : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

exception Unwind

(* Free the fiber of every client still blocked in [recv] when [run]
   escapes with an exception ([Stuck], a bad script), running its
   finalisers. *)
let unwind state =
  Array.iteri
    (fun i _ ->
      let rec go () =
        match state.(i) with
        | At_recv r ->
          let k = r.k in
          (try Effect.Deep.discontinue k Unwind with _ -> ());
          (match state.(i) with
          | At_recv r' when r'.k != k -> go ()
          | _ -> state.(i) <- Finished)
        | Not_started _ | Finished -> ()
      in
      go ())
    state

let run env ?(policy = Csim.Schedule.Round_robin) ?(max_steps = 200_000) procs =
  (match env.handler with
  | None ->
    invalid_arg
      "Net.Sim.run: no replica handler installed (e.g. via Net.Abd.create)"
  | Some _ -> ());
  let nc = Array.length procs in
  let state = Array.map (fun f -> Not_started f) procs in
  let me = Array.init nc (fun id -> { net = env; id; addr = Client id }) in
  let start_step = env.step in
  let c0 = totals env in
  let driver = Csim.Schedule.driver policy in
  (* [ids.(n)] is the enabled array [|0; ...; n - 1|] handed to the
     policy when there are [n] actions, built on first use. *)
  let ids = ref [||] in
  let enabled n =
    if n >= Array.length !ids then ids := grow !ids n [||];
    if Array.length !ids.(n) <> n then !ids.(n) <- Array.init n Fun.id;
    !ids.(n)
  in
  let waiting j = match state.(j) with At_recv _ -> true | _ -> false in
  let unstarted = ref nc in
  (* Set when a packet in flight may be addressed to a returned client:
     that client returned, or a replica replied to a returned client. *)
  let stale = ref false in
  let on_return () = stale := true in
  (* Packets addressed to a client that already returned can never be
     consumed; expire them so they stop showing up as enabled actions. *)
  let purge () =
    stale := false;
    let kept = ref 0 in
    for j = 0 to env.in_flight - 1 do
      let p = env.flight.(j) in
      match p.dst with
      | Client c when (match state.(c) with Finished -> true | _ -> false) ->
        env.ctr.expired <- env.ctr.expired + 1;
        if env.log then record_packet env Ev_expire ~lamport:p.lamport p
      | _ ->
        env.flight.(!kept) <- p;
        incr kept
    done;
    Array.fill env.flight !kept (env.in_flight - !kept) no_packet;
    env.in_flight <- !kept
  in
  let deliver p =
    env.step <- env.step + 1;
    match p.dst with
    | Replica r ->
      if crashed env r then begin
        env.ctr.to_crashed <- env.ctr.to_crashed + 1;
        if env.log then record_packet env Ev_to_crashed ~lamport:p.lamport p
      end
      else begin
        env.handled.(r) <- env.handled.(r) + 1;
        env.ctr.delivered <- env.ctr.delivered + 1;
        let lamport = tick env p.dst p.lamport in
        if env.log then record_packet env Ev_deliver ~lamport p;
        let src =
          match p.src with Client c -> c | Replica _ -> assert false
        in
        let handler = Option.get env.handler in
        List.iter
          (fun (c, reply) ->
            if c < 0 || c >= nc then
              invalid_arg
                (Printf.sprintf
                   "Net.Sim: replica %d replied to unknown client %d" r c);
            (match state.(c) with
            | Finished -> stale := true
            | At_recv _ -> ()
            | Not_started _ ->
              invalid_arg
                (Printf.sprintf
                   "Net.Sim: replica %d replied to client %d, which has not \
                    started"
                   r c));
            (* Replies join the causal trace of the request. *)
            transmit env ~src:p.dst ~dst:me.(c).addr ~ctx:p.ctx reply)
          (handler ~replica:r ~src p.payload)
      end
    | Client j -> (
      env.ctr.delivered <- env.ctr.delivered + 1;
      let lamport = tick env p.dst p.lamport in
      if env.log then record_packet env Ev_deliver ~lamport p;
      match state.(j) with
      | At_recv r -> Effect.Deep.continue r.k (Some p)
      | _ -> assert false)
  in
  let check_budget () =
    if env.step - start_step > max_steps then
      raise
        (Stuck
           (Printf.sprintf
              "network made no progress after %d steps (%d packets in \
               flight, %d timeouts)"
              max_steps env.in_flight
              (env.ctr.timeouts - c0.timeouts)))
  in
  (* The actions, in canonical order, are the unstarted clients by id
     and then the deliverable packets by seq; the policy picks an index
     into that list.  Packets go from a client to a replica or from a
     replica to a client that has started, which is blocked in [recv]
     unless it returned; so once the packets to returned clients are
     purged, every packet in flight is deliverable and packet action
     [k] is [flight.(k)]. *)
  let rec loop () =
    if !stale then purge ();
    let actions = !unstarted + env.in_flight in
    if actions = 0 then begin
      (* Quiescent: either everything returned, or every live client is
         blocked in [recv] with nothing in flight — fire a timeout so
         protocols can retransmit. *)
      let rec first_waiting j =
        if j = nc then -1 else if waiting j then j else first_waiting (j + 1)
      in
      let j = first_waiting 0 in
      if j >= 0 then begin
        check_budget ();
        env.step <- env.step + 1;
        env.ctr.timeouts <- env.ctr.timeouts + 1;
        let addr = me.(j).addr in
        let lamport = tick env addr 0 in
        if env.log then
          record env Ev_timeout ~src:addr ~dst:addr ~seq:(-1) ~payload:None
            ~lamport ~ctx:None;
        (match state.(j) with
        | At_recv r -> Effect.Deep.continue r.k None
        | _ -> assert false);
        loop ()
      end
    end
    else begin
      check_budget ();
      let idx =
        Csim.Schedule.pick driver ~enabled:(enabled actions) ~step:env.step
      in
      if idx < !unstarted then begin
        (* The [idx]-th unstarted client. *)
        let rec nth i left =
          match state.(i) with
          | Not_started f when left = 0 ->
            decr unstarted;
            start state me.(i) ~on_return f
          | Not_started _ -> nth (i + 1) (left - 1)
          | At_recv _ | Finished -> nth (i + 1) left
        in
        nth 0 idx
      end
      else begin
        let j = idx - !unstarted in
        let p = env.flight.(j) in
        remove_flight env j;
        deliver p
      end;
      loop ()
    end
  in
  (* The loop ends with every client returned and nothing in flight:
     replica-bound packets stay actions until they are delivered, so
     late requests are still handled and message counts are exact (a
     run with no faults sends precisely the ABD bound), and late acks
     to returned clients have expired. *)
  Fun.protect ~finally:(fun () -> unwind state) loop;
  let c1 = totals env in
  {
    steps = env.step - start_step;
    sent = c1.sent - c0.sent;
    delivered = c1.delivered - c0.delivered;
    lost = c1.lost - c0.lost;
    to_crashed = c1.to_crashed - c0.to_crashed;
    expired = c1.expired - c0.expired;
    timeouts = c1.timeouts - c0.timeouts;
  }
