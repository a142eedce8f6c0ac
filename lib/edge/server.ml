type config = { workers : int; backlog : int; grace : float }

let default_config = { workers = 4; backlog = 64; grace = 1.0 }

type stats = {
  accepted : int;
  disconnects : int;
  hellos : int;
  writes : int;
  posts : int;
  scans : int;
  reshards : int;
  protocol_errors : int;
  op_errors : int;
  fiber_errors : int;
}

type counters = {
  c_accepted : int Atomic.t;
  c_disconnects : int Atomic.t;
  c_hellos : int Atomic.t;
  c_writes : int Atomic.t;
  c_posts : int Atomic.t;
  c_scans : int Atomic.t;
  c_reshards : int Atomic.t;
  c_proto : int Atomic.t;
  c_op : int Atomic.t;
  c_fiber : int Atomic.t;
}

type t = {
  b : Backend.t;
  cfg : config;
  listen : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
  c : counters;
  mutable domains : unit Domain.t list;
  mutable down : bool;
}

let port t = t.port
let backend t = t.b

let stats t =
  {
    accepted = Atomic.get t.c.c_accepted;
    disconnects = Atomic.get t.c.c_disconnects;
    hellos = Atomic.get t.c.c_hellos;
    writes = Atomic.get t.c.c_writes;
    posts = Atomic.get t.c.c_posts;
    scans = Atomic.get t.c.c_scans;
    reshards = Atomic.get t.c.c_reshards;
    protocol_errors = Atomic.get t.c.c_proto;
    op_errors = Atomic.get t.c.c_op;
    fiber_errors = Atomic.get t.c.c_fiber;
  }

(* Socket I/O is optimistic: call [read]/[write] first, and await the
   descriptor only when the kernel answers EAGAIN.  Peer resets surface
   as [End_of_file], which the connection fiber treats as a disconnect. *)
let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Sched.await_writable fd;
      write_all fd buf off len
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      raise End_of_file

(* A connection's read buffer: bytes [pos, lim) of [buf] have arrived
   and are not consumed yet. *)
type inbuf = { mutable buf : bytes; mutable pos : int; mutable lim : int }

let inbuf_size = 4096

(* Buffer at least [need] unconsumed bytes ([need] <= [Wire.max_payload],
   as [Wire.decode_length] checked).  One read takes whatever the socket
   holds that fits, so a frame sent in one write arrives in one read. *)
let rec fill fd ib need =
  let have = ib.lim - ib.pos in
  if have < need then begin
    if have = 0 || ib.pos + need > Bytes.length ib.buf then begin
      (* Move the rest to the front of a buffer sized for [need]: a large
         frame grows it to the frame, and the next one shrinks it back. *)
      let size = max need inbuf_size in
      let dst = if Bytes.length ib.buf = size then ib.buf else Bytes.create size in
      Bytes.blit ib.buf ib.pos dst 0 have;
      ib.buf <- dst;
      ib.pos <- 0;
      ib.lim <- have
    end;
    (match Unix.read fd ib.buf ib.lim (Bytes.length ib.buf - ib.lim) with
    | 0 -> raise End_of_file
    | n -> ib.lim <- ib.lim + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Sched.await_readable fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      raise End_of_file);
    fill fd ib need
  end

(* The next [n] buffered bytes, consumed. *)
let take ib n =
  let b = Bytes.sub ib.buf ib.pos n in
  ib.pos <- ib.pos + n;
  b

let send_response fd resp =
  let b = Wire.encode_response resp in
  write_all fd b 0 (Bytes.length b)

let exec t ~worker = function
  | Wire.Hello ->
    Atomic.incr t.c.c_hellos;
    Wire.Hello_ok { components = t.b.Backend.components }
  | Wire.Write { component; value } ->
    Atomic.incr t.c.c_writes;
    Wire.Write_ok { id = t.b.Backend.write ~worker ~component value }
  | Wire.Post { component; value } ->
    Atomic.incr t.c.c_posts;
    t.b.Backend.post ~worker ~component value;
    Wire.Post_ok
  | Wire.Scan ->
    Atomic.incr t.c.c_scans;
    Wire.Scan_ok (t.b.Backend.scan ~worker)
  | Wire.Reshard { shards } -> (
    (* Serialized by the serving layer itself; open connections keep
       flowing — the epoch switch is atomic through the outer register. *)
    match t.b.Backend.caps.Composite.Composite_intf.reconfigure with
    | None ->
      invalid_arg (t.b.Backend.label ^ ": backend is not reconfigurable")
    | Some f ->
      f ~shards;
      Atomic.incr t.c.c_reshards;
      Wire.Reshard_ok
        { epoch = t.b.Backend.caps.Composite.Composite_intf.epoch () })

let serve_conn t ~worker fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr t.c.c_disconnects;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let ib = { buf = Bytes.create inbuf_size; pos = 0; lim = 0 } in
        let continue = ref true in
        while !continue && not (Atomic.get t.stop) do
          fill fd ib 4;
          match Wire.decode_length (take ib 4) with
          | Error msg ->
            (* Framing is gone: report, close, survive. *)
            Atomic.incr t.c.c_proto;
            send_response fd (Wire.Error msg);
            continue := false
          | Ok n -> (
            fill fd ib n;
            match Wire.decode_request (take ib n) with
            | Error msg ->
              Atomic.incr t.c.c_proto;
              send_response fd (Wire.Error msg);
              continue := false
            | Ok req ->
              let resp =
                (* A well-formed request the backend rejects (component
                   out of range, simulator refusal) answers ['e'] but
                   keeps the connection. *)
                try exec t ~worker req
                with Invalid_argument msg ->
                  Atomic.incr t.c.c_op;
                  Wire.Error msg
              in
              send_response fd resp;
              (* Bytes left over came pipelined behind this frame: give
                 the domain's other fibers a select round before them. *)
              if ib.lim > ib.pos then Sched.yield ())
        done
      with End_of_file -> ())

let acceptor t ~worker sched () =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      Sched.await_readable t.listen;
      (match Unix.accept ~cloexec:true t.listen with
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
              | Unix.ECONNABORTED ),
              _,
              _ ) ->
        ()
      | fd, _ ->
        Atomic.incr t.c.c_accepted;
        Sched.spawn sched (fun () -> serve_conn t ~worker fd));
      loop ()
    end
  in
  loop ()

let worker_main t worker () =
  let sched =
    Sched.create ~on_error:(fun _ -> Atomic.incr t.c.c_fiber) ()
  in
  Sched.spawn sched (acceptor t ~worker sched);
  Sched.run sched ~grace:t.cfg.grace
    ~on_stop:(fun () -> Sched.cancel_fd sched t.listen)
    ~before_select:(fun () -> t.b.Backend.drain_ready ~worker)
    ~stop:(fun () -> Atomic.get t.stop)

let start ?(config = default_config) b =
  if config.workers < 1 then
    invalid_arg "Edge.Server.start: workers must be >= 1";
  (* A reply written to a peer that reset must fail with EPIPE, which
     [write_all] turns into a disconnect, instead of killing the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen config.backlog;
  Unix.set_nonblock listen;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let atomic0 () = Atomic.make 0 in
  let t =
    {
      b;
      cfg = config;
      listen;
      port;
      stop = Atomic.make false;
      c =
        {
          c_accepted = atomic0 ();
          c_disconnects = atomic0 ();
          c_hellos = atomic0 ();
          c_writes = atomic0 ();
          c_posts = atomic0 ();
          c_scans = atomic0 ();
          c_reshards = atomic0 ();
          c_proto = atomic0 ();
          c_op = atomic0 ();
          c_fiber = atomic0 ();
        };
      domains = [];
      down = false;
    }
  in
  t.domains <-
    List.init config.workers (fun w -> Domain.spawn (worker_main t w));
  t

let shutdown t =
  if t.down then Ok ()
  else begin
    t.down <- true;
    Atomic.set t.stop true;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    t.b.Backend.shutdown ();
    t.b.Backend.identities_ok ()
  end

let observe t m =
  let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
  let s = stats t in
  c "edge.accepted" s.accepted;
  c "edge.disconnects" s.disconnects;
  c "edge.hello" s.hellos;
  c "edge.write" s.writes;
  c "edge.post" s.posts;
  c "edge.scan" s.scans;
  c "edge.reshard" s.reshards;
  c "edge.protocol_errors" s.protocol_errors;
  c "edge.op_errors" s.op_errors;
  c "edge.fiber_errors" s.fiber_errors
