(* edge-mixed: a TCP loopback client of [Edge.Backend.of_serve] (S = 1,
   C = 64, Afek outer) behind one [Edge.Server] worker.

   The ops are a [Workload.Loadgen.plan]: closed loop, 2 connections,
   80% scans and 20% writes (half sync [write], half [post]), Zipf
   theta 0.9.  The benchmark drives the plan itself, from the calling
   domain, with the same discipline as [Loadgen.run] (one request in
   flight per connection, one [select] over both) so that it can keep
   every latency exactly. *)

let components = 64
let connections = 2
let plan_ops = 20_000
let warmup_ops = 3_000

(* The window is split into [rounds] rounds, each on a freshly set-up
   server and service, so that where the OS placed one round's domains
   weighs one round, not the run: one round's rate ranged from 25k to
   34k ops/s within a run. *)
let rounds = 27

let loadgen_config ~seed =
  {
    Workload.Loadgen.connections;
    clients = 64;
    ops = plan_ops;
    arrival = Workload.Loadgen.Closed_loop;
    write_ratio = 0.2;
    post_ratio = 0.5;
    zipf_theta = 0.9;
    seed;
    domains = 1;
  }

let fingerprint plan =
  let b = Buffer.create (plan_ops * 12) in
  Array.iter
    (fun (p : Workload.Loadgen.planned) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%c:%d:%d;" p.p_conn
           (match p.p_kind with Op_write -> 'w' | Op_post -> 'p' | Op_scan -> 's')
           p.p_component p.p_value))
    plan;
  Util.fingerprint (Buffer.contents b)

let request_of (p : Workload.Loadgen.planned) =
  match p.p_kind with
  | Op_write -> Edge.Wire.Write { component = p.p_component; value = p.p_value }
  | Op_post -> Edge.Wire.Post { component = p.p_component; value = p.p_value }
  | Op_scan -> Edge.Wire.Scan

let kind_index (p : Workload.Loadgen.planned) =
  match p.p_kind with Op_scan -> 0 | Op_write -> 1 | Op_post -> 2

let response_ok (p : Workload.Loadgen.planned) = function
  | Edge.Wire.Write_ok _ -> p.p_kind = Op_write
  | Edge.Wire.Post_ok -> p.p_kind = Op_post
  | Edge.Wire.Scan_ok a -> p.p_kind = Op_scan && Array.length a = components
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Client side                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  queue : Workload.Loadgen.planned array;  (* this connection's ops, plan order *)
  frames : bytes array;  (* encoded requests, same order *)
  mutable pos : int;
  mutable sent_ns : int;
  mutable dead : bool;
}

let read_exact fd buf len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf !got (len - !got) with
    | 0 -> raise End_of_file
    | n -> got := !got + n
  done

let write_all fd b =
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let receive fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 4;
  match Edge.Wire.decode_length hdr with
  | Error e -> Error e
  | Ok n ->
    let payload = Bytes.create n in
    read_exact fd payload n;
    Edge.Wire.decode_response payload

let connect port queue =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    queue;
    frames = Array.map (fun p -> Edge.Wire.encode_request (request_of p)) queue;
    pos = 0;
    sent_ns = 0;
    dead = false;
  }

type tally = {
  mutable done_ : int;
  mutable errors : int;
  mutable stalled : int;
  mutable rtt_sum : int;
}

(* Closed loop over both connections until [until] (monotonic ns) or
   [budget] completed ops, whichever first.  [record kind lat] sees
   every completed op. *)
let drive conns ~until ~budget ~record =
  let t = { done_ = 0; errors = 0; stalled = 0; rtt_sum = 0 } in
  let kill c =
    if not c.dead then begin
      c.dead <- true;
      t.stalled <- t.stalled + 1
    end
  in
  let send c =
    match write_all c.fd c.frames.(c.pos) with
    | () -> c.sent_ns <- Util.now_ns ()
    | exception (End_of_file | Unix.Unix_error _) -> kill c
  in
  Array.iter send conns;
  let stopping = ref false in
  let inflight () = Array.exists (fun c -> not c.dead && c.sent_ns > 0) conns in
  while inflight () do
    let reading =
      Array.fold_left (fun a c -> if (not c.dead) && c.sent_ns > 0 then c.fd :: a else a) [] conns
    in
    match Unix.select reading [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> Array.iter kill conns (* a second without a reply *)
    | ready, _, _ ->
      Array.iter
        (fun c ->
          if (not c.dead) && c.sent_ns > 0 && List.mem c.fd ready then begin
            let op = c.queue.(c.pos) in
            match receive c.fd with
            | exception (End_of_file | Unix.Unix_error _) -> kill c
            | resp ->
              let now = Util.now_ns () in
              let lat = now - c.sent_ns in
              t.done_ <- t.done_ + 1;
              t.rtt_sum <- t.rtt_sum + lat;
              (match resp with
              | Ok r when response_ok op r -> record (kind_index op) lat
              | _ -> t.errors <- t.errors + 1);
              c.pos <- (if c.pos + 1 = Array.length c.queue then 0 else c.pos + 1);
              c.sent_ns <- 0;
              if now >= until || t.done_ >= budget then stopping := true;
              if not !stopping then send c
          end)
        conns
  done;
  t

(* ------------------------------------------------------------------ *)
(* Server side, optionally traced                                       *)
(* ------------------------------------------------------------------ *)

type probes = {
  on : bool Atomic.t;
  backend : Hist.t array;  (* scan, write, post: time inside Backend.t *)
}

(* Wrap the public [Backend.t] closures the server calls, timing each
   call from the server's worker domain. *)
let traced_backend probes (b : Edge.Backend.t) =
  let timed k f =
    if Atomic.get probes.on then begin
      let a = Util.now_ns () in
      let r = f () in
      Hist.add probes.backend.(k) (Util.now_ns () - a);
      r
    end
    else f ()
  in
  {
    b with
    Edge.Backend.scan = (fun ~worker -> timed 0 (fun () -> b.scan ~worker));
    write = (fun ~worker ~component v -> timed 1 (fun () -> b.write ~worker ~component v));
    post = (fun ~worker ~component v -> timed 2 (fun () -> b.post ~worker ~component v));
  }

let init = Array.init components (fun k -> (k + 1) * 10)

let start_server ?probes () =
  let b = Edge.Backend.of_serve ~shards:1 ~workers:1 ~init () in
  let b = match probes with None -> b | Some p -> traced_backend p b in
  Edge.Server.start ~config:{ Edge.Server.workers = 1; backlog = 16; grace = 1.0 } b

let close_all conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

let check_shutdown server =
  match Edge.Server.shutdown server with
  | Ok () -> ()
  | Error msg -> Util.check false "edge-mixed: shutdown identities: %s" msg

(* One server lifetime up to the end of its warm-up. *)
let setup ?probes queues =
  let t0 = Util.now_ns () in
  let server = start_server ?probes () in
  let conns = Array.map (connect (Edge.Server.port server)) queues in
  let w = drive conns ~until:max_int ~budget:warmup_ops ~record:(fun _ _ -> ()) in
  Util.check (w.errors = 0 && w.stalled = 0) "edge-mixed: warm-up had %d errors, %d stalls"
    w.errors w.stalled;
  (server, conns, float_of_int (Util.now_ns () - t0) /. 1e9)

let counter cs k = try List.assoc k cs with Not_found -> 0

let receive_scan c =
  match write_all c.fd (Edge.Wire.encode_request Edge.Wire.Scan) with
  | exception (End_of_file | Unix.Unix_error _) -> None
  | () -> (
    match receive c.fd with
    | Ok (Edge.Wire.Scan_ok a) -> Some a
    | _ | (exception (End_of_file | Unix.Unix_error _)) -> None)

type round = {
  r_setup_s : float;
  r_elapsed_s : float;
  r_lat : Hist.t array;  (* scan, write, post latencies *)
  r_tally : tally;
  r_counters : (string * int) list;  (* backend counter deltas over the window *)
  r_server : int array;  (* scans, writes, posts the worker served in the window *)
  r_final : (int * int) array;
}

(* One round: a fresh backend, server and connections, measured for
   [window_ns], then checked and shut down. *)
let round ?probes ~plan ~queues ~window_ns () =
  let server, conns, setup_s = setup ?probes queues in
  let b = Edge.Server.backend server in
  let served () =
    let s = Edge.Server.stats server in
    [| s.scans; s.writes; s.posts |]
  in
  let c0 = b.Edge.Backend.counters () and s0 = served () in
  let lat = Array.init 3 (fun _ -> Hist.create ()) in
  Option.iter (fun p -> Atomic.set p.on true) probes;
  let t0 = Util.now_ns () in
  let tally = drive conns ~until:(t0 + window_ns) ~budget:max_int ~record:(fun k l -> Hist.add lat.(k) l) in
  let elapsed_s = float_of_int (Util.now_ns () - t0) /. 1e9 in
  Option.iter (fun p -> Atomic.set p.on false) probes;
  let c1 = b.Edge.Backend.counters () and s1 = served () in
  (* The final snapshot: every component holds its initial value or a
     value the plan wrote to it. *)
  let final = match receive_scan conns.(0) with Some a -> a | None -> [||] in
  Util.check (Array.length final = components) "edge-mixed: final scan failed";
  let written = Array.make components [] in
  Array.iter
    (fun (p : Workload.Loadgen.planned) ->
      if p.p_kind <> Op_scan then written.(p.p_component) <- p.p_value :: written.(p.p_component))
    plan;
  Array.iteri
    (fun k (v, _) ->
      Util.check (v = init.(k) || List.mem v written.(k))
        "edge-mixed: component %d holds %d, never written by the plan" k v)
    final;
  close_all conns;
  check_shutdown server;
  let st = Edge.Server.stats server in
  Util.check
    (st.protocol_errors = 0 && st.op_errors = 0 && st.fiber_errors = 0)
    "edge-mixed: server errors: protocol %d, op %d, fiber %d" st.protocol_errors
    st.op_errors st.fiber_errors;
  Util.check (tally.errors = 0) "edge-mixed: %d error responses" tally.errors;
  Util.check (tally.stalled = 0) "edge-mixed: %d stalled connections" tally.stalled;
  let r_counters = List.map (fun (k, v) -> (k, v - counter c0 k)) c1 in
  Printf.printf
    "edge-mixed: round: %.0f ops/s, scan p50 %.1f p90 %.1f us, write p50 %.1f p90 %.1f us, serve.stalls %d\n%!"
    (float_of_int (Hist.count lat.(0) + Hist.count lat.(1) + Hist.count lat.(2)) /. elapsed_s)
    (Hist.percentile lat.(0) 50. /. 1e3) (Hist.percentile lat.(0) 90. /. 1e3)
    (Hist.percentile lat.(1) 50. /. 1e3) (Hist.percentile lat.(1) 90. /. 1e3)
    (counter r_counters "stalls");
  {
    r_setup_s = setup_s;
    r_elapsed_s = elapsed_s;
    r_lat = lat;
    r_tally = tally;
    r_counters;
    r_server = Array.map2 ( - ) s1 s0;
    r_final = final;
  }

type phase = {
  ops_per_s : float;
  lat : float array;  (* scan p50, p90, write p50, p90 in us *)
  setup_s : float;
  attempted : int;
  failed : int;
  rtt_us : float;  (* mean client round trip over the windows *)
  counters : (string * int) list;  (* backend counter deltas, summed over rounds *)
  server : int array;  (* scans, writes, posts served, summed over rounds *)
  final : (int * int) array;  (* the last round's final snapshot *)
}

(* The window is split over [rounds] rounds, each with its own
   server, applier and connections.  The host reference is sampled
   before each round and after the last, and each round's timings are
   scaled by the factor of the two blocks around it (the spare set-ups
   by the first block's).  The rate is all rounds' completed ops over
   all rounds' scaled time, and each percentile is over every (scaled)
   op of every round; set-up time is the median over the rounds'
   set-ups and [Util.spare_setups] more. *)
let phase ?probes ~plan ~queues ~window_s () =
  let window_ns = int_of_float (window_s *. 1e9) / rounds in
  let first = Util.Ref.sample 10. in
  let spare =
    List.init Util.spare_setups (fun _ ->
        let server, conns, t = setup ?probes queues in
        close_all conns;
        check_shutdown server;
        t *. Util.Ref.factor first)
  in
  let prev = ref first in
  let scaled =
    List.init rounds (fun _ ->
        let r = round ?probes ~plan ~queues ~window_ns () in
        let next = Util.Ref.sample 10. in
        let f = Util.Ref.factor ((!prev +. next) /. 2.) in
        prev := next;
        (r, f))
  in
  let rounds = List.map fst scaled in
  let lat = Array.init 3 (fun _ -> Hist.create ()) in
  List.iter
    (fun (r, f) -> Array.iteri (fun k h -> Hist.merge_scaled ~into:lat.(k) h f) r.r_lat)
    scaled;
  let us k p = Hist.percentile lat.(k) p /. 1e3 in
  let sum f = List.fold_left (fun a r -> a + f r.r_tally) 0 rounds in
  let done_ = sum (fun t -> t.done_) and stalled = sum (fun t -> t.stalled) in
  let ok = Array.fold_left (fun a h -> a + Hist.count h) 0 lat in
  {
    ops_per_s = float_of_int ok /. List.fold_left (fun a (r, f) -> a +. (r.r_elapsed_s *. f)) 0. scaled;
    lat = [| us 0 50.; us 0 90.; us 1 50.; us 1 90. |];
    setup_s = Util.median (spare @ List.map (fun (r, f) -> r.r_setup_s *. f) scaled);
    attempted = done_ + stalled;
    failed = sum (fun t -> t.errors) + stalled;
    rtt_us = float_of_int (sum (fun t -> t.rtt_sum)) /. float_of_int (max 1 done_) /. 1e3;
    counters =
      List.map
        (fun (k, _) -> (k, List.fold_left (fun a r -> a + counter r.r_counters k) 0 rounds))
        (List.hd rounds).r_counters;
    server =
      List.fold_left (fun a r -> Array.map2 ( + ) a r.r_server) [| 0; 0; 0 |] rounds;
    final = (List.nth rounds (List.length rounds - 1)).r_final;
  }

(* Per-frame cost of the wire codec, on this plan's frames: the
   benchmark calls [Edge.Wire] directly, so the figure is the codec
   alone, without sockets or scheduling. *)
let wire_costs plan final =
  let payloads =
    Array.map
      (fun p ->
        let f = Edge.Wire.encode_request (request_of p) in
        Bytes.sub f 4 (Bytes.length f - 4))
      plan
  in
  let responses =
    Array.map
      (fun (p : Workload.Loadgen.planned) ->
        match p.p_kind with
        | Op_scan -> Edge.Wire.Scan_ok final
        | Op_write -> Edge.Wire.Write_ok { id = p.p_value }
        | Op_post -> Edge.Wire.Post_ok)
      plan
  in
  let per_frame f =
    (* Repeat over the plan for at least 50 ms; median of the passes. *)
    let passes = ref [] and t_end = Util.now_ns () + 50_000_000 in
    while Util.now_ns () < t_end || List.length !passes < 3 do
      let a = Util.now_ns () in
      f ();
      passes := (float_of_int (Util.now_ns () - a) /. float_of_int plan_ops) :: !passes
    done;
    Util.median !passes
  in
  let decode () =
    Array.iter
      (fun p ->
        match Edge.Wire.decode_request p with
        | Ok _ -> ()
        | Error e -> Util.check false "edge-mixed: plan frame does not decode: %s" e)
      payloads
  in
  let encode () = Array.iter (fun r -> ignore (Sys.opaque_identity (Edge.Wire.encode_response r))) responses in
  (per_frame decode, per_frame encode)

let run ~seed ~seconds ~trace =
  let plan = Workload.Loadgen.plan ~components (loadgen_config ~seed) in
  let queues =
    Array.init connections (fun c ->
        Array.of_list (List.filter (fun (p : Workload.Loadgen.planned) -> p.p_conn = c) (Array.to_list plan)))
  in
  Printf.printf
    "edge-mixed: inputs %s, nproc %d, domains per server: 1 worker + 1 applier, client on the main domain, %d connections\n%!"
    (fingerprint plan) (Util.nproc ()) connections;
  let regime (p : phase) =
    Printf.printf
      "edge-mixed: regime: serve.stalls=%d scans_combined=%d cache_hits=%d; worker 0 served scans=%d writes=%d posts=%d\n%!"
      (counter p.counters "stalls") (counter p.counters "scans_combined")
      (counter p.counters "cache_hits") p.server.(0) p.server.(1) p.server.(2)
  in
  if not trace then begin
    let p = phase ~plan ~queues ~window_s:seconds () in
    regime p;
    let open Util in
    ( p.attempted,
      p.failed,
      [
        m "ops_per_s" "1/s" p.ops_per_s;
        m "scan_p50_us" "us" p.lat.(0);
        m "scan_p90_us" "us" p.lat.(1);
        m "write_p50_us" "us" p.lat.(2);
        m "write_p90_us" "us" p.lat.(3);
        m "setup_s" "s" p.setup_s;
        m "rss_peak_mb" "MB" (rss_peak_mb ());
      ] )
  end
  else begin
    let plain = phase ~plan ~queues ~window_s:(seconds /. 2.) () in
    let probes = { on = Atomic.make false; backend = Array.init 3 (fun _ -> Hist.create ()) } in
    let traced = phase ~probes ~plan ~queues ~window_s:(seconds /. 2.) () in
    regime traced;
    let decode_ns, encode_ns = wire_costs plan traced.final in
    let bk = probes.backend in
    let backend_us =
      float_of_int (Array.fold_left (fun a h -> a + Hist.sum h) 0 bk)
      /. float_of_int (max 1 (Array.fold_left (fun a h -> a + Hist.count h) 0 bk))
      /. 1e3
    in
    let c = traced.counters and sv = traced.server in
    let scans = sv.(0) and ops = sv.(0) + sv.(1) + sv.(2) in
    let us k p = Hist.percentile bk.(k) p /. 1e3 in
    let open Util in
    ( plain.attempted + traced.attempted,
      plain.failed + traced.failed,
      [
        m "edge.backend.scan_p50_us" "us" (us 0 50.);
        m "edge.backend.scan_p99_us" "us" (us 0 99.);
        m "edge.backend.write_p50_us" "us" (us 1 50.);
        m "edge.backend.write_p99_us" "us" (us 1 99.);
        m "edge.backend.post_p50_us" "us" (us 2 50.);
        m "edge.backend.post_p99_us" "us" (us 2 99.);
        m "edge.outside_backend_us" "us" (traced.rtt_us -. backend_us);
        m "edge.wire.decode_request_ns" "ns" decode_ns;
        m "edge.wire.encode_response_ns" "ns" encode_ns;
        m "serve.hit_ratio" "ratio" (ratio (counter c "cache_hits") scans);
        m "serve.combined_ratio" "ratio"
          (ratio (counter c "scans_combined") (counter c "scans_requested"));
        m "serve.full_scans_per_scan" "ratio" (ratio (counter c "scans_performed") scans);
        m "serve.coalesced_ratio" "ratio" (ratio (counter c "coalesced") (counter c "posted"));
        m "serve.publishes_per_applied" "ratio"
          (ratio (counter c "publishes") (counter c "applied"));
        m "serve.stalls_per_op" "ratio" (ratio (counter c "stalls") ops);
        m "trace.overhead" "ratio" (traced.ops_per_s /. plain.ops_per_s);
      ] )
  end
