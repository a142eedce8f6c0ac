(* Tests for the network edge (lib/edge) and the load generator
   (Workload.Loadgen): wire-protocol totality, request/response
   round-trips per backend over real loopback sockets, malformed-frame
   and mid-request-disconnect survival with intact accounting
   identities, loadgen plan determinism, SLO verdict plumbing, and the
   monotonic-clock regression pin for Exec.Pool spans. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let ok_or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

(* ---------------------------------------------------------------- *)
(* Wire protocol                                                     *)
(* ---------------------------------------------------------------- *)

let strip_header b = Bytes.sub b 4 (Bytes.length b - 4)

let test_wire_roundtrip () =
  let reqs =
    [
      Edge.Wire.Hello;
      Edge.Wire.Write { component = 3; value = -17 };
      Edge.Wire.Post { component = 0; value = max_int / 2 };
      Edge.Wire.Scan;
      Edge.Wire.Reshard { shards = 5 };
    ]
  in
  List.iter
    (fun r ->
      let enc = Edge.Wire.encode_request r in
      let len =
        ok_or_fail "length" (Edge.Wire.decode_length (Bytes.sub enc 0 4))
      in
      check int "header length" (Bytes.length enc - 4) len;
      let dec = ok_or_fail "request" (Edge.Wire.decode_request (strip_header enc)) in
      check bool "request round-trips" true (r = dec))
    reqs;
  let resps =
    [
      Edge.Wire.Hello_ok { components = 8 };
      Edge.Wire.Write_ok { id = 42 };
      Edge.Wire.Post_ok;
      Edge.Wire.Scan_ok [| (10, 1); (-20, 2); (30, 0) |];
      Edge.Wire.Reshard_ok { epoch = 3 };
      Edge.Wire.Error "boom";
    ]
  in
  List.iter
    (fun r ->
      let enc = Edge.Wire.encode_response r in
      let dec =
        ok_or_fail "response" (Edge.Wire.decode_response (strip_header enc))
      in
      check bool "response round-trips" true (r = dec))
    resps

let test_wire_total () =
  let bad b =
    match Edge.Wire.decode_request b with Ok _ -> false | Error _ -> true
  in
  check bool "empty payload" true (bad Bytes.empty);
  check bool "unknown opcode" true (bad (Bytes.of_string "Z"));
  check bool "truncated write" true (bad (Bytes.of_string "W\000\000"));
  check bool "truncated reshard" true (bad (Bytes.of_string "R\000"));
  check bool "oversized hello" true (bad (Bytes.of_string "Hxx"));
  (* Length prefixes: zero, negative, over the cap. *)
  let len_of n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    b
  in
  let bad_len n =
    match Edge.Wire.decode_length (len_of n) with
    | Ok _ -> false
    | Error _ -> true
  in
  check bool "zero length" true (bad_len 0);
  check bool "negative length" true (bad_len (-5));
  check bool "oversized length" true (bad_len (Edge.Wire.max_payload + 1));
  check bool "max length ok" true (not (bad_len Edge.Wire.max_payload))

(* ---------------------------------------------------------------- *)
(* Round-trips per backend over real sockets                         *)
(* ---------------------------------------------------------------- *)

let with_server ?(workers = 2) backend f =
  let srv =
    Edge.Server.start
      ~config:{ Edge.Server.default_config with workers }
      backend
  in
  Fun.protect
    ~finally:(fun () ->
      match Edge.Server.shutdown srv with
      | Ok () -> ()
      | Error m -> Alcotest.failf "identities broken at shutdown: %s" m)
    (fun () -> f srv)

let roundtrip_on backend () =
  with_server backend (fun srv ->
      let c = Edge.Client.connect ~port:(Edge.Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Edge.Client.close c)
        (fun () ->
          let components = ok_or_fail "hello" (Edge.Client.hello c) in
          check int "components" 4 components;
          let id1 = ok_or_fail "write" (Edge.Client.write c ~component:1 111) in
          check bool "write assigns a positive id" true (id1 > 0);
          ok_or_fail "post" (Edge.Client.post c ~component:2 222);
          (* The snapshot must eventually contain both values: the write
             is synchronous, the post may lag one applier drain. *)
          let rec settle tries =
            let snap = ok_or_fail "scan" (Edge.Client.scan c) in
            check int "snapshot arity" 4 (Array.length snap);
            check int "written value visible" 111 (fst snap.(1));
            if fst snap.(2) = 222 then snap
            else if tries = 0 then Alcotest.failf "post never applied"
            else settle (tries - 1)
          in
          let snap = settle 1000 in
          check int "untouched component" 10 (fst snap.(0));
          (* Component out of range: a typed error, connection stays up. *)
          (match Edge.Client.write c ~component:99 5 with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "out-of-range write accepted");
          let again = ok_or_fail "scan after error" (Edge.Client.scan c) in
          check int "connection survived the bad request" 4 (Array.length again)))

let init4 = [| 10; 20; 30; 40 |]

let test_roundtrip_serve () =
  roundtrip_on (Edge.Backend.of_serve ~shards:2 ~workers:2 ~init:init4 ()) ()

let multicore4 () =
  Edge.Backend.of_handle ~label:"multicore" ~workers:2
    (Composite.Multicore.afek ~init:init4)

let test_roundtrip_multicore () = roundtrip_on (multicore4 ()) ()

(* [workers] must be between 1 and the handle's reader count, so the
   worker-to-reader identities stay disjoint. *)
let test_of_handle_worker_bounds () =
  let refuses what make =
    match make () with
    | (_ : Edge.Backend.t) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  refuses "workers = 0" (fun () ->
      Edge.Backend.of_handle ~label:"afek" ~workers:0
        (Composite.Multicore.afek ~init:init4));
  refuses "2 workers over 1 reader" (fun () ->
      Edge.Backend.of_handle ~label:"locked" ~workers:2
        (Composite.Multicore.locked ~readers:1 ~init:init4))

(* ---------------------------------------------------------------- *)
(* Online resharding over the wire                                    *)
(* ---------------------------------------------------------------- *)

(* A reshard is just another request: existing connections keep
   flowing across the epoch switch, every value written before the
   switch stays visible after it, and the per-epoch accounting
   identities (re-checked by [with_server] at shutdown) close. *)
let test_reshard_over_wire () =
  with_server
    (Edge.Backend.of_serve ~shards:2 ~max_shards:4 ~workers:2 ~init:init4 ())
    (fun srv ->
      let port = Edge.Server.port srv in
      let a = Edge.Client.connect ~port () in
      let b = Edge.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Edge.Client.close a;
          Edge.Client.close b)
        (fun () ->
          let expect = Array.copy init4 in
          let write c comp v =
            ignore (ok_or_fail "write" (Edge.Client.write c ~component:comp v));
            expect.(comp) <- v
          in
          let check_snap what c =
            let snap = ok_or_fail what (Edge.Client.scan c) in
            Array.iteri
              (fun i (v, _) ->
                check int (Printf.sprintf "%s: component %d" what i)
                  expect.(i) v)
              snap
          in
          write a 0 100;
          List.iteri
            (fun i s ->
              let epoch =
                ok_or_fail "reshard" (Edge.Client.reshard b ~shards:s)
              in
              check int "epoch advances per switch" (i + 1) epoch;
              (* The connection that never resharded still works, and
                 pre-switch writes survived the migration. *)
              check_snap (Printf.sprintf "scan in epoch %d" epoch) a;
              write a (i mod 4) (1000 + i);
              check_snap "scan after post-switch write" a)
            [ 4; 1; 3 ];
          let st = Edge.Server.stats srv in
          check int "reshards counted" 3 st.Edge.Server.reshards))

let test_reshard_not_supported () =
  with_server (multicore4 ()) (fun srv ->
      let c = Edge.Client.connect ~port:(Edge.Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Edge.Client.close c)
        (fun () ->
          (match Edge.Client.reshard c ~shards:4 with
          | Ok _ -> Alcotest.failf "static backend accepted a reshard"
          | Error m ->
            check bool "error names the backend" true
              (String.length m > 0));
          (* A typed op error, not a protocol error: the connection
             survives. *)
          let snap = ok_or_fail "scan after refusal" (Edge.Client.scan c) in
          check int "arity" 4 (Array.length snap);
          let st = Edge.Server.stats srv in
          check int "counted as op error" 1 st.Edge.Server.op_errors;
          check int "no reshard recorded" 0 st.Edge.Server.reshards))

(* ---------------------------------------------------------------- *)
(* Malformed frames and mid-request disconnects                      *)
(* ---------------------------------------------------------------- *)

let test_malformed_frame () =
  with_server (Edge.Backend.of_serve ~shards:2 ~workers:2 ~init:init4 ())
    (fun srv ->
      let port = Edge.Server.port srv in
      (* A liar: huge length prefix.  The server must answer with an
         error frame and drop only this connection. *)
      let c1 = Edge.Client.connect ~port () in
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 0x7fffffffl;
      Edge.Client.send_raw c1 b;
      (match Edge.Client.scan c1 with
      | Ok _ -> Alcotest.failf "server accepted a 2 GiB frame"
      | Error _ -> ());
      Edge.Client.close c1;
      (* An unknown opcode inside a well-formed frame. *)
      let c2 = Edge.Client.connect ~port () in
      let junk = Bytes.create 5 in
      Bytes.set_int32_be junk 0 1l;
      Bytes.set junk 4 'Z';
      Edge.Client.send_raw c2 junk;
      (match Edge.Client.scan c2 with
      | Ok _ -> Alcotest.failf "server accepted opcode Z"
      | Error _ -> ());
      Edge.Client.close c2;
      (* The server is still fully alive for a well-behaved client. *)
      let c3 = Edge.Client.connect ~port () in
      let snap = ok_or_fail "scan after abuse" (Edge.Client.scan c3) in
      check int "arity" 4 (Array.length snap);
      Edge.Client.close c3;
      let rec settle tries =
        let st = Edge.Server.stats srv in
        if st.Edge.Server.protocol_errors >= 2 || tries = 0 then st
        else begin
          ignore (Unix.select [] [] [] 0.01);
          settle (tries - 1)
        end
      in
      let st = settle 200 in
      check int "both abuses counted" 2 st.Edge.Server.protocol_errors)

let test_mid_request_disconnect () =
  with_server (Edge.Backend.of_serve ~shards:2 ~workers:2 ~init:init4 ())
    (fun srv ->
      let port = Edge.Server.port srv in
      (* Send only half a write request, then vanish. *)
      let c = Edge.Client.connect ~port () in
      let full = Edge.Wire.encode_request (Edge.Wire.Write { component = 0; value = 7 }) in
      Edge.Client.send_raw c (Bytes.sub full 0 6);
      Edge.Client.close c;
      (* And one that dies between header and payload. *)
      let c2 = Edge.Client.connect ~port () in
      Edge.Client.send_raw c2 (Bytes.sub full 0 4);
      Edge.Client.close c2;
      (* Server unaffected; a synchronous write still completes, which
         also proves the appliers are healthy. *)
      let c3 = Edge.Client.connect ~port () in
      let id = ok_or_fail "write after disconnects" (Edge.Client.write c3 ~component:0 77) in
      check bool "id assigned" true (id > 0);
      Edge.Client.close c3)
(* identities re-checked by with_server at shutdown *)

(* ---------------------------------------------------------------- *)
(* Loadgen: plan determinism and execution                           *)
(* ---------------------------------------------------------------- *)

let test_plan_deterministic () =
  let cfg =
    {
      Workload.Loadgen.default with
      Workload.Loadgen.ops = 500;
      connections = 8;
      clients = 64;
      seed = 42;
    }
  in
  let p1 = Workload.Loadgen.plan ~components:6 cfg in
  let p2 = Workload.Loadgen.plan ~components:6 cfg in
  check bool "same seed, same plan" true (p1 = p2);
  let p3 =
    Workload.Loadgen.plan ~components:6
      { cfg with Workload.Loadgen.seed = 43 }
  in
  check bool "different seed, different plan" true (p1 <> p3);
  (* Arrival offsets are non-decreasing (a Poisson process), conns in
     range, and the mix contains all three op kinds at these sizes. *)
  let ok_order = ref true and last = ref 0 in
  Array.iter
    (fun op ->
      if op.Workload.Loadgen.p_at_ns < !last then ok_order := false;
      last := op.Workload.Loadgen.p_at_ns;
      if op.Workload.Loadgen.p_conn < 0 || op.Workload.Loadgen.p_conn >= 8 then
        ok_order := false;
      if
        op.Workload.Loadgen.p_component < 0
        || op.Workload.Loadgen.p_component >= 6
      then ok_order := false)
    p1;
  check bool "monotone arrivals, ranges respected" true !ok_order;
  let count k =
    Array.fold_left
      (fun a op -> if op.Workload.Loadgen.p_kind = k then a + 1 else a)
      0 p1
  in
  check bool "mix has scans" true (count Workload.Loadgen.Op_scan > 0);
  check bool "mix has writes" true (count Workload.Loadgen.Op_write > 0);
  check bool "mix has posts" true (count Workload.Loadgen.Op_post > 0)

let test_zipf_skew () =
  let cum = Workload.Loadgen.zipf_weights ~components:8 ~theta:0.9 in
  check int "cumulative has one entry per component" 8 (Array.length cum);
  check bool "normalized" true (abs_float (cum.(7) -. 1.0) < 1e-9);
  (* theta > 0 puts strictly more mass on component 0 than uniform. *)
  check bool "skewed head" true (cum.(0) > 1. /. 8.);
  let flat = Workload.Loadgen.zipf_weights ~components:8 ~theta:0. in
  check bool "theta 0 is uniform" true (abs_float (flat.(0) -. (1. /. 8.)) < 1e-9)

(* An end-to-end run: open loop with skew against the serving layer,
   latencies flowing into metrics and SLO verdicts, identities intact. *)
let test_loadgen_slo_plumbing () =
  let backend = Edge.Backend.of_serve ~shards:2 ~workers:2 ~init:init4 () in
  with_server backend (fun srv ->
      let m = Obs.Metrics.create () in
      let cfg =
        {
          Workload.Loadgen.default with
          Workload.Loadgen.ops = 400;
          connections = 8;
          clients = 64;
          arrival = Workload.Loadgen.Open_loop 40_000.;
          domains = 2;
          seed = 7;
        }
      in
      let r =
        Workload.Loadgen.run ~metrics:m ~port:(Edge.Server.port srv)
          ~components:4 cfg
      in
      check int "every op answered" 400 r.Workload.Loadgen.ops_done;
      check int "no errors" 0 r.Workload.Loadgen.errors;
      check int "no stalled connections" 0 r.Workload.Loadgen.stalled_conns;
      check bool "throughput measured" true
        (r.Workload.Loadgen.throughput_per_sec > 0.);
      (* Latency histograms reached the registry... *)
      let has name =
        match Obs.Metrics.find_histogram m name with
        | Some h -> Obs.Metrics.count h > 0
        | None -> false
      in
      check bool "scan latencies recorded" true (has "edge.scan.latency_ns");
      check bool "write latencies recorded" true (has "edge.write.latency_ns");
      (* ...and the edge/* SLO budgets produce data-backed verdicts. *)
      let verdicts = Obs.Slo.check m in
      let edge_verdicts =
        List.filter
          (fun v ->
            String.length v.Obs.Slo.budget.Obs.Slo.op >= 5
            && String.sub v.Obs.Slo.budget.Obs.Slo.op 0 5 = "edge/")
          verdicts
      in
      check bool "edge budgets exist" true (List.length edge_verdicts >= 3);
      check bool "some edge verdict has data" true
        (List.exists (fun v -> v.Obs.Slo.observed <> None) edge_verdicts);
      (* Server-side op counts match what the loadgen sent. *)
      let st = Edge.Server.stats srv in
      check int "server saw every op" 400
        (st.Edge.Server.writes + st.Edge.Server.posts + st.Edge.Server.scans))

let test_loadgen_closed_loop () =
  with_server (multicore4 ()) (fun srv ->
      let cfg =
        {
          Workload.Loadgen.default with
          Workload.Loadgen.ops = 200;
          connections = 4;
          clients = 4;
          arrival = Workload.Loadgen.Closed_loop;
          domains = 1;
        }
      in
      let r =
        Workload.Loadgen.run ~port:(Edge.Server.port srv) ~components:4 cfg
      in
      check int "every op answered" 200 r.Workload.Loadgen.ops_done;
      check int "no errors" 0 r.Workload.Loadgen.errors)

(* ---------------------------------------------------------------- *)
(* Monotonic clock regression (Exec.Pool spans)                      *)
(* ---------------------------------------------------------------- *)

let test_mono_clock () =
  let a = Obs.Mono.now_ns () in
  let b = Obs.Mono.now_ns () in
  check bool "monotone" true (b >= a);
  check bool "plausible magnitude" true (a > 0);
  let sa = Obs.Mono.now_s () in
  ignore (Unix.select [] [] [] 0.01);
  let sb = Obs.Mono.now_s () in
  check bool "seconds advance across a sleep" true (sb -. sa > 0.005)

let test_pool_spans_non_negative () =
  let rec_ = Exec.Pool.recorder () in
  let (_ : unit array) =
    Exec.Pool.map ~jobs:4 ~recorder:rec_ 32 (fun i ->
        if i mod 3 = 0 then ignore (Unix.select [] [] [] 0.001))
  in
  let spans = Exec.Pool.spans rec_ in
  check int "every task recorded" 32 (List.length spans);
  List.iter
    (fun s ->
      check bool "span duration non-negative" true
        (s.Exec.Pool.sp_t1 >= s.Exec.Pool.sp_t0))
    spans

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "edge"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "totality" `Quick test_wire_total;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "serve backend" `Quick test_roundtrip_serve;
          Alcotest.test_case "multicore backend" `Quick test_roundtrip_multicore;
          Alcotest.test_case "of_handle worker bounds" `Quick
            test_of_handle_worker_bounds;
        ] );
      ( "reshard",
        [
          Alcotest.test_case "over the wire" `Quick test_reshard_over_wire;
          Alcotest.test_case "static backend refuses" `Quick
            test_reshard_not_supported;
        ] );
      ( "abuse",
        [
          Alcotest.test_case "malformed frames" `Quick test_malformed_frame;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_mid_request_disconnect;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "plan determinism" `Quick test_plan_deterministic;
          Alcotest.test_case "zipf weights" `Quick test_zipf_skew;
          Alcotest.test_case "open loop + SLO plumbing" `Quick
            test_loadgen_slo_plumbing;
          Alcotest.test_case "closed loop" `Quick test_loadgen_closed_loop;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic stub" `Quick test_mono_clock;
          Alcotest.test_case "pool spans non-negative" `Quick
            test_pool_spans_non_negative;
        ] );
    ]
