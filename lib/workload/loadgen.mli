(** Open- and closed-loop load generation against the network edge.

    A run has two halves, deliberately separated:

    - {!plan} is {e deterministic}: from a seed it derives the whole
      op sequence — Poisson arrival offsets (open loop), Zipfian
      component skew, the read/write mix, and the assignment of each
      logical client's ops to a socket connection.  Equal configs give
      byte-equal plans at any domain count, which is what the
      determinism test pins.
    - {!run} executes a plan against a live server: a few client
      domains each drive their share of the connections through a flat
      [Unix.select] state machine, one request in flight per
      connection, and record per-op latencies into {!Obs.Metrics}
      histograms ([edge.write.latency_ns], [edge.post.latency_ns],
      [edge.scan.latency_ns]) so p50/p99/p999 flow into {!Obs.Slo}
      verdicts and BENCH.json.

    {b Open loop} ([Open_loop rate]): ops become due on the Poisson
    schedule regardless of completions, and latency is measured from
    the op's {e scheduled} arrival to its response — queueing delay
    behind a saturated server is charged to the op, so there is no
    coordinated omission.  {b Closed loop} ([Closed_loop]): each
    connection issues its next op as soon as the previous response
    lands; latency is pure round-trip time.

    Caveats (single host, honest): client and server share the
    machine, so the generator perturbs what it measures; logical
    clients are multiplexed over [connections] sockets (the
    select-based engine keeps well under the 1024-fd [select] limit);
    loopback TCP has none of a real network's latency distribution. *)

type arrival = Open_loop of float  (** ops/second, > 0 *) | Closed_loop

type config = {
  connections : int;  (** sockets to open (≥ 1) *)
  clients : int;  (** logical clients multiplexed over them (≥ connections) *)
  ops : int;  (** total operations *)
  arrival : arrival;
  write_ratio : float;  (** fraction of ops that write, in [0, 1] *)
  post_ratio : float;  (** fraction of {e writes} sent as async posts *)
  zipf_theta : float;  (** component skew; 0 = uniform, 0.9 = classic *)
  seed : int;
  domains : int;  (** client domains driving the connections (≥ 1) *)
}

val default : config
(** 16 connections, 256 clients, 2000 ops, open loop at 20k ops/s,
    30% writes (half of them posts), theta 0.9, seed 1, 2 domains. *)

val validate : config -> unit
(** Raises [Invalid_argument] naming the first out-of-range field. *)

type op_kind = Op_write | Op_post | Op_scan

type planned = {
  p_at_ns : int;  (** due time, ns from run start; 0 in closed loop *)
  p_conn : int;
  p_client : int;
  p_kind : op_kind;
  p_component : int;  (** meaningless for scans *)
  p_value : int;
}

val plan : components:int -> config -> planned array
(** The full deterministic schedule, sorted by due time (stable for
    equal times).  Raises [Invalid_argument] on nonsensical configs. *)

type report = {
  ops_done : int;
  errors : int;  (** error responses + response-kind mismatches *)
  elapsed_ns : int;  (** first send to last response, monotonic *)
  throughput_per_sec : float;
  stalled_conns : int;  (** connections that died before their plan drained *)
}

val run :
  ?metrics:Obs.Metrics.t ->
  ?host:string ->
  port:int ->
  components:int ->
  config ->
  report
(** Execute [plan ~components config] against the server at [port].
    Latency histograms and [loadgen.ops]/[loadgen.errors] counters land
    in [metrics] when given. *)

val zipf_weights : components:int -> theta:float -> float array
(** The normalized cumulative Zipf distribution the planner samples
    from (exposed for tests). *)
