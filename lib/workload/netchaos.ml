(* Chaos campaigns for the message-passing backend: the injectable
   faults are message loss, message reordering (the Random network
   schedule), replica crash-stops and Byzantine replicas, and — as a
   negative control — a deliberately broken quorum size that voids the
   ABD intersection argument.  A substrate of [Fault_campaign]. *)

type profile = {
  label : string;
  loss : float;
  crashes : (int * int) list;
  byz : (int * Net.Sim.byz_flavor) list;
      (* replicas that lie rather than stop *)
  quorum : int option;  (* None = majority; Some k = Net.Abd.Fixed k *)
}

let profile ?(loss = 0.0) ?(crashes = []) ?(byz = []) ?quorum label =
  { label; loss; crashes; byz; quorum }

let broken_quorum p = match p.quorum with Some _ -> true | None -> false

let default_profiles ~replicas =
  [
    profile "none";
    profile "loss" ~loss:0.15;
    profile "crash-last" ~crashes:[ (replicas - 1, 3) ];
    profile "crash+loss" ~loss:0.1 ~crashes:[ (replicas - 1, 2) ];
    (* Loss rides along: it stretches the window between a write
       completing at its 1-replica "quorum" and the value reaching the
       other replicas, which is what makes the missing intersection
       observable in small runs. *)
    profile "broken-quorum" ~loss:0.3 ~quorum:1;
  ]

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
  replicas : int;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seeds : int;
  base_seed : int;
  max_steps : int;
  minimize_budget : int;
}

let default =
  {
    impls = [ Campaign.Impl_anderson; Campaign.Impl_afek ];
    profiles = default_profiles ~replicas:3;
    replicas = 3;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seeds = 10;
    base_seed = 1;
    max_steps = 100_000;
    minimize_budget = 3_000;
  }

type case = {
  impl : Campaign.impl;
  prof : profile;
  replicas : int;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seed : int;  (* drives the loss PRNG and the recorded Random policy *)
}

type tally = {
  msgs_sent : int;
  msgs_lost : int;
  byz_lies : int;
  byz_per_replica : (int * int) list;
}

type run_result = {
  outcome : Fault_campaign.outcome;
  schedule : int array;  (* network-scheduler picks (record mode only) *)
  net : Net.Sim.stats;
  byz_lies : int;  (* individual replica misbehaviors, summed *)
  byz_per_replica : (int * int) list;
      (* (replica, misbehaviors), in assignment order *)
}

let network ?(log = false) (case : case) =
  Net.Sim.create ~log ~loss:case.prof.loss ~crashes:case.prof.crashes
    ~byzantine:case.prof.byz ~replicas:case.replicas ~seed:case.seed ()

let run_case ?log ?metrics ?causal ~max_steps (case : case) mode =
  let env = network ?log case in
  let quorum =
    match case.prof.quorum with
    | None -> Net.Abd.Majority
    | Some k -> Net.Abd.Fixed k
  in
  let abd = Net.Abd.create ~quorum ?causal env in
  (* With a causal collector, composite-level Scan/Update markers (and
     Anderson's per-level markers) become note spans on the issuing
     client's track — the parents the ABD op spans attach to. *)
  let note =
    Option.map
      (fun c text ->
        Obs.Causal.note c ~track:(Net.Sim.self ()) ~at:(Net.Sim.now env) text)
      causal
  in
  let rec_, procs =
    Campaign.workload ?note
      ~clock:(fun () -> Net.Sim.now env)
      case.impl (Net.Abd.memory abd) ~components:case.components
      ~readers:case.readers ~writes:case.writes_per_writer
      ~scans:case.scans_per_reader
  in
  let tally () =
    let net = Net.Sim.totals env and byz = Net.Sim.byz_stats env in
    let lies = List.map (fun (r, _, st) -> (r, Net.Sim.byz_misbehaviors st)) byz in
    {
      msgs_sent = net.Net.Sim.sent;
      msgs_lost = net.Net.Sim.lost;
      byz_lies = List.fold_left (fun a (_, n) -> a + n) 0 lies;
      byz_per_replica = lies;
    }
  in
  ( Fault_campaign.drive mode ~tally
      ~run:(fun policy -> ignore (Net.Sim.run env ~policy ~max_steps procs))
      ~judge:(fun () ->
        (* Replica crashes are the ABD emulation's problem, not the
           clients': unlike shared-memory process crashes there are no
           dangling operations to complete — every client op
           terminates, and the full history must check out with no
           excuses. *)
        let h = Composite.Snapshot.history rec_ in
        Option.iter
          (fun m -> Campaign.observe_op_latencies m ~prefix:"netchaos" h)
          metrics;
        Fault_campaign.verdict (History.Shrinking.check ~equal:Int.equal h)),
    env )

(* One recorded [Random case.seed] run, outside any campaign. *)
let recorded ?log ?causal ?metrics case =
  let r, env =
    run_case ?log ?causal ?metrics ~max_steps:default.max_steps case
      (Fault_campaign.Record (Csim.Schedule.Random case.seed))
  in
  ( {
      outcome = r.outcome;
      schedule = r.schedule;
      net = Net.Sim.totals env;
      byz_lies = r.tally.byz_lies;
      byz_per_replica = r.tally.byz_per_replica;
    },
    env )

let run_once ?log ?metrics ?causal case = fst (recorded ?log ?metrics ?causal case)

let export_timeline ?pp case ~path =
  let result, env = recorded ~log:true case in
  Net.Timeline.export ~path ?pp env;
  result

let export_causal ?pp case ~path =
  let causal = Obs.Causal.create () in
  let result, env = recorded ~log:true ~causal case in
  Net.Timeline.export ~path ?pp ~causal env;
  (result, causal)

(* ------------------------------------------------------------------ *)
(* The campaign                                                         *)
(* ------------------------------------------------------------------ *)

let pp_crash (r, k) = Printf.sprintf "%d:%d" r k
let pp_quorum = function None -> "majority" | Some k -> string_of_int k
let join = Fault_campaign.Script.join

include Fault_campaign.Make (struct
  type nonrec profile = profile
  type nonrec config = config
  type nonrec case = case
  type nonrec tally = tally

  let names =
    {
      Fault_campaign.command = "net";
      task = "net ";
      metrics = "netchaos";
      script = "net replay script";
      elements = "fault";
      schedule = "message-schedule";
    }

  let default = default
  let label p = p.label

  let sweep (c : config) =
    {
      Fault_campaign.impls = c.impls;
      profiles = c.profiles;
      seeds = c.seeds;
      base_seed = c.base_seed;
      max_steps = c.max_steps;
      minimize_budget = c.minimize_budget;
    }

  let case_of (c : config) impl prof ~seed =
    {
      impl;
      prof;
      replicas = c.replicas;
      components = c.components;
      readers = c.readers;
      writes_per_writer = c.writes_per_writer;
      scans_per_reader = c.scans_per_reader;
      seed;
    }

  (* Random delivery order is the reordering adversary. *)
  let schedule_for = Fault_campaign.random

  let exec ?metrics ~max_steps case mode =
    fst (run_case ?metrics ~max_steps case mode)

  let zero = { msgs_sent = 0; msgs_lost = 0; byz_lies = 0; byz_per_replica = [] }

  let add a b =
    {
      msgs_sent = a.msgs_sent + b.msgs_sent;
      msgs_lost = a.msgs_lost + b.msgs_lost;
      byz_lies = a.byz_lies + b.byz_lies;
      byz_per_replica =
        List.fold_left
          (fun acc (r, n) ->
            let m = Option.value (List.assoc_opt r acc) ~default:0 in
            (r, m + n) :: List.remove_assoc r acc)
          a.byz_per_replica b.byz_per_replica;
    }

  (* Exact per-replica misbehavior accounting. *)
  let counters t ~replays:_ =
    [
      ("msgs_sent", t.msgs_sent);
      ("msgs_lost", t.msgs_lost);
      ("byz_lies", t.byz_lies);
    ]
    @ List.map
        (fun (r, n) -> (Printf.sprintf "byz.replica%d" r, n))
        t.byz_per_replica

  (* The loss knob (if set), then crashes, then Byzantine replicas; the
     quorum override is part of the case, the variant under test. *)
  let elements c =
    Bool.to_int (c.prof.loss > 0.0)
    + List.length c.prof.crashes + List.length c.prof.byz

  let keep c kept =
    let pick first l = List.filteri (fun i _ -> List.mem (first + i) kept) l in
    let nl = Bool.to_int (c.prof.loss > 0.0) in
    let prof =
      {
        c.prof with
        loss = (if nl = 1 && List.mem 0 kept then c.prof.loss else 0.0);
        crashes = pick nl c.prof.crashes;
        byz = pick (nl + List.length c.prof.crashes) c.prof.byz;
      }
    in
    { c with prof }

  let to_script c =
    [
      ("impl", Campaign.impl_name c.impl);
      ("n", string_of_int c.replicas);
      ("quorum", pp_quorum c.prof.quorum);
      ("c", string_of_int c.components);
      ("r", string_of_int c.readers);
      ("writes", string_of_int c.writes_per_writer);
      ("scans", string_of_int c.scans_per_reader);
      ("seed", string_of_int c.seed);
      ("label", c.prof.label);
      ("loss", Printf.sprintf "%g" c.prof.loss);
      ("crashes", join pp_crash c.prof.crashes);
      ("byz", join Net.Sim.byz_replica_to_string c.prof.byz);
    ]

  let of_script t =
    let open Fault_campaign.Script in
    let ( let* ) = Result.bind in
    let* impl = impl t in
    let* replicas = int ~min:1 t "n" in
    let* quorum =
      let* v = req t "quorum" in
      match (v, int_of_string_opt v) with
      | "majority", _ -> Ok None
      | _, Some k when k >= 1 && k <= replicas -> Ok (Some k)
      | _ -> error t "bad quorum %S" v
    in
    let* components = int ~min:1 t "c" in
    let* readers = int ~min:1 t "r" in
    let* writes_per_writer = int t "writes" in
    let* scans_per_reader = int t "scans" in
    let* seed = int t "seed" in
    let label = Option.value (find t "label") ~default:"replay" in
    let* loss =
      match find t "loss" with
      | None -> Ok 0.0
      | Some v -> (
        match float_of_string_opt v with
        | Some l -> Ok l
        | None -> error t "bad loss %S" v)
    in
    let* crashes =
      list t "crashes" (fun s ->
          match ints 2 s with Some [ r; k ] -> Some (r, k) | _ -> None)
    in
    (* Absent in scripts recorded before Byzantine replicas existed —
       an empty assignment keeps those replaying verbatim. *)
    let* byz =
      list t "byz" (fun s -> Result.to_option (Net.Sim.byz_replica_of_string s))
    in
    Ok
      {
        impl;
        prof = { label; loss; crashes; byz; quorum };
        replicas;
        components;
        readers;
        writes_per_writer;
        scans_per_reader;
        seed;
      }

  (* The network's own checks: loss in [0, 1), crashes and Byzantine
     replicas naming distinct existing replicas, a live majority. *)
  let validate c = ignore (network c : Net.Sim.env)

  let headline c =
    [
      Printf.sprintf "impl=%s profile=%s n=%d quorum=%s"
        (Campaign.impl_name c.impl) c.prof.label c.replicas
        (pp_quorum c.prof.quorum);
    ]

  let details c =
    Printf.sprintf "loss=%g crashes=[%s] byz=[%s] seed=%d" c.prof.loss
      (join pp_crash c.prof.crashes)
      (join Net.Sim.byz_replica_to_string c.prof.byz)
      c.seed

  let pp_row fmt impl p ~runs ~flagged ~stuck t =
    Format.fprintf fmt
      "%-18s %-16s runs=%-4d flagged=%-4d stuck=%-4d msgs=%d lost=%d"
      (Campaign.impl_name impl) p.label runs flagged stuck t.msgs_sent
      t.msgs_lost

  let total_note _ = ""
end)
