open Csim

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                       *)
(* ------------------------------------------------------------------ *)

type profile = {
  label : string;
  injections : Faults.injection list;
  crashes : (int * int) list;
  stalls : (int * int * int) list;
}

let profile ?(injections = []) ?(crashes = []) ?(stalls = []) label =
  { label; injections; crashes; stalls }

let faulty_memory p = p.injections <> []

let default_profiles ~components ~readers =
  let last_reader = components + readers - 1 in
  let inj kind = [ { Faults.kind; target = Faults.All } ] in
  [
    profile "none";
    profile "crash-writer0" ~crashes:[ (0, 2) ];
    profile "crash-reader" ~crashes:[ (last_reader, 3) ];
    profile "crash-two" ~crashes:[ (0, 4); (last_reader, 1) ];
    profile "stall-writer0" ~stalls:[ (0, 2, 60) ];
    profile "stall-reader" ~stalls:[ (last_reader, 1, 80) ];
    profile "stall-writers"
      ~stalls:(List.init components (fun k -> (k, 3, 30)));
    profile "lost-writes" ~injections:(inj (Faults.Lost_write { prob = 0.15 }));
    profile "stuck-cell" ~injections:(inj (Faults.Stuck_at { after = 1 }));
    profile "stutter" ~injections:(inj (Faults.Stutter { prob = 0.15 }));
    profile "corrupt-reads" ~injections:(inj (Faults.Corrupt { prob = 0.05 }));
    profile "regular-weakening" ~injections:(inj (Faults.Regular { window = 2 }));
  ]

(* ------------------------------------------------------------------ *)
(* Single runs                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
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
    impls = Campaign.all_impls;
    profiles = default_profiles ~components:2 ~readers:2;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seeds = 10;
    base_seed = 1;
    max_steps = 50_000;
    minimize_budget = 3_000;
  }

let render_outcome = Fault_campaign.render_outcome

type case = {
  impl : Campaign.impl;
  prof : profile;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  fault_seed : int;
}

type tally = { faults_fired : int }

let exec ?metrics:_ ~max_steps (case : case) mode =
  let env = Sim.create ~trace:false () in
  (* [who] names the asking process for equivocating faults, so two
     concurrent readers really are shown different register faces. *)
  let mem, counters =
    Faults.wrap ~seed:case.fault_seed ~who:Fault_campaign.sim_self
      case.prof.injections (Memory.of_sim env)
  in
  let rec_, procs =
    Campaign.workload ~clock:(fun () -> Sim.now env) case.impl mem
      ~components:case.components ~readers:case.readers
      ~writes:case.writes_per_writer ~scans:case.scans_per_reader
  in
  Fault_campaign.drive mode
    ~run:(fun policy ->
      ignore
        (Sim.run env ~policy ~max_steps ~crashes:case.prof.crashes
           ~stalls:case.prof.stalls procs))
    ~tally:(fun () -> { faults_fired = Faults.fired counters })
    ~judge:(fun () ->
      let h = Composite.Snapshot.history rec_ in
      let crashed = case.prof.crashes <> [] in
      let h =
        if crashed then Resilience.complete_dangling ~components:case.components h
        else h
      in
      let violations = History.Shrinking.check ~equal:Int.equal h in
      (* A crash victim's half-published Write can leave ids with no
         completed matching Write even after completion; those Integrity
         leftovers are the pending operation's footprint, not a bug (cf.
         the resilience qcheck property).  All other conditions must
         hold regardless. *)
      Fault_campaign.verdict
        (if crashed then
           List.filter
             (function History.Shrinking.Integrity _ -> false | _ -> true)
             violations
         else violations))

(* ------------------------------------------------------------------ *)
(* The campaign                                                         *)
(* ------------------------------------------------------------------ *)

let pp_crash (p, k) = Printf.sprintf "%d:%d" p k
let pp_stall (p, at, dur) = Printf.sprintf "%d:%d:%d" p at dur
let join = Fault_campaign.Script.join

include Fault_campaign.Make (struct
  type nonrec profile = profile
  type nonrec config = config
  type nonrec case = case
  type nonrec tally = tally

  let names =
    {
      Fault_campaign.command = "chaos";
      task = "";
      metrics = "chaos";
      script = "replay script";
      elements = "chaos";
      schedule = "schedule";
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
      components = c.components;
      readers = c.readers;
      writes_per_writer = c.writes_per_writer;
      scans_per_reader = c.scans_per_reader;
      fault_seed = seed;
    }

  let schedule_for = Fault_campaign.alternating
  let exec = exec
  let zero = { faults_fired = 0 }
  let add a b = { faults_fired = a.faults_fired + b.faults_fired }

  let counters t ~replays =
    [ ("faults_fired", t.faults_fired); ("minimize_replays", replays) ]

  (* Injections, then crashes, then stalls. *)
  let elements c =
    List.length c.prof.injections + List.length c.prof.crashes
    + List.length c.prof.stalls

  let keep c kept =
    let pick first l = List.filteri (fun i _ -> List.mem (first + i) kept) l in
    let ni = List.length c.prof.injections in
    let nc = List.length c.prof.crashes in
    let prof =
      {
        c.prof with
        injections = pick 0 c.prof.injections;
        crashes = pick ni c.prof.crashes;
        stalls = pick (ni + nc) c.prof.stalls;
      }
    in
    { c with prof }

  let to_script c =
    [
      ("impl", Campaign.impl_name c.impl);
      ("c", string_of_int c.components);
      ("r", string_of_int c.readers);
      ("writes", string_of_int c.writes_per_writer);
      ("scans", string_of_int c.scans_per_reader);
      ("fault-seed", string_of_int c.fault_seed);
      ("label", c.prof.label);
      ("faults", join Faults.injection_to_string c.prof.injections);
      ("crashes", join pp_crash c.prof.crashes);
      ("stalls", join pp_stall c.prof.stalls);
    ]

  let of_script t =
    let open Fault_campaign.Script in
    let ( let* ) = Result.bind in
    let* impl = impl t in
    let* components = int ~min:1 t "c" in
    let* readers = int ~min:1 t "r" in
    let* writes_per_writer = int t "writes" in
    let* scans_per_reader = int t "scans" in
    let* fault_seed = int t "fault-seed" in
    let label = Option.value (find t "label") ~default:"replay" in
    let* injections =
      list t "faults" (fun s -> Result.to_option (Faults.injection_of_string s))
    in
    let* crashes =
      list t "crashes" (fun s ->
          match ints 2 s with Some [ p; k ] -> Some (p, k) | _ -> None)
    in
    let* stalls =
      list t "stalls" (fun s ->
          match ints 3 s with Some [ p; at; dur ] -> Some (p, at, dur) | _ -> None)
    in
    Ok
      {
        impl;
        prof = { label; injections; crashes; stalls };
        components;
        readers;
        writes_per_writer;
        scans_per_reader;
        fault_seed;
      }

  let validate c =
    Sim.validate_faults ~n:(c.components + c.readers) ~crashes:c.prof.crashes
      ~stalls:c.prof.stalls

  let headline c =
    [
      Printf.sprintf "impl=%s profile=%s" (Campaign.impl_name c.impl) c.prof.label;
      "fault stack: "
      ^ Faults.stack_label ~layers:[ c.prof.injections ] ~base:"sim";
    ]

  let details c =
    Printf.sprintf "faults=[%s] crashes=[%s] stalls=[%s] fault-seed=%d"
      (join Faults.injection_to_string c.prof.injections)
      (join pp_crash c.prof.crashes) (join pp_stall c.prof.stalls) c.fault_seed

  let pp_row fmt impl p ~runs ~flagged ~stuck t =
    Format.fprintf fmt
      "%-18s %-18s runs=%-4d flagged=%-4d stuck=%-4d faults-fired=%d"
      (Campaign.impl_name impl) p.label runs flagged stuck t.faults_fired

  let total_note _ = ""
end)
