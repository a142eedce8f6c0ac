open Csim

type report = {
  scenarios : int;
  survivor_ops : int;
  blocked : int;
  not_linearizable : int;
}

(* Writer k's s-th Write has id s and input (k+1)*1000 + s (the workload
   below is deterministic), so a dangling Write observed through a
   Read's auxiliary ids can be reconstructed exactly. *)
let complete_dangling ~components (h : int History.Snapshot_history.t) =
  let open History.Snapshot_history in
  let max_recorded = Array.make components 0 in
  List.iter
    (fun w ->
      if w.id > max_recorded.(w.comp) then max_recorded.(w.comp) <- w.id)
    h.writes;
  let max_read = Array.make components 0 in
  List.iter
    (fun r ->
      Array.iteri
        (fun k id -> if id > max_read.(k) then max_read.(k) <- id)
        r.ids)
    h.reads;
  let extra = ref [] in
  for k = 0 to components - 1 do
    if max_read.(k) = max_recorded.(k) + 1 then
      extra :=
        {
          wproc = -2;
          comp = k;
          value = ((k + 1) * 1000) + max_read.(k);
          id = max_read.(k);
          winv = 0;
          wres = max_int;
        }
        :: !extra
  done;
  if !extra = [] then h else { h with writes = h.writes @ !extra }

let run ?(components = 2) ?(readers = 2) ?(writes_per_writer = 2)
    ?(scans_per_reader = 2) ?(max_crash_point = 12) ~seed () =
  let scenarios = ref 0 in
  let survivor_ops = ref 0 in
  let blocked = ref 0 in
  let not_linearizable = ref 0 in
  let nprocs = components + readers in
  for victim = 0 to nprocs - 1 do
    for crash_point = 0 to max_crash_point do
      incr scenarios;
      let env = Sim.create ~trace:false () in
      let mem = Memory.of_sim env in
      let init = Array.init components (fun k -> (k + 1) * 10) in
      let reg =
        Composite.Anderson.create mem ~readers ~bits_per_value:32 ~init
      in
      let rec_ =
        Composite.Snapshot.record
          ~clock:(fun () -> Sim.now env)
          ~initial:init
          (Composite.Anderson.handle reg)
      in
      let procs =
        Campaign.procs rec_ ~components ~readers ~writes:writes_per_writer
          ~scans:scans_per_reader
      in
      let finished =
        match
          Sim.run env
            ~policy:(Schedule.Random (seed + (victim * 1000) + crash_point))
            ~max_steps:500_000
            ~crashes:[ (victim, crash_point) ]
            procs
        with
        | (_ : Sim.stats) -> true
        | exception Sim.Stuck _ -> false
      in
      if not finished then incr blocked
      else begin
        let h = Composite.Snapshot.history rec_ in
        survivor_ops := !survivor_ops + History.Snapshot_history.size h;
        (* Standard linearizability treatment of a crashed process's
           pending operation: if its effect became visible (a Read
           returned an id beyond the recorded Writes of some component),
           complete it — the victim's next input value is deterministic,
           and a pending op is concurrent with everything, so it gets
           the maximal interval. *)
        let h = complete_dangling ~components h in
        if not (History.Shrinking.conditions_hold ~equal:Int.equal h) then
          incr not_linearizable
      end
    done
  done;
  {
    scenarios = !scenarios;
    survivor_ops = !survivor_ops;
    blocked = !blocked;
    not_linearizable = !not_linearizable;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>crash scenarios: %d@,completed operations by survivors: %d@,\
     scenarios where survivors blocked: %d@,scenarios with a \
     linearizability violation: %d@]"
    r.scenarios r.survivor_ops r.blocked r.not_linearizable
