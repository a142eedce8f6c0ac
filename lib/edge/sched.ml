exception Cancelled

type _ Effect.t +=
  | Await : Unix.file_descr * [ `R | `W ] -> unit Effect.t
  | Yield : unit Effect.t

type waiter = {
  wfd : Unix.file_descr;
  dir : [ `R | `W ];
  k : (unit, unit) Effect.Deep.continuation;
}

type t = {
  mutable runnable : (unit -> unit) list;  (* in reverse arrival order *)
  mutable waiting : waiter list;
  mutable yielded : (unit, unit) Effect.Deep.continuation list;
      (* in reverse yield order *)
  mutable alive : int;
  on_error : exn -> unit;
}

let create ?(on_error = fun _ -> ()) () =
  { runnable = []; waiting = []; yielded = []; alive = 0; on_error }

let alive t = t.alive

let await_readable fd = Effect.perform (Await (fd, `R))
let await_writable fd = Effect.perform (Await (fd, `W))
let yield () = Effect.perform Yield

let spawn t f =
  t.alive <- t.alive + 1;
  let fiber () =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> t.alive <- t.alive - 1);
        exnc =
          (fun e ->
            t.alive <- t.alive - 1;
            match e with Cancelled -> () | e -> t.on_error e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Await (wfd, dir) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  t.waiting <- { wfd; dir; k } :: t.waiting)
            | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  t.yielded <- k :: t.yielded)
            | _ -> None);
      }
  in
  t.runnable <- fiber :: t.runnable

let resume t k = t.runnable <- (fun () -> Effect.Deep.continue k ()) :: t.runnable

let cancel t k =
  t.runnable <- (fun () -> Effect.Deep.discontinue k Cancelled) :: t.runnable

let cancel_fd t fd =
  let gone, kept = List.partition (fun w -> w.wfd = fd) t.waiting in
  t.waiting <- kept;
  List.iter (fun w -> cancel t w.k) gone

let cancel_all t =
  let ws = t.waiting and ys = t.yielded in
  t.waiting <- [];
  t.yielded <- [];
  List.iter (fun w -> cancel t w.k) ws;
  List.iter (cancel t) ys

(* Run queued fibers to exhaustion.  Execution may queue more (spawns,
   or awaits becoming ready through [resume]), hence the loop. *)
let rec drain t =
  match t.runnable with
  | [] -> ()
  | batch ->
    t.runnable <- [];
    List.iter (fun f -> f ()) (List.rev batch);
    drain t

(* One select round: at most 20ms, or a poll while a fiber has yielded
   or [before_select] left work behind.  No fiber runs during the round,
   so every yielded fiber yielded before it and resumes after the fibers
   it woke. *)
let select_step t ~before_select =
  let left_work = before_select () in
  let timeout = if t.yielded = [] && not left_work then 0.02 else 0. in
  let rs =
    List.filter_map (fun w -> if w.dir = `R then Some w.wfd else None) t.waiting
  and ws =
    List.filter_map (fun w -> if w.dir = `W then Some w.wfd else None) t.waiting
  in
  match Unix.select (List.sort_uniq compare rs) (List.sort_uniq compare ws) [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready_r, ready_w, _ ->
    let is_ready w =
      match w.dir with
      | `R -> List.mem w.wfd ready_r
      | `W -> List.mem w.wfd ready_w
    in
    let ready, still = List.partition is_ready t.waiting in
    t.waiting <- still;
    let yielded = t.yielded in
    t.yielded <- [];
    (* Reverse so fibers resume in the order they started waiting. *)
    List.iter (fun w -> resume t w.k) (List.rev ready);
    List.iter (resume t) (List.rev yielded)

let run ?(grace = 1.0) ?(on_stop = fun () -> ()) ?(before_select = fun () -> false)
    ~stop t =
  let deadline = ref None in
  let rec loop () =
    drain t;
    if t.alive > 0 then begin
      let past_grace =
        if not (stop ()) then false
        else
          let now = Obs.Mono.now_s () in
          match !deadline with
          | None ->
            deadline := Some (now +. grace);
            on_stop ();
            false
          | Some d -> now >= d
      in
      if past_grace then cancel_all t
      else select_step t ~before_select;
      loop ()
    end
  in
  loop ()
