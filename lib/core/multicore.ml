open Csim

(* Same contract as [Memory.atomic], but every register lives in its
   own cache line: the constructions' cells are written by different
   domains, and with plain [Atomic.make] several of them share a line
   (see {!Padded_atomic}). *)
let padded_memory () =
  let make : type a. name:string -> bits:int -> a -> a Memory.cell =
   fun ~name:_ ~bits:_ init ->
    let a = Padded_atomic.make init in
    {
      Memory.read = (fun () -> Atomic.get a);
      write = (fun v -> Atomic.set a v);
      peek = (fun () -> Atomic.get a);
    }
  in
  { Memory.make }

let anderson ~readers ~init =
  Anderson.handle
    (Anderson.create (padded_memory ()) ~readers ~bits_per_value:64 ~init)

let afek ~init = Afek.create (padded_memory ()) ~bits_per_value:64 ~init

let multi_writer ~components ~writers_per_component ~readers ~init =
  let factory =
    {
      Snapshot.make_sw =
        (fun ~readers:r ~init ->
          ignore r;
          Afek.create (padded_memory ()) ~bits_per_value:64 ~init);
    }
  in
  Multi_writer.create factory ~components ~writers_per_component ~readers ~init

let locked ~readers ~init =
  if readers < 1 then invalid_arg "Multicore.locked: readers must be >= 1";
  let mutex = Mutex.create () in
  let c = Array.length init in
  let store = Array.map Item.initial init in
  let wids = Array.make c 0 in
  let scan_items ~reader:_ =
    Mutex.lock mutex;
    let view = Array.copy store in
    Mutex.unlock mutex;
    view
  in
  let update ~writer v =
    Mutex.lock mutex;
    wids.(writer) <- wids.(writer) + 1;
    let id = wids.(writer) in
    store.(writer) <- { Item.v; id };
    Mutex.unlock mutex;
    id
  in
  { Snapshot.components = c; readers; scan_items; update;
    caps = Composite_intf.static_caps }

let tick_clock () =
  let counter = Padded_atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1

type stress_config = { writer_ops : int; reader_ops : int; readers : int }

type recorded_op =
  | Rec_write of { proc : int; comp : int; value : int; id : int; inv : int; res : int }
  | Rec_read of { proc : int; values : int array; ids : int array; inv : int; res : int }

let stress ?(reader_pace = fun () -> ()) ~config ~init ~handle () =
  let c = handle.Snapshot.components in
  if Array.length init <> c then invalid_arg "Multicore.stress: arity mismatch";
  let clock = tick_clock () in
  let log_mutex = Mutex.create () in
  let log : recorded_op list ref = ref [] in
  let push op =
    Mutex.lock log_mutex;
    log := op :: !log;
    Mutex.unlock log_mutex
  in
  let writer_body k () =
    for seq = 1 to config.writer_ops do
      let v = (k * 1000) + seq in
      let inv = clock () in
      let id = handle.Snapshot.update ~writer:k v in
      let res = clock () in
      push (Rec_write { proc = config.readers + k; comp = k; value = v; id; inv; res })
    done
  in
  let reader_body j () =
    for _ = 1 to config.reader_ops do
      reader_pace ();
      let inv = clock () in
      let items = handle.Snapshot.scan_items ~reader:j in
      let res = clock () in
      push
        (Rec_read
           {
             proc = j;
             values = Item.values items;
             ids = Item.ids items;
             inv;
             res;
           })
    done
  in
  let domains =
    List.init c (fun k -> Domain.spawn (writer_body k))
    @ List.init config.readers (fun j -> Domain.spawn (reader_body j))
  in
  List.iter Domain.join domains;
  let coll = History.Snapshot_history.collector ~initial:init in
  List.iter
    (fun op ->
      match op with
      | Rec_write { proc; comp; value; id; inv; res } ->
        History.Snapshot_history.record_write coll ~proc ~comp ~value ~id ~inv
          ~res
      | Rec_read { proc; values; ids; inv; res } ->
        History.Snapshot_history.record_read coll ~proc ~values ~ids ~inv ~res)
    (List.rev !log);
  History.Snapshot_history.history coll
