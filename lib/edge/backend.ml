type t = {
  label : string;
  components : int;
  caps : Composite.Composite_intf.caps;
  write : worker:int -> component:int -> int -> int;
  post : worker:int -> component:int -> int -> unit;
  scan : worker:int -> (int * int) array;
  shutdown : unit -> unit;
  identities_ok : unit -> (unit, string) result;
  counters : unit -> (string * int) list;
}

let items_to_pairs items =
  Array.map (fun it -> (it.Composite.Item.v, it.Composite.Item.id)) items

let check_component ~label ~components component =
  if component < 0 || component >= components then
    invalid_arg
      (Printf.sprintf "%s: component %d out of range 0..%d" label component
         (components - 1))

let of_handle ~label ~workers (h : int Composite.Snapshot.t) =
  if workers < 1 then invalid_arg "Edge.Backend.of_handle: workers must be >= 1";
  if workers > h.Composite.Snapshot.readers then
    invalid_arg
      (Printf.sprintf
         "Edge.Backend.of_handle: %d workers but the handle serves only %d \
          readers"
         workers h.Composite.Snapshot.readers);
  let components = h.Composite.Snapshot.components in
  (* The edge is the single writer of every component; a mutex per
     component restores SWMR no matter which connections write it. *)
  let locks = Array.init components (fun _ -> Mutex.create ()) in
  let write ~worker:_ ~component v =
    check_component ~label ~components component;
    Mutex.lock locks.(component);
    Fun.protect
      ~finally:(fun () -> Mutex.unlock locks.(component))
      (fun () -> h.Composite.Snapshot.update ~writer:component v)
  in
  let readers = min workers h.Composite.Snapshot.readers in
  let scan ~worker =
    items_to_pairs (h.Composite.Snapshot.scan_items ~reader:(worker mod readers))
  in
  {
    label;
    components;
    caps = h.Composite.Snapshot.caps;
    write;
    post = (fun ~worker ~component v -> ignore (write ~worker ~component v : int));
    scan;
    shutdown = (fun () -> ());
    identities_ok = (fun () -> Ok ());
    counters = (fun () -> []);
  }

let of_serve ?outer ?max_shards ~shards ~workers ~init () =
  if workers < 1 then invalid_arg "Edge.Backend.of_serve: workers must be >= 1";
  let srv = Serve.create ?outer ?max_shards ~shards ~readers:workers ~init () in
  Serve.start srv;
  let components = Array.length init in
  let label =
    Printf.sprintf "serve[S=%d,%s]" shards
      (Serve.outer_impl_name (match outer with None -> Serve.Outer_afek | Some o -> o))
  in
  let locks = Array.init components (fun _ -> Mutex.create ()) in
  let with_component component f =
    check_component ~label ~components component;
    Mutex.lock locks.(component);
    Fun.protect ~finally:(fun () -> Mutex.unlock locks.(component)) f
  in
  let write ~worker:_ ~component v =
    with_component component (fun () -> Serve.update srv ~writer:component v)
  in
  let post ~worker:_ ~component v =
    with_component component (fun () -> Serve.post srv ~writer:component v)
  in
  let scan ~worker =
    items_to_pairs (Serve.scan_items srv ~reader:(worker mod workers))
  in
  let counters () =
    let st = Serve.stats srv in
    [
      ("epoch", Serve.epoch srv);
      ("posted", st.Serve.posted);
      ("applied", st.Serve.applied);
      ("coalesced", st.Serve.coalesced);
      ("pending", st.Serve.pending);
      ("publishes", st.Serve.publishes);
      ("cache_hits", st.Serve.hits);
      ("scans_requested", st.Serve.scans_requested);
      ("scans_combined", st.Serve.scans_combined);
      ("scans_performed", st.Serve.scans_performed);
      ("stalls", st.Serve.stalls);
    ]
  in
  {
    label;
    components;
    caps = Serve.caps srv;
    write;
    post;
    scan;
    shutdown = (fun () -> Serve.shutdown srv);
    identities_ok = (fun () -> Serve.check_identities srv);
    counters;
  }
