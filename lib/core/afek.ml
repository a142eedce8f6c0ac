open Csim

type 'a slot = {
  item : 'a Item.t;
  view : 'a Item.t array;  (* the writer's embedded scan *)
}

type 'a reg = { cells : 'a slot Memory.cell array; wids : int array }

let collect reg = Array.map (fun c -> c.Memory.read ()) reg.cells

let ids_equal (a : 'a slot array) (b : 'a slot array) =
  Array.for_all2 (fun x y -> x.item.Item.id = y.item.Item.id) a b

(* One scan: double collect until stable, borrowing the embedded view of
   any writer seen moving twice.  Termination: each of the C writers can
   be caught moving at most twice, so at most C+1 double collects. *)
let scan reg =
  let c = Array.length reg.cells in
  let moved = Array.make c false in
  let rec loop c1 =
    let c2 = collect reg in
    if ids_equal c1 c2 then Array.map (fun s -> s.item) c2
    else begin
      let borrowed = ref None in
      Array.iteri
        (fun i s1 ->
          if s1.item.Item.id <> c2.(i).item.Item.id then
            if moved.(i) then begin
              if !borrowed = None then borrowed := Some c2.(i).view
            end
            else moved.(i) <- true)
        c1;
      match !borrowed with Some view -> Array.copy view | None -> loop c2
    end
  in
  loop (collect reg)

let update reg ~writer v =
  if writer < 0 || writer >= Array.length reg.cells then
    invalid_arg "Afek.update: bad writer";
  (* Embedded scan first, then publish it together with the new item. *)
  let view = scan reg in
  reg.wids.(writer) <- reg.wids.(writer) + 1;
  let id = reg.wids.(writer) in
  let item = { Item.v; id } in
  reg.cells.(writer).Memory.write { item; view };
  id

let create mem ~bits_per_value ~init =
  let c = Array.length init in
  if c < 1 then invalid_arg "Afek.create: need at least one component";
  let slot_bits = bits_per_value + 64 + (c * (bits_per_value + 64)) in
  let cells =
    Array.mapi
      (fun k v ->
        let item = Item.initial v in
        let view = Array.map Item.initial init in
        mem.Memory.make ~name:("AF.C" ^ string_of_int k) ~bits:slot_bits
          { item; view })
      init
  in
  let reg = { cells; wids = Array.make c 0 } in
  {
    Snapshot.components = c;
    readers = max_int;
    scan_items = (fun ~reader:_ -> scan reg);
    update = (fun ~writer v -> update reg ~writer v);
    caps = Composite_intf.static_caps;
  }

let scan_bound ~components = (components + 2) * components
