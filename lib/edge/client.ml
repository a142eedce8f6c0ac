type t = { cfd : Unix.file_descr }

let connect ?(host = "127.0.0.1") ~port () =
  let cfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect cfd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (try Unix.setsockopt cfd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { cfd }

let close t = try Unix.close t.cfd with Unix.Unix_error _ -> ()
let fd t = t.cfd

let send_raw t b =
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write t.cfd b !sent (n - !sent)
  done

let read_exact t buf off len =
  let got = ref 0 in
  while !got < len do
    match Unix.read t.cfd buf (off + !got) (len - !got) with
    | 0 -> raise End_of_file
    | n -> got := !got + n
  done

let guard f =
  match f () with
  | r -> r
  | exception End_of_file -> Error "edge.client: server closed the connection"
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "edge.client: %s" (Unix.error_message e))

let read_response t =
  let hdr = Bytes.create 4 in
  read_exact t hdr 0 4;
  match Wire.decode_length hdr with
  | Error _ as e -> e
  | Ok n ->
    let payload = Bytes.create n in
    read_exact t payload 0 n;
    Wire.decode_response payload

let receive t = guard (fun () -> read_response t)

let request t req =
  guard (fun () ->
      send_raw t (Wire.encode_request req);
      read_response t)

let hello t =
  match request t Wire.Hello with
  | Ok (Wire.Hello_ok { components }) -> Ok components
  | Ok (Wire.Error m) -> Error m
  | Ok _ -> Error "edge.client: unexpected response to hello"
  | Error _ as e -> e

let write t ~component v =
  match request t (Wire.Write { component; value = v }) with
  | Ok (Wire.Write_ok { id }) -> Ok id
  | Ok (Wire.Error m) -> Error m
  | Ok _ -> Error "edge.client: unexpected response to write"
  | Error _ as e -> e

let post t ~component v =
  match request t (Wire.Post { component; value = v }) with
  | Ok Wire.Post_ok -> Ok ()
  | Ok (Wire.Error m) -> Error m
  | Ok _ -> Error "edge.client: unexpected response to post"
  | Error _ as e -> e

let scan t =
  match request t Wire.Scan with
  | Ok (Wire.Scan_ok items) -> Ok items
  | Ok (Wire.Error m) -> Error m
  | Ok _ -> Error "edge.client: unexpected response to scan"
  | Error _ as e -> e

let reshard t ~shards =
  match request t (Wire.Reshard { shards }) with
  | Ok (Wire.Reshard_ok { epoch }) -> Ok epoch
  | Ok (Wire.Error m) -> Error m
  | Ok _ -> Error "edge.client: unexpected response to reshard"
  | Error _ as e -> e
