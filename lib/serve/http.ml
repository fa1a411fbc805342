(* Minimal HTTP/1.1 framing over Unix file descriptors: just enough for
   the serve daemon's request/response API — no TLS, no multipart.
   Connections are one-request-per-connection by default; a [reader]
   carries leftover bytes between requests so keep-alive (and pipelined
   requests) work when the daemon enables them.  Parsing is split from
   socket I/O so the framing rules are unit-testable on plain strings. *)

module Fault = Dq_fault.Fault

type request = {
  meth : string;
  target : string;
  path : string list;
  headers : (string * string) list;
  body : string;
}

(* A framing error carries the HTTP status the daemon answers with, so
   an oversized body is a 413 and a stalled mid-request read a 408, not
   a generic 400. *)
type error = { status : int; reason : string }

let err status reason = Error { status; reason }

let header r name = List.assoc_opt (String.lowercase_ascii name) r.headers

let max_head_bytes = 64 * 1024

let default_max_body = 64 * 1024 * 1024

(* Path segments of the request target, query string dropped.  Ids in
   our routes are plain alphanumerics, so no percent-decoding. *)
let split_target target =
  let path =
    match String.index_opt target '?' with
    | Some i -> String.sub target 0 i
    | None -> target
  in
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

(* [(head_end, body_start)] of the first blank line (CRLF CRLF, or bare
   LF LF for hand-typed clients), if any. *)
let find_head_end s =
  let n = String.length s in
  let rec scan i =
    if i + 1 >= n then None
    else if
      i + 3 < n
      && s.[i] = '\r'
      && s.[i + 1] = '\n'
      && s.[i + 2] = '\r'
      && s.[i + 3] = '\n'
    then Some (i, i + 4)
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, i + 2)
    else scan (i + 1)
  in
  scan 0

let trim_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Parse the head: request line plus header lines (no blank line). *)
let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> err 400 "empty request head"
  | request_line :: header_lines -> (
    match String.split_on_char ' ' (trim_cr request_line) with
    | [ meth; target; version ]
      when String.length version >= 8 && String.sub version 0 7 = "HTTP/1." ->
      let rec headers acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
          let line = trim_cr line in
          if line = "" then headers acc rest
          else
            match String.index_opt line ':' with
            | None -> err 400 (Printf.sprintf "malformed header line %S" line)
            | Some i ->
              let name = String.lowercase_ascii (String.sub line 0 i) in
              let value =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              headers ((name, value) :: acc) rest)
      in
      Result.map
        (fun headers ->
          { meth; target; path = split_target target; headers; body = "" })
        (headers [] header_lines)
    | _ ->
      err 400 (Printf.sprintf "malformed request line %S" (trim_cr request_line)))

(* The body's length, framed as RFC 9112 §6.3 says: a request with a
   [transfer-encoding] is refused with 501 (no coding is implemented
   here), and [content-length] values that disagree are a 400.  Either
   way the body's end is unknown, so the connection closes after the
   answer. *)
let body_length r =
  if List.mem_assoc "transfer-encoding" r.headers then
    err 501 "transfer-encoding is not supported"
  else
    let lengths =
      List.filter_map
        (fun (k, v) -> if k = "content-length" then Some v else None)
        r.headers
    in
    match List.sort_uniq String.compare lengths with
    | [] -> Ok 0
    | [ s ] -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> err 400 (Printf.sprintf "bad content-length %S" s))
    | _ -> err 400 "conflicting content-length headers"

(* Parse one whole request held in a string — head, then exactly
   [content-length] body bytes.  The unit-testable core of
   {!read_request}. *)
let parse ?(max_body = default_max_body) bytes =
  match find_head_end bytes with
  | None -> err 400 "request head not terminated"
  | Some (head_end, body_start) -> (
    match parse_head (String.sub bytes 0 head_end) with
    | Error _ as e -> e
    | Ok r -> (
      match body_length r with
      | Error _ as e -> e
      | Ok len when len > max_body ->
        err 413 (Printf.sprintf "body of %d bytes exceeds limit" len)
      | Ok len ->
        if String.length bytes - body_start < len then
          err 400 "truncated request body"
        else Ok { r with body = String.sub bytes body_start len }))

(* ---- socket I/O -------------------------------------------------------- *)

exception Closed

let rec write_all fd s off len =
  if len > 0 then begin
    Fault.hit "serve.write";
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Closed
    in
    write_all fd s (off + n) (len - n)
  end

let send fd s = write_all fd s 0 (String.length s)

(* Bytes read past the end of one request (a pipelined follow-up) are
   held in [pending] for the next {!read_request} on the same reader. *)
type reader = { fd : Unix.file_descr; mutable pending : string }

let reader fd = { fd; pending = "" }

(* SO_RCVTIMEO turns a blocked read into EAGAIN/EWOULDBLOCK after the
   timeout.  Sockets that do not support it (unlikely on Linux) just
   keep blocking — timeouts are defensive, not load-bearing. *)
let set_read_timeout fd secs =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs
  with Unix.Unix_error _ | Invalid_argument _ -> ()

type read_outcome = Got of int | Eof | Timed_out

(* Read one request from a connected socket: accumulate the head up to
   the blank line (bounded), then exactly content-length body bytes.
   [Ok None] when the peer closed — or, with [idle_timeout], stayed
   silent — before sending anything. *)
let read_request ?(max_body = default_max_body) ?idle_timeout ?read_timeout
    rd =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf rd.pending;
  rd.pending <- "";
  let chunk = Bytes.create 8192 in
  let timeouts = idle_timeout <> None || read_timeout <> None in
  (* the idle timeout covers the wait for the request's first byte; once
     any of it has arrived, the (tighter) read timeout takes over *)
  let arm_timeout () =
    if timeouts then
      let t =
        if Buffer.length buf = 0 then
          match idle_timeout with Some t -> t | None -> Option.get read_timeout
        else match read_timeout with Some t -> t | None -> 0.
      in
      set_read_timeout rd.fd t
  in
  let read_more () =
    Fault.hit "serve.read";
    arm_timeout ();
    match Unix.read rd.fd chunk 0 (Bytes.length chunk) with
    | 0 -> Eof
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      Got n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Eof
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when timeouts ->
      Timed_out
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Got 0
  in
  let rec fill_head () =
    match find_head_end (Buffer.contents buf) with
    | Some split -> Ok (Some split)
    | None ->
      if Buffer.length buf > max_head_bytes then
        err 431 "request head too large"
      else (
        match read_more () with
        | Got _ -> fill_head ()
        | Eof ->
          if Buffer.length buf = 0 then Ok None
          else err 400 "truncated request head"
        | Timed_out ->
          if Buffer.length buf = 0 then Ok None
          else err 408 "timed out reading request head")
  in
  match fill_head () with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some (head_end, body_start)) -> (
    match parse_head (String.sub (Buffer.contents buf) 0 head_end) with
    | Error _ as e -> e
    | Ok r -> (
      match body_length r with
      | Error _ as e -> e
      | Ok len when len > max_body ->
        err 413 (Printf.sprintf "body of %d bytes exceeds limit" len)
      | Ok len ->
        let rec fill_body () =
          if Buffer.length buf - body_start >= len then Ok ()
          else
            match read_more () with
            | Got _ -> fill_body ()
            | Eof -> err 400 "truncated request body"
            | Timed_out -> err 408 "timed out reading request body"
        in
        (match fill_body () with
        | Error _ as e -> e
        | Ok () ->
          let all = Buffer.contents buf in
          let body_end = body_start + len in
          (* keep any pipelined follow-up bytes for the next request *)
          if String.length all > body_end then
            rd.pending <-
              String.sub all body_end (String.length all - body_end);
          Ok (Some { r with body = String.sub all body_start len }))))

(* ---- responses --------------------------------------------------------- *)

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

let head ~status ~content_type ?(keep_alive = false) extra =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  Buffer.add_string b (Printf.sprintf "content-type: %s\r\n" content_type);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    extra;
  Buffer.add_string b
    (if keep_alive then "connection: keep-alive\r\n\r\n"
     else "connection: close\r\n\r\n");
  Buffer.contents b

let respond fd ~status ?(content_type = "application/json") ?(headers = [])
    ?keep_alive body =
  send fd
    (head ~status ~content_type ?keep_alive
       (headers @ [ ("content-length", string_of_int (String.length body)) ]));
  send fd body

(* Chunked response: [produce] is handed a writer it may call any number
   of times — the relation endpoint streams row groups through it
   without materialising the whole CSV.  Returns the number of body bytes
   streamed, for the access log. *)
let respond_stream fd ~status ~content_type ?(headers = []) ?keep_alive
    produce =
  send fd
    (head ~status ~content_type ?keep_alive
       (headers @ [ ("transfer-encoding", "chunked") ]));
  let bytes = ref 0 in
  let write chunk =
    if String.length chunk > 0 then begin
      bytes := !bytes + String.length chunk;
      send fd (Printf.sprintf "%x\r\n" (String.length chunk));
      send fd chunk;
      send fd "\r\n"
    end
  in
  produce write;
  send fd "0\r\n\r\n";
  !bytes
