(** Minimal HTTP/1.1 framing for the serve daemon.

    Just enough protocol for a local request/response API:
    [content-length] bodies on the way in (a [transfer-encoding] is
    refused) and on the way out.  Connections close after one response
    unless the caller passes [keep_alive]; a {!reader} carries pipelined
    leftover bytes between requests on the same connection.  Parsing is
    split from socket I/O so the framing rules are unit-testable on
    plain strings ({!parse}). *)

type request = {
  meth : string;  (** verb, verbatim ([GET], [POST], ...) *)
  target : string;  (** the raw request target *)
  path : string list;  (** target split on [/], query string dropped *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type error = { status : int; reason : string }
(** A framing problem plus the HTTP status it answers with: 400 for
    malformed requests (conflicting [content-length] values included),
    408 for a mid-request read timeout, 413 for an oversized body, 431
    for an oversized head, 501 for a request with a
    [transfer-encoding].  The daemon closes the connection after any of
    them. *)

val header : request -> string -> string option
(** Case-insensitive header lookup (first match). *)

val split_target : string -> string list

val parse : ?max_body:int -> string -> (request, error) result
(** Parse one whole request held in a string: head up to the blank line
    (CRLF or bare LF), then exactly [content-length] body bytes. *)

exception Closed
(** The peer went away mid-write (EPIPE / ECONNRESET).  Handlers treat
    it as a benign end of conversation. *)

type reader
(** Per-connection read state: the socket plus any bytes already read
    past the previous request's body. *)

val reader : Unix.file_descr -> reader

val read_request :
  ?max_body:int ->
  ?idle_timeout:float ->
  ?read_timeout:float ->
  reader ->
  (request option, error) result
(** Read one request.  [Ok None] when the peer closed — or, with
    [idle_timeout], sent nothing within it — before the request's first
    byte; [Error _] on framing problems.  [idle_timeout] bounds the wait
    for the first byte (keep-alive gaps), [read_timeout] every read
    after it (slowloris defense); both use [SO_RCVTIMEO] and are
    entirely skipped — no socket option traffic — when absent. *)

val send : Unix.file_descr -> string -> unit
(** Write a whole string.  @raise Closed if the peer went away. *)

val status_text : int -> string

val respond :
  Unix.file_descr ->
  status:int ->
  ?content_type:string ->
  ?headers:(string * string) list ->
  ?keep_alive:bool ->
  string ->
  unit
(** One fixed-length response ([content-length]).  Default content type
    is [application/json]; [headers] are emitted before the framing
    headers; [keep_alive] (default false) selects the [connection]
    header.  @raise Closed *)
