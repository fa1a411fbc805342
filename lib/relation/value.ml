type t =
  | Null
  | Int of int
  | Float of float
  | String of string

let null = Null

let string s = String s

let int i = Int i

let float f = Float f

let is_null = function Null -> true | Int _ | Float _ | String _ -> false

let equal v1 v2 =
  match v1, v2 with
  | Null, Null -> true
  | Int i, Int j -> i = j
  | Float f, Float g -> Float.equal f g
  | String s, String t -> String.equal s t
  | (Null | Int _ | Float _ | String _), _ -> false

let equal_null_eq v1 v2 =
  match v1, v2 with
  | Null, _ | _, Null -> true
  | _, _ -> equal v1 v2

let rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | String _ -> 3

let compare v1 v2 =
  match v1, v2 with
  | Null, Null -> 0
  | Int i, Int j -> Int.compare i j
  | Float f, Float g -> Float.compare f g
  | String s, String t -> String.compare s t
  | _, _ -> Int.compare (rank v1) (rank v2)

let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (1, i)
  | Float f -> Hashtbl.hash (2, f)
  | String s -> Hashtbl.hash (3, s)

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let to_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | String s -> s

let to_display = function Null -> "\xe2\x8a\xa5" | v -> to_string v

(* The general reading: an int if [int_of_string] takes the cell, else a
   float if [float_of_string] does, else a string.  Both report failure
   through an exception, so [of_string] settles the common shapes first
   and sends only the rest here. *)
let of_string_general s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> String s)

(* The first bytes either function can accept: digits and signs; '.';
   '_', which [float_of_string] drops; and, since [strtod] skips leading
   C whitespace and reads inf and nan, those too. *)
let may_start_number = function
  | '0' .. '9' | '+' | '-' | '.' | '_' | 'i' | 'I' | 'n' | 'N' | ' ' | '\t'
  | '\n' | '\011' | '\012' | '\r' ->
    true
  | _ -> false

(* The index of the first byte of [s] at or after [i] that is no digit. *)
let rec skip_digits s i =
  if i < String.length s && '0' <= s.[i] && s.[i] <= '9' then
    skip_digits s (i + 1)
  else i

let of_string s =
  let n = String.length s in
  if n = 0 then Null
  else if not (may_start_number s.[0]) then String s
  else
    let start = if s.[0] = '-' then 1 else 0 in
    let i = skip_digits s start in
    if i = n && i > start && i - start <= 18 then
      (* [-?[0-9]{1,18}] cannot overflow *)
      Int (int_of_string s)
    else if i > start && i < n - 1 && s.[i] = '.' && skip_digits s (i + 1) = n
    then
      (* [-?[0-9]+\.[0-9]+] is no int and always a float *)
      Float (float_of_string s)
    else of_string_general s

let pp ppf v = Format.pp_print_string ppf (to_display v)
