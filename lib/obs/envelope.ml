(* The versioned wire envelope shared by the CLI and the serve daemon. *)

let version = 2

(* [id] is the serve daemon's per-request correlation id; CLI envelopes
   answer no request and carry none. *)
let make ~request ?id ~ok ~report ~diagnostics () =
  Json.Obj
    ([ ("v", Json.Int version); ("request", Json.String request) ]
    @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
    @ [
        ("ok", Json.Bool ok);
        ("report", report);
        ("diagnostics", Json.List diagnostics);
      ])

let error ~request ?id err_json =
  make ~request ?id ~ok:false ~report:Json.Null ~diagnostics:[ err_json ] ()
