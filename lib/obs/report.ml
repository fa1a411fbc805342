type degraded = { reason : string; progress : float }

type t = {
  engine : string;
  summary : (string * Json.t) list;
  phases : (string * float) list;
  provenance : Provenance.entry list;
  degraded : degraded option;
}

let make ~engine ?(summary = []) ?(phases = []) ?(provenance = []) ?degraded ()
    =
  { engine; summary; phases; provenance; degraded }

let degraded_equal a b =
  String.equal a.reason b.reason && Float.equal a.progress b.progress

let equal a b =
  String.equal a.engine b.engine
  && List.equal
       (fun (k, v) (k', v') -> String.equal k k' && Json.equal v v')
       a.summary b.summary
  && List.equal Provenance.entry_equal a.provenance b.provenance
  && Option.equal degraded_equal a.degraded b.degraded

let json_parts ~with_phases r =
  [
    ("engine", Json.String r.engine);
    ("summary", Json.Obj r.summary);
  ]
  @ (if with_phases then
       [
         ( "phases",
           Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) r.phases) );
       ]
     else [])
  @ [ ("provenance", Json.List (List.map Provenance.entry_to_json r.provenance)) ]
  (* Emitted only when present, so reports from undegraded runs are
     byte-identical to what they were before the field existed. *)
  @ (match r.degraded with
    | None -> []
    | Some { reason; progress } ->
      [
        ("degraded", Json.Bool true);
        ("degraded_reason", Json.String reason);
        ("progress", Json.Float progress);
      ])

let to_json r = Json.Obj (json_parts ~with_phases:true r)

let stable_json r = Json.Obj (json_parts ~with_phases:false r)
