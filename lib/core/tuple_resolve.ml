open Dq_relation
open Dq_cfd

type env = {
  repr : Relation.t;
  sigma : Cfd.t array;
  index : Lhs_index.t;
  clusters : (int * Cluster_index.t) option array;
      (* per attribute: the cluster and the active-domain size it was
         built at *)
  use_cluster_index : bool;
  k : int;
  max_candidates : int;
  arity : int;
  clause_attrs : int list array; (* clause id -> attributes it mentions *)
  rhs_clauses : int list array; (* attr -> clauses with this RHS *)
}

let make_env ?(k = 2) ?(max_candidates = 6) ?(use_cluster_index = true) repr
    sigma =
  if k < 1 then invalid_arg "Tuple_resolve.make_env: k must be >= 1";
  let arity = Schema.arity (Relation.schema repr) in
  let rhs_clauses = Array.make arity [] in
  Array.iteri
    (fun cid cfd ->
      let a = Cfd.rhs cfd in
      rhs_clauses.(a) <- cid :: rhs_clauses.(a))
    sigma;
  {
    repr;
    sigma;
    index = Lhs_index.build sigma repr;
    clusters = Array.make arity None;
    use_cluster_index;
    k;
    max_candidates;
    arity;
    clause_attrs = Array.map Cfd.attrs sigma;
    rhs_clauses;
  }

let relation env = env.repr

let sigma env = env.sigma

let add env t =
  Relation.add env.repr t;
  Lhs_index.add_tuple env.index t

let vio_against env t = Lhs_index.vio env.index t

(* Candidate enumeration must be a function of the tuples registered so
   far, not of when a cluster happened to be built — otherwise repairing
   a delta in one call and in several calls (serve's per-batch ingest)
   tie-breaks equal-cost repairs differently.  The tree depends only on
   the attribute's set of distinct values, and the relation only grows
   while the environment lives, so an unchanged active-domain size means
   an unchanged set and the cached tree is the one a rebuild would
   produce. *)
let cluster env pos =
  let size = Relation.active_domain_size env.repr pos in
  match env.clusters.(pos) with
  | Some (built_at, c) when built_at = size -> c
  | _ ->
    let c = Cluster_index.of_attribute env.repr pos in
    env.clusters.(pos) <- Some (size, c);
    c

let rec combinations k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest ->
      List.map (fun c -> x :: c) (combinations (k - 1) rest)
      @ combinations k rest

(* Candidate values for one attribute of the tuple under repair, in
   preference order: keep the current value; values forced by clauses whose
   RHS is this attribute (pattern constants and LHS-index lookups — the
   "semantically related" values FINDV favours); near neighbours from the
   cost-based index; and always null as the escape hatch. *)
let candidates env rt pos =
  let seen = ref [] in
  let out = ref [] in
  let push v =
    if not (List.exists (Value.equal v) !seen) then begin
      seen := v :: !seen;
      if List.length !out < env.max_candidates then out := v :: !out
    end
  in
  let current = Tuple.get rt pos in
  if not (Value.is_null current) then push current;
  List.iter
    (fun cid ->
      match Lhs_index.expected_rhs env.index env.sigma.(cid) rt with
      | Some v -> push v
      | None -> ())
    env.rhs_clauses.(pos);
  if env.use_cluster_index && not (Value.is_null current) then
    List.iter push (Cluster_index.nearest (cluster env pos) current ~k:4);
  List.rev (Value.null :: !out)

(* Clauses that must hold once the attributes in [positions] are fixed:
   every attribute is already fixed or being fixed now, and at least one is
   being fixed now (clauses fully inside the previously fixed set were
   checked when their last attribute froze and cannot be re-broken). *)
let clauses_in_scope env fixed positions =
  let in_step pos = List.mem pos positions in
  let ok pos = fixed.(pos) || in_step pos in
  let result = ref [] in
  Array.iteri
    (fun cid attrs ->
      if List.exists in_step attrs && List.for_all ok attrs then
        result := cid :: !result)
    env.clause_attrs;
  !result

let rec cross_product = function
  | [] -> [ [] ]
  | cands :: rest ->
    let tails = cross_product rest in
    List.concat_map (fun v -> List.map (fun tail -> v :: tail) tails) cands

let resolve env t =
  let rt = Tuple.copy t in
  let violated =
    let out = ref [] in
    Array.iter
      (fun cfd -> if Lhs_index.violates env.index cfd rt then out := Cfd.id cfd :: !out)
      env.sigma;
    !out
  in
  if violated = [] then rt
  else begin
    let fixed = Array.make env.arity true in
    let remaining = ref [] in
    (* Only attributes of violated clauses stay open; everything else is
       frozen at its current value (zero cost, already consistent). *)
    List.iter
      (fun cid ->
        List.iter
          (fun pos ->
            if fixed.(pos) then begin
              fixed.(pos) <- false;
              remaining := pos :: !remaining
            end)
          env.clause_attrs.(cid))
      violated;
    let remaining = ref (List.sort Int.compare !remaining) in
    while !remaining <> [] do
      let step_k = min env.k (List.length !remaining) in
      let best = ref None in
      let consider cost positions values =
        match !best with
        | Some (c, _, _) when c <= cost -> ()
        | _ -> best := Some (cost, positions, values)
      in
      List.iter
        (fun positions ->
          let scope = clauses_in_scope env fixed positions in
          let cand_lists = List.map (candidates env rt) positions in
          List.iter
            (fun values ->
              let scratch = Tuple.copy rt in
              List.iter2 (Tuple.set scratch) positions values;
              let scope_ok =
                List.for_all
                  (fun cid ->
                    not (Lhs_index.violates env.index env.sigma.(cid) scratch))
                  scope
              in
              if scope_ok then begin
                let change = Cost.tuple_change ~original:t ~repaired:scratch in
                let vio = Lhs_index.vio env.index scratch in
                consider (change *. float_of_int (1 + vio)) positions values
              end)
            (cross_product cand_lists))
        (combinations step_k !remaining);
      match !best with
      | None ->
        (* unreachable: the all-null candidate always satisfies the scope *)
        assert false
      | Some (_, positions, values) ->
        List.iter2 (Tuple.set rt) positions values;
        List.iter (fun pos -> fixed.(pos) <- true) positions;
        remaining := List.filter (fun pos -> not (List.mem pos positions)) !remaining
    done;
    rt
  end
