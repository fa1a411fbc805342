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
  arity : int;
  clause_attrs : int list array; (* clause id -> attributes it mentions *)
  rhs_clauses : int list array; (* attr -> clauses with this RHS *)
}

(* Candidate values kept per attribute by {!candidates}. *)
let max_candidates = 6

let make_env ?(k = 2) ?(use_cluster_index = true) repr sigma =
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
    arity;
    clause_attrs = Array.map Cfd.attrs sigma;
    rhs_clauses;
  }

let relation env = env.repr

let sigma env = env.sigma

let add env t =
  Relation.add env.repr t;
  Lhs_index.add_tuple env.index t

(* Deleting values can only shrink a domain, so a domain that kept its
   size kept its set, and its tree stays valid; a tree whose domain
   lost a value goes, since later growth could bring the size back with
   another set. *)
let delete env tids =
  let sizes =
    Array.mapi
      (fun pos built ->
        Option.map (fun _ -> Relation.active_domain_size env.repr pos) built)
      env.clusters
  in
  List.iter (fun tid -> ignore (Relation.delete env.repr tid)) tids;
  Lhs_index.reindex env.index env.repr;
  Array.iteri
    (fun pos size ->
      match size with
      | Some size when Relation.active_domain_size env.repr pos < size ->
        env.clusters.(pos) <- None
      | Some _ | None -> ())
    sizes

let vio_against env t = Lhs_index.vio env.index t

(* Candidate enumeration must be a function of the tuples registered so
   far, not of when a cluster happened to be built — otherwise repairing
   a delta in one call and in several calls (serve's per-batch ingest)
   tie-breaks equal-cost repairs differently.  The tree depends only on
   the attribute's set of distinct values, and a cached tree's set has
   only grown since it was built ([delete] drops the tree otherwise), so
   an unchanged active-domain size means an unchanged set and the cached
   tree is the one a rebuild would produce. *)
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
      if List.length !out < max_candidates then out := v :: !out
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

let rec cross_product = function
  | [] -> [ [] ]
  | cands :: rest ->
    let tails = cross_product rest in
    List.concat_map (fun v -> List.map (fun tail -> v :: tail) tails) cands

let resolve env t =
  let rt = Tuple.copy t in
  let violated = ref [] in
  Lhs_index.iter_violated env.index rt (fun cfd ->
      violated := Cfd.id cfd :: !violated);
  if !violated = [] then rt
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
      !violated;
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
          (* A clause must hold once the attributes in [positions] are
             fixed when every attribute it mentions is already fixed or
             being fixed now, and at least one is being fixed now
             (clauses fully inside the previously fixed set were checked
             when their last attribute froze and cannot be re-broken). *)
          let in_step pos = List.mem pos positions in
          let in_scope cid =
            let attrs = env.clause_attrs.(cid) in
            List.exists in_step attrs
            && List.for_all (fun pos -> fixed.(pos) || in_step pos) attrs
          in
          let cand_lists = List.map (candidates env rt) positions in
          List.iter
            (fun values ->
              let scratch = Tuple.copy rt in
              List.iter2 (Tuple.set scratch) positions values;
              (* One pass over the violated clauses gives both the
                 verdict (none of them in scope) and [vio]. *)
              let vio = ref 0 and scope_ok = ref true in
              Lhs_index.iter_violated env.index scratch (fun cfd ->
                  incr vio;
                  if !scope_ok && in_scope (Cfd.id cfd) then scope_ok := false);
              if !scope_ok then begin
                let change = Cost.tuple_change ~original:t ~repaired:scratch in
                consider (change *. float_of_int (1 + !vio)) positions values
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
