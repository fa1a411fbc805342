open Dq_relation
open Dq_cfd
open Dq_core

type edge = { src : int; dst : int; clauses : int list }

type cycle = { attrs : int list; steps : (int * int * int) list }

type termination = Terminating | May_oscillate of cycle list

type shard = {
  shard_id : int;
  clauses : int list;
  attrs : int list;
  independent : bool;
}

type osc_severity = High | Medium | Low

type oscillation = { a : int; b : int; severity : osc_severity }

type clause_cost = {
  clause : int;
  selectivity : float;
  violation_density : float;
  fanout : float;
  hot : bool;
}

let hot_threshold = 0.01

type t = {
  schema : Schema.t;
  sigma : Cfd.t array;
  edges : edge list;
  comp : int array;
  cycles : cycle list;
  termination : termination;
  shards : shard list;
  oscillations : oscillation list;
  costs : clause_cost list option;
}

(* ---- dependency graph ------------------------------------------------- *)

(* Edges [B → A] for every clause [(X → A, tp)], [B ∈ X], self-edges
   excluded (a clause whose RHS sits in its own LHS constrains nothing the
   LHS hasn't already fixed; Lint's W004 makes the same cut).  Inducing
   clause ids are collected per (src, dst) pair in an arity×arity matrix —
   no hash tables, so the output order is a pure function of Σ. *)
let dependency_edges arity sigma =
  let by_pair = Array.make_matrix arity arity [] in
  Array.iter
    (fun c ->
      let rhs = Cfd.rhs c in
      Array.iter
        (fun b -> if b <> rhs then by_pair.(b).(rhs) <- Cfd.id c :: by_pair.(b).(rhs))
        (Cfd.lhs c))
    sigma;
  let edges = ref [] in
  for src = arity - 1 downto 0 do
    for dst = arity - 1 downto 0 do
      match by_pair.(src).(dst) with
      | [] -> ()
      | cids -> edges := { src; dst; clauses = List.rev cids } :: !edges
    done
  done;
  !edges

(* ---- cycle certificates ----------------------------------------------- *)

(* A closed walk through one SCC of size > 1: BFS (adjacency restricted to
   the component, neighbours in ascending order) from the smallest member
   to the nearest attribute with a back-edge to it, then that back-edge.
   Each step carries the smallest inducing clause id, so the certificate
   names concrete clauses a user can look up. *)
let cycle_of_component edges members =
  let in_comp a = List.mem a members in
  let start = List.hd members in
  let succ a =
    List.filter_map
      (fun e ->
        if e.src = a && in_comp e.dst then Some (e.dst, List.hd e.clauses)
        else None)
      edges
  in
  (* parent.(a) = Some (pred, clause) once reached *)
  let parent = Hashtbl.create 8 in
  Hashtbl.add parent start (start, -1);
  let queue = Queue.create () in
  Queue.add start queue;
  let closing = ref None in
  while !closing = None && not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    List.iter
      (fun (b, cid) ->
        if !closing = None then
          if b = start then closing := Some (a, cid)
          else if not (Hashtbl.mem parent b) then begin
            Hashtbl.add parent b (a, cid);
            Queue.add b queue
          end)
      (succ a)
  done;
  match !closing with
  | None -> { attrs = members; steps = [] } (* unreachable: SCC of size > 1 *)
  | Some (last, closing_clause) ->
    let rec path_to a acc =
      if a = start then acc
      else
        let pred, cid = Hashtbl.find parent a in
        path_to pred ((pred, cid, a) :: acc)
    in
    let steps = path_to last [] @ [ (last, closing_clause, start) ] in
    { attrs = members; steps }

let cycle_to_string schema sigma cycle =
  match cycle.steps with
  | [] ->
    String.concat ", " (List.map (Schema.attribute schema) cycle.attrs)
  | (first_src, _, _) :: _ ->
    let step_str (src, cid, _) =
      Printf.sprintf "%s --%s--> " (Schema.attribute schema src)
        (Cfd.name sigma.(cid))
    in
    String.concat "" (List.map step_str cycle.steps)
    ^ Schema.attribute schema first_src

(* ---- termination verdict ---------------------------------------------- *)

(* The dependency edges, the attribute SCCs (reverse topological ids) and
   the verdict with one certificate per cyclic SCC, by smallest member:
   everything the gates need, and nothing of the pairwise analyses. *)
let dependency schema sigma =
  Array.iter
    (fun c ->
      if not (Schema.equal (Cfd.schema c) schema) then
        invalid_arg "Interaction: clause schema mismatch")
    sigma;
  let arity = Schema.arity schema in
  let edges = dependency_edges arity sigma in
  let comp =
    Depgraph.scc ~n:arity ~edges:(List.map (fun e -> (e.src, e.dst)) edges)
  in
  (* SCC members, per component, ascending — components in id order. *)
  let n_comps = Array.fold_left (fun acc c -> max acc (c + 1)) 0 comp in
  let members = Array.make n_comps [] in
  for a = arity - 1 downto 0 do
    members.(comp.(a)) <- a :: members.(comp.(a))
  done;
  let cycles =
    Array.to_list members
    |> List.filter (fun ms -> List.length ms > 1)
    |> List.map (cycle_of_component edges)
    |> List.sort (fun (c1 : cycle) (c2 : cycle) -> compare c1.attrs c2.attrs)
  in
  (edges, comp, if cycles = [] then Terminating else May_oscillate cycles)

let termination schema sigma =
  let _, _, verdict = dependency schema sigma in
  verdict

(* ---- oscillation pairs ------------------------------------------------ *)

let patterns_compatible p q =
  match (p, q) with
  | Pattern.Wild, _ | _, Pattern.Wild -> true
  | Pattern.Const a, Pattern.Const b -> Value.equal a b

(* The LHS pattern of [c] at attribute position [pos] ([Wild] when [pos]
   is not in the LHS — callers only ask for positions that are). *)
let lhs_pattern_at c pos =
  let lhs = Cfd.lhs c and pats = Cfd.lhs_patterns c in
  let rec find k =
    if k >= Array.length lhs then Pattern.Wild
    else if lhs.(k) = pos then pats.(k)
    else find (k + 1)
  in
  find 0

(* [a] feeds [b]: [a]'s RHS attribute appears in [b]'s LHS and the value
   [a] pushes there is compatible with what [b]'s pattern expects. *)
let feeds a b =
  Array.exists (fun p -> p = Cfd.rhs a) (Cfd.lhs b)
  && patterns_compatible (Cfd.rhs_pattern a) (lhs_pattern_at b (Cfd.rhs a))

let oscillation_pairs sigma =
  let n = Array.length sigma in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let a = sigma.(i) and b = sigma.(j) in
      if Cfd.rhs a <> Cfd.rhs b && feeds a b && feeds b a then
        let severity =
          match (Cfd.rhs_pattern a, Cfd.rhs_pattern b) with
          | Pattern.Wild, Pattern.Wild -> High
          | Pattern.Const _, Pattern.Const _ -> Low
          | _ -> Medium
        in
        out := { a = i; b = j; severity } :: !out
    done
  done;
  !out

let severity_to_string = function
  | High -> "high"
  | Medium -> "medium"
  | Low -> "low"

(* ---- shard-safety partition ------------------------------------------- *)

(* Union–find over clause ids: clauses sharing any attribute coalesce.
   Two resulting groups touch disjoint attribute sets, so their repairs
   cannot interact through any cell. *)
let shard_partition arity sigma =
  let n = Array.length sigma in
  let uf = Array.init n (fun i -> i) in
  let rec find i = if uf.(i) = i then i else find uf.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then if ri < rj then uf.(rj) <- ri else uf.(ri) <- rj
  in
  let owner = Array.make arity (-1) in
  Array.iteri
    (fun i c ->
      List.iter
        (fun attr ->
          if owner.(attr) = -1 then owner.(attr) <- i
          else union owner.(attr) i)
        (Cfd.attrs c))
    sigma;
  (* Dense shard ids in order of smallest member clause id: roots appear
     in ascending order because union always keeps the smaller root. *)
  let shard_of_root = Array.make n (-1) in
  let next = ref 0 in
  let partition =
    Array.init n (fun i ->
        let r = find i in
        if shard_of_root.(r) = -1 then begin
          shard_of_root.(r) <- !next;
          incr next
        end;
        shard_of_root.(r))
  in
  partition

let shards_of_partition arity sigma partition ~cycles ~oscillations =
  let n = Array.length sigma in
  let n_shards =
    Array.fold_left (fun acc s -> max acc (s + 1)) 0 partition
  in
  let clauses = Array.make n_shards [] in
  for i = n - 1 downto 0 do
    clauses.(partition.(i)) <- i :: clauses.(partition.(i))
  done;
  let attrs = Array.make n_shards [] in
  Array.iteri
    (fun sid cids ->
      let mark = Array.make arity false in
      List.iter
        (fun cid -> List.iter (fun a -> mark.(a) <- true) (Cfd.attrs sigma.(cid)))
        cids;
      let out = ref [] in
      for a = arity - 1 downto 0 do
        if mark.(a) then out := a :: !out
      done;
      attrs.(sid) <- !out)
    clauses;
  (* A cycle's inducing clauses all share attributes pairwise along the
     walk, so each cycle (and each oscillation pair) lives inside exactly
     one shard — that shard needs reconciliation. *)
  let unsafe = Array.make n_shards false in
  List.iter
    (fun (c : cycle) ->
      match c.steps with
      | (_, cid, _) :: _ -> unsafe.(partition.(cid)) <- true
      | [] -> ())
    cycles;
  List.iter (fun o -> unsafe.(partition.(o.a)) <- true) oscillations;
  List.init n_shards (fun sid ->
      {
        shard_id = sid;
        clauses = clauses.(sid);
        attrs = attrs.(sid);
        independent = not unsafe.(sid);
      })

(* ---- data-aware cost estimates ---------------------------------------- *)

(* Bounded deterministic sample: the instance's first [sample] tuples in
   insertion order.  Per clause, group matching tuples by effective LHS
   key; a tuple counts as violating when its group holds two distinct
   non-null RHS values (wildcard RHS) or its own RHS value contradicts the
   pattern constant.  No hash-table iteration: groups are re-read
   per-tuple through [find_opt], so every number is a pure function of the
   sample order. *)
let clause_costs sigma tuples =
  let n_sample = Array.length tuples in
  if n_sample = 0 then
    Array.to_list
      (Array.map
         (fun c ->
           {
             clause = Cfd.id c;
             selectivity = 0.;
             violation_density = 0.;
             fanout = (if Cfd.is_constant c then 1.0 else 0.);
             hot = false;
           })
         sigma)
  else
    Array.to_list
      (Array.map
         (fun c ->
           let matched = ref 0 and violating = ref 0 in
           let fan_sum = ref 0 in
           if Cfd.is_constant c then begin
             let rhs_pat = Cfd.rhs_pattern c in
             Array.iter
               (fun t ->
                 if Cfd.applies_lhs c t then begin
                   incr matched;
                   let v = Tuple.get t (Cfd.rhs c) in
                   if (not (Value.is_null v)) && not (Pattern.matches v rhs_pat)
                   then incr violating
                 end)
               tuples
           end
           else begin
             (* group sizes and distinct non-null RHS values per LHS key *)
             let groups : (int * Value.t list) Vkey.Table.t =
               Vkey.Table.create 64
             in
             Array.iter
               (fun t ->
                 if Cfd.applies_lhs c t then begin
                   let key = Cfd.lhs_key c t in
                   let size, vals =
                     match Vkey.Table.find_opt groups key with
                     | Some entry -> entry
                     | None -> (0, [])
                   in
                   let v = Tuple.get t (Cfd.rhs c) in
                   let vals =
                     if Value.is_null v || List.exists (Value.equal v) vals
                     then vals
                     else v :: vals
                   in
                   Vkey.Table.replace groups key (size + 1, vals)
                 end)
               tuples;
             Array.iter
               (fun t ->
                 if Cfd.applies_lhs c t then begin
                   incr matched;
                   match Vkey.Table.find_opt groups (Cfd.lhs_key c t) with
                   | None -> ()
                   | Some (size, vals) ->
                     fan_sum := !fan_sum + size;
                     if List.length vals >= 2 then incr violating
                 end)
               tuples
           end;
           let frac k = float_of_int k /. float_of_int n_sample in
           let violation_density = frac !violating in
           {
             clause = Cfd.id c;
             selectivity = frac !matched;
             violation_density;
             fanout =
               (if Cfd.is_constant c then 1.0
                else if !matched = 0 then 0.
                else float_of_int !fan_sum /. float_of_int !matched);
             hot = violation_density >= hot_threshold;
           })
         sigma)

(* ---- entry point ------------------------------------------------------ *)

let analyze ?data ?(sample = 2000) schema sigma =
  let arity = Schema.arity schema in
  let edges, comp, termination = dependency schema sigma in
  let cycles =
    match termination with Terminating -> [] | May_oscillate cs -> cs
  in
  let oscillations = oscillation_pairs sigma in
  let partition = shard_partition arity sigma in
  let shards =
    shards_of_partition arity sigma partition ~cycles ~oscillations
  in
  let costs =
    Option.map
      (fun rel ->
        let tuples = Relation.tuples rel in
        let tuples =
          if Array.length tuples <= sample then tuples
          else Array.sub tuples 0 sample
        in
        clause_costs sigma tuples)
      data
  in
  {
    schema;
    sigma;
    edges;
    comp;
    cycles;
    termination;
    shards;
    oscillations;
    costs;
  }
