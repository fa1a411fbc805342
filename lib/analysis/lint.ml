open Dq_relation
open Dq_cfd
open Dq_core
module P = Cfd_parser

(* Where a normal-form clause came from: tableau index, pattern-row index
   ([-1] for the implicit all-wild row of a plain FD) and RHS attribute.
   [span] points at the pattern row (or the CFD name for implicit rows). *)
type origin = {
  tab_idx : int;
  row_idx : int;
  rhs_attr : string;
  span : P.span;
  name : string;
  name_span : P.span;
}

let origin_label o =
  if o.row_idx < 0 then o.name else Printf.sprintf "%s row %d" o.name (o.row_idx + 1)

(* attribute name → position within [xs], computed once per tableau so the
   per-row checks below do array lookups instead of rescanning lists. *)
let position_map xs =
  let tbl = Hashtbl.create (List.length xs * 2) in
  List.iteri (fun i x -> if not (Hashtbl.mem tbl x) then Hashtbl.add tbl x i) xs;
  tbl

let row_equal (a : Cfd.Tableau.row) (b : Cfd.Tableau.row) =
  List.length a.lhs = List.length b.lhs
  && List.length a.rhs = List.length b.rhs
  && List.for_all2 Pattern.equal a.lhs b.lhs
  && List.for_all2 Pattern.equal a.rhs b.rhs

(* [a] subsumed by [b]: every tuple matching [a]'s LHS matches [b]'s LHS,
   and the rows assert the same RHS patterns — so [a] adds nothing. *)
let row_subsumed_by (a : Cfd.Tableau.row) (b : Cfd.Tableau.row) =
  List.length a.lhs = List.length b.lhs
  && List.length a.rhs = List.length b.rhs
  && List.for_all2 Pattern.subsumes a.lhs b.lhs
  && List.for_all2 Pattern.equal a.rhs b.rhs

(* E002's pairs: [(i, v_i, j, v_j)] with [i < j] for every two constant-RHS
   clauses over one embedded FD whose LHS patterns can match a common tuple
   but whose RHS constants [v_i], [v_j] differ.  Two such clauses match a
   common tuple exactly when they agree on every LHS position both fix to
   a constant.  So each embedded FD's clauses are bucketed by the set of
   positions they fix (an FD has few such sets), and for every pair of
   buckets one side is hashed by its constants on the positions both fix
   and probed with the other.  A hash entry keeps its clauses by RHS
   constant, so a probe walks only partners it reports.  Groups and
   buckets are kept in Σ order; the caller sorts the diagnostics.
   [lhs_consts] is aligned with the key's sorted LHS positions, with [Null]
   for a wildcard (no pattern constant is [Null]). *)
type e002_row = { idx : int; lhs_consts : Value.t array; rhs_const : Value.t }

type e002_bucket = { fixed : int list; mutable rows : e002_row list }

let conflicting_constants sigma =
  (* embedded FD key -> (bucket table, buckets in reverse first-seen order) *)
  let groups = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun idx c ->
      match Cfd.rhs_pattern c with
      | Pattern.Wild -> ()
      | Pattern.Const rhs_const ->
        let key = Cfd.embedded_fd_key c in
        let by_fixed, buckets =
          match Hashtbl.find_opt groups key with
          | Some g -> g
          | None ->
            let g = (Hashtbl.create 4, ref []) in
            Hashtbl.add groups key g;
            order := g :: !order;
            g
        in
        let by_pos =
          Array.map2
            (fun p pat ->
              (p, match pat with Pattern.Const v -> v | Pattern.Wild -> Value.Null))
            (Cfd.lhs c) (Cfd.lhs_patterns c)
        in
        Array.sort (fun (p, _) (q, _) -> Int.compare p q) by_pos;
        let lhs_consts = Array.map snd by_pos in
        let fixed =
          List.filter
            (fun s -> not (Value.is_null lhs_consts.(s)))
            (List.init (Array.length lhs_consts) Fun.id)
        in
        let b =
          match Hashtbl.find_opt by_fixed fixed with
          | Some b -> b
          | None ->
            let b = { fixed; rows = [] } in
            Hashtbl.add by_fixed fixed b;
            buckets := b :: !buckets;
            b
        in
        b.rows <- { idx; lhs_consts; rhs_const } :: b.rows)
    sigma;
  let out = ref [] in
  let report (i, vi) (j, vj) =
    out := (if i < j then (i, vi, j, vj) else (j, vj, i, vi)) :: !out
  in
  let pair_buckets b1 b2 =
    let shared = List.filter (fun s -> List.mem s b2.fixed) b1.fixed in
    let key r = Array.of_list (List.map (fun s -> r.lhs_consts.(s)) shared) in
    (* key -> (RHS constant, clause indices) list *)
    let table = Vkey.Table.create 16 in
    let add r =
      let k = key r in
      let entries = Option.value ~default:[] (Vkey.Table.find_opt table k) in
      match List.find_opt (fun (v, _) -> Value.equal v r.rhs_const) entries with
      | Some (_, idxs) -> idxs := r.idx :: !idxs
      | None -> Vkey.Table.replace table k ((r.rhs_const, ref [ r.idx ]) :: entries)
    in
    let probe r =
      match Vkey.Table.find_opt table (key r) with
      | None -> ()
      | Some entries ->
        List.iter
          (fun (v, idxs) ->
            if not (Value.equal v r.rhs_const) then
              List.iter (fun i -> report (i, v) (r.idx, r.rhs_const)) !idxs)
          entries
    in
    if b1 == b2 then
      List.iter
        (fun r ->
          probe r;
          add r)
        (List.rev b1.rows)
    else begin
      List.iter add b1.rows;
      List.iter probe b2.rows
    end
  in
  List.iter
    (fun (_, buckets) ->
      let rec pairs = function
        | [] -> ()
        | b :: rest ->
          pair_buckets b b;
          List.iter (pair_buckets b) rest;
          pairs rest
      in
      pairs (List.rev !buckets))
    (List.rev !order);
  !out

(* The all-wild row [Cfd.normalize] inserts for a body-less FD. *)
let implicit_row (tab : Cfd.Tableau.t) =
  Cfd.Tableau.
    {
      lhs = List.map (fun _ -> Pattern.Wild) tab.lhs_attrs;
      rhs = List.map (fun _ -> Pattern.Wild) tab.rhs_attrs;
    }

(* Rows of a tableau with their indices and spans, including the implicit
   row (index -1, located at the CFD name). *)
let located_rows (lt : P.Located.tableau) =
  match lt.tab.rows with
  | [] -> [ (implicit_row lt.tab, -1, lt.name_span) ]
  | rows ->
    let spans = Array.of_list lt.row_spans in
    List.mapi (fun j r -> (r, j, spans.(j))) rows

let synthesize_schema tabs =
  let seen = Hashtbl.create 16 in
  let attrs = ref [] in
  List.iter
    (fun (lt : P.Located.tableau) ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem seen a) then begin
            Hashtbl.add seen a ();
            attrs := a :: !attrs
          end)
        (lt.tab.lhs_attrs @ lt.tab.rhs_attrs))
    tabs;
  Schema.make ~name:"ruleset" (List.rev !attrs)

let run ?(node_budget = 200_000) ?(errors_only = false) ?schema
    (tabs : P.Located.tableau list) =
  if tabs = [] then []
  else begin
    let diags = ref [] in
    let emit ?span ?clause code fmt =
      Format.kasprintf
        (fun message -> diags := Diagnostic.make ?span ?clause code message :: !diags)
        fmt
    in
    let explicit_schema = schema <> None in
    let schema =
      match schema with Some s -> s | None -> synthesize_schema tabs
    in
    (* E003: unknown attributes and malformed clauses, per attribute token.
       A tableau with any E003 cannot be resolved and is excluded from the
       clause-level checks below. *)
    let bad = Hashtbl.create 8 in
    List.iteri
      (fun i (lt : P.Located.tableau) ->
        let check_attr (a, span) =
          if explicit_schema && not (Schema.mem schema a) then begin
            Hashtbl.replace bad i ();
            emit ~span ~clause:lt.tab.name Diagnostic.E003
              "unknown attribute %S (not in schema %s)" a (Schema.name schema)
          end
        in
        List.iter check_attr
          (List.combine lt.tab.lhs_attrs lt.lhs_attr_spans
          @ List.combine lt.tab.rhs_attrs lt.rhs_attr_spans);
        let seen = Hashtbl.create 4 in
        List.iter2
          (fun a span ->
            if Hashtbl.mem seen a then begin
              Hashtbl.replace bad i ();
              emit ~span ~clause:lt.tab.name Diagnostic.E003
                "duplicate LHS attribute %S" a
            end
            else Hashtbl.add seen a ())
          lt.tab.lhs_attrs lt.lhs_attr_spans)
      tabs;
    (* Expand good tableaux into normal-form clauses, keeping provenance. *)
    let clauses = ref [] in
    List.iteri
      (fun i (lt : P.Located.tableau) ->
        if not (Hashtbl.mem bad i) then
          List.iter
            (fun (row, row_idx, span) ->
              let rhs_pats = Array.of_list row.Cfd.Tableau.rhs in
              List.iteri
                (fun k rhs_attr ->
                  let rhs_pat = rhs_pats.(k) in
                  match
                    Cfd.make ~name:lt.tab.name schema
                      ~lhs:(List.combine lt.tab.lhs_attrs row.Cfd.Tableau.lhs)
                      ~rhs:(rhs_attr, rhs_pat)
                  with
                  | c ->
                    clauses :=
                      ( c,
                        {
                          tab_idx = i;
                          row_idx;
                          rhs_attr;
                          span;
                          name = lt.tab.name;
                          name_span = lt.name_span;
                        } )
                      :: !clauses
                  | exception Invalid_argument msg ->
                    Hashtbl.replace bad i ();
                    emit ~span ~clause:lt.tab.name Diagnostic.E003 "%s" msg)
                lt.tab.rhs_attrs)
            (located_rows lt))
      tabs;
    let clauses = Array.of_list (List.rev !clauses) in
    let sigma = Cfd.number (Array.to_list (Array.map fst clauses)) in
    let origins = Array.map snd clauses in
    let n = Array.length sigma in
    (* E002: two clauses over the same embedded FD whose LHS patterns can
       match the same tuple but whose RHS constants disagree — any matching
       tuple is unrepairable without leaving the patterns' scope. *)
    List.iter
      (fun (i, v1, j, v2) ->
        emit ~span:origins.(j).span ~clause:origins.(j).name Diagnostic.E002
          "%s and %s have compatible LHS patterns but contradictory \
           constants for %s: %s vs %s"
          (origin_label origins.(i))
          (origin_label origins.(j))
          origins.(j).rhs_attr (Value.to_string v1) (Value.to_string v2))
      (conflicting_constants sigma);
    (* E001: satisfiability of the whole ruleset (Section 2), with a minimal
       conflicting clause subset found by greedy deletion. *)
    let satisfiable =
      n = 0 || Satisfiability.witness schema sigma <> None
    in
    if not satisfiable then begin
      let unsat idxs =
        Satisfiability.witness schema
          (Cfd.number (List.map (fun i -> sigma.(i)) idxs))
        = None
      in
      let rec shrink kept = function
        | [] -> List.rev kept
        | i :: rest ->
          if unsat (List.rev_append kept rest) then shrink kept rest
          else shrink (i :: kept) rest
      in
      let core = shrink [] (List.init n Fun.id) in
      let first = List.hd core in
      emit ~span:origins.(first).span ~clause:origins.(first).name
        Diagnostic.E001
        "the ruleset is unsatisfiable: no non-empty instance can satisfy it; \
         minimal conflicting clauses: %s"
        (String.concat "; "
           (List.map (fun i -> Fmt.str "%a" Cfd.pp sigma.(i)) core))
    end;
    if not errors_only then begin
      (* W005: duplicate CFD names across the ruleset. *)
      let names = Hashtbl.create 8 in
      List.iteri
        (fun i (lt : P.Located.tableau) ->
          match Hashtbl.find_opt names lt.tab.name with
          | Some first ->
            emit ~span:lt.name_span ~clause:lt.tab.name Diagnostic.W005
              "duplicate CFD name %S (first defined as CFD %d)" lt.tab.name
              (first + 1)
          | None -> Hashtbl.add names lt.tab.name i)
        tabs;
      (* W005 (rows) and W002, per tableau; rows flagged here are excluded
         from W001 so each defect is reported once. *)
      let flagged = Hashtbl.create 8 in
      List.iteri
        (fun i (lt : P.Located.tableau) ->
          let rows =
            Array.of_list
              (List.map2
                 (fun r s -> (r, s))
                 lt.tab.rows lt.row_spans)
          in
          for j = 0 to Array.length rows - 1 do
            let rj, sj = rows.(j) in
            let dup = ref None and subsumer = ref None in
            for k = 0 to Array.length rows - 1 do
              if k <> j then begin
                let rk, _ = rows.(k) in
                if k < j && !dup = None && row_equal rj rk then dup := Some k;
                if !subsumer = None && (not (row_equal rj rk))
                   && row_subsumed_by rj rk
                then subsumer := Some k
              end
            done;
            match !dup with
            | Some k ->
              Hashtbl.replace flagged (i, j) ();
              emit ~span:sj ~clause:lt.tab.name Diagnostic.W005
                "row %d duplicates row %d" (j + 1) (k + 1)
            | None -> (
              match !subsumer with
              | Some k ->
                Hashtbl.replace flagged (i, j) ();
                emit ~span:sj ~clause:lt.tab.name Diagnostic.W002
                  "row %d is subsumed by the more general row %d" (j + 1)
                  (k + 1)
              | None -> ())
          done)
        tabs;
      (* W003: an RHS attribute that already appears in the LHS, with
         patterns that can never constrain a matching tuple.  A tableau
         whose every RHS attribute is trivial is vacuously implied by
         anything, so W001 skips it rather than double-report. *)
      let all_trivial = Hashtbl.create 4 in
      List.iteri
        (fun i (lt : P.Located.tableau) ->
          let lhs_pos = position_map lt.tab.lhs_attrs in
          let rhs_spans = Array.of_list lt.rhs_attr_spans in
          (* Pattern rows as arrays, once per tableau, so the per-RHS
             vacuity check indexes instead of [List.nth]-ing. *)
          let rows =
            (match lt.tab.rows with
            | [] -> [ implicit_row lt.tab ]
            | rows -> rows)
            |> List.map (fun (r : Cfd.Tableau.row) ->
                   (Array.of_list r.lhs, Array.of_list r.rhs))
            |> Array.of_list
          in
          let trivial = ref 0 in
          List.iteri
            (fun k rhs_attr ->
              match Hashtbl.find_opt lhs_pos rhs_attr with
              | None -> ()
              | Some li ->
                let vacuous (lhs_pats, rhs_pats) =
                  match (rhs_pats.(k), lhs_pats.(li)) with
                  | Pattern.Wild, _ -> true
                  | Pattern.Const a, Pattern.Const b -> Value.equal a b
                  | Pattern.Const _, Pattern.Wild -> false
                in
                if Array.for_all vacuous rows then begin
                  incr trivial;
                  emit ~span:rhs_spans.(k) ~clause:lt.tab.name Diagnostic.W003
                    "trivial CFD: RHS attribute %S already appears in the \
                     LHS, so every matching tuple satisfies it"
                    rhs_attr
                end)
            lt.tab.rhs_attrs;
          if !trivial = List.length lt.tab.rhs_attrs then
            Hashtbl.replace all_trivial i ())
        tabs;
      (* W004: attribute SCCs of size > 1 in the dependency graph — the
         cyclic interaction behind Example 4.1's oscillation hazard. *)
      if n > 0 then begin
        let arity = Schema.arity schema in
        let edges =
          Array.to_list sigma
          |> List.concat_map (fun c ->
                 let rhs = Cfd.rhs c in
                 Array.to_list (Cfd.lhs c)
                 |> List.filter_map (fun b ->
                        if b = rhs then None else Some (b, rhs)))
        in
        let comp = Depgraph.scc ~n:arity ~edges in
        let members = Hashtbl.create 8 in
        Array.iteri
          (fun pos c ->
            Hashtbl.replace members c
              (pos :: Option.value ~default:[] (Hashtbl.find_opt members c)))
          comp;
        Hashtbl.iter
          (fun _ positions ->
            let positions = List.sort Int.compare positions in
            if List.length positions > 1 then begin
              let in_comp pos = List.mem pos positions in
              let involved =
                Array.to_list
                  (Array.mapi
                     (fun i c ->
                       if
                         in_comp (Cfd.rhs c)
                         && Array.exists in_comp (Cfd.lhs c)
                       then Some i
                       else None)
                     sigma)
                |> List.filter_map Fun.id
              in
              match involved with
              | [] -> ()
              | first :: _ ->
                let names =
                  List.fold_left
                    (fun acc i ->
                      let nm = origins.(i).name in
                      if List.mem nm acc then acc else acc @ [ nm ])
                    [] involved
                in
                emit ~span:origins.(first).name_span
                  ~clause:origins.(first).name Diagnostic.W004
                  "attributes %s form a dependency cycle through %s: \
                   repairing one clause can re-violate another (the \
                   Example 4.1 oscillation hazard)"
                  (String.concat ", "
                     (List.map (Schema.attribute schema) positions))
                  (String.concat ", " names)
            end)
          members
      end;
      (* W001: a pattern row all of whose clauses are implied by the rest of
         Σ is dead weight (Dq_core.Implication's refutation search). *)
      if satisfiable && n > 1 then
        List.iteri
          (fun i (lt : P.Located.tableau) ->
            if not (Hashtbl.mem bad i) && not (Hashtbl.mem all_trivial i) then
              List.iter
                (fun ((_ : Cfd.Tableau.row), row_idx, span) ->
                  if not (Hashtbl.mem flagged (i, row_idx)) then begin
                    let mine = ref [] and rest = ref [] in
                    Array.iteri
                      (fun k o ->
                        if o.tab_idx = i && o.row_idx = row_idx then
                          mine := sigma.(k) :: !mine
                        else rest := sigma.(k) :: !rest)
                      origins;
                    if !mine <> [] && !rest <> [] then begin
                      let rest_sigma = Cfd.number (List.rev !rest) in
                      let implied c =
                        try Implication.implies ~node_budget schema rest_sigma c
                        with Implication.Budget_exceeded -> false
                      in
                      if List.for_all implied !mine then
                        emit ~span ~clause:lt.tab.name Diagnostic.W001
                          "%s is implied by the rest of the ruleset and can \
                           be dropped"
                          (if row_idx < 0 then lt.tab.name
                           else Printf.sprintf "row %d" (row_idx + 1))
                    end
                  end)
                (located_rows lt))
          tabs
    end;
    List.sort Diagnostic.compare !diags
  end
