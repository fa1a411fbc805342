open Dq_relation

type target = Unfixed | Const of Value.t | Null

let pp_target ppf = function
  | Unfixed -> Format.pp_print_string ppf "_"
  | Const v -> Value.pp ppf v
  | Null -> Format.pp_print_string ppf "null"

type info = {
  mutable target : target;
  mutable repr : Value.t;
  mutable members : (int * int) list;
  mutable size : int;
  mutable rank : int;
}

(* Stands in the [info] slot of every cell that is not a root.  Never
   mutated: only roots' records are. *)
let no_info =
  { target = Unfixed; repr = Value.null; members = []; size = 0; rank = 0 }

type t = {
  arity : int;
  original : tid:int -> attr:int -> Value.t;
  mutable parent : int array;
  (* cell -> parent cell; a root is its own parent, an unregistered cell
     holds -1 *)
  mutable info : info array; (* root cell -> class info; [no_info] elsewhere *)
  mutable n_cells : int;
  mutable n_classes : int;
}

let create ~arity ~original =
  if arity <= 0 then invalid_arg "Eqclass.create: arity must be positive";
  {
    arity;
    original;
    parent = Array.make 1024 (-1);
    info = Array.make 1024 no_info;
    n_cells = 0;
    n_classes = 0;
  }

(* Make room for cell [c]: at least double, so registering cells in
   ascending order costs amortised O(1) each. *)
let ensure eq c =
  if c < 0 then invalid_arg (Printf.sprintf "Eqclass: negative cell %d" c);
  let len = Array.length eq.parent in
  if c >= len then begin
    let len' = max (c + 1) (2 * len) in
    let parent = Array.make len' (-1) and info = Array.make len' no_info in
    Array.blit eq.parent 0 parent 0 len;
    Array.blit eq.info 0 info 0 len;
    eq.parent <- parent;
    eq.info <- info
  end

let register eq c =
  ensure eq c;
  if eq.parent.(c) < 0 then begin
    let tid = c / eq.arity and attr = c mod eq.arity in
    let repr = eq.original ~tid ~attr in
    eq.parent.(c) <- c;
    eq.info.(c) <-
      { target = Unfixed; repr; members = [ (tid, attr) ]; size = 1; rank = 0 };
    eq.n_cells <- eq.n_cells + 1;
    eq.n_classes <- eq.n_classes + 1
  end

let cell eq ~tid ~attr =
  if attr < 0 || attr >= eq.arity then
    invalid_arg (Printf.sprintf "Eqclass.cell: attribute %d out of range" attr);
  if tid < 0 then
    invalid_arg (Printf.sprintf "Eqclass.cell: negative tuple id %d" tid);
  let c = (tid * eq.arity) + attr in
  register eq c;
  c

let tid_attr eq c = (c / eq.arity, c mod eq.arity)

let rec root_of parent c =
  let p = parent.(c) in
  if p = c then c
  else begin
    let root = root_of parent p in
    if root <> p then parent.(c) <- root;
    root
  end

let find eq c =
  register eq c;
  root_of eq.parent c

let same_class eq c1 c2 = find eq c1 = find eq c2

let info_of eq c = eq.info.(find eq c)

let target eq c = (info_of eq c).target

let repr eq c = (info_of eq c).repr

let effective eq c =
  let i = info_of eq c in
  match i.target with Unfixed -> i.repr | Const v -> v | Null -> Value.null

let upgrade_ok before after =
  match before, after with
  | Unfixed, _ -> true
  | Const _, Null -> true
  | Const a, Const b -> Value.equal a b
  | Const _, Unfixed -> false
  | Null, Null -> true
  | Null, (Unfixed | Const _) -> false

let set_target eq c tgt =
  let i = info_of eq c in
  if not (upgrade_ok i.target tgt) then
    invalid_arg
      (Format.asprintf "Eqclass.set_target: illegal move %a -> %a" pp_target
         i.target pp_target tgt);
  i.target <- tgt

let join_targets t1 t2 =
  match t1, t2 with
  | Unfixed, t | t, Unfixed -> t
  | Null, _ | _, Null -> Null
  | Const a, Const b ->
    if Value.equal a b then Const a
    else
      invalid_arg
        (Format.asprintf
           "Eqclass.union: classes with distinct constant targets %a / %a"
           Value.pp a Value.pp b)

let union eq c1 c2 =
  let r1 = find eq c1 and r2 = find eq c2 in
  if r1 = r2 then r1
  else begin
    let i1 = eq.info.(r1) and i2 = eq.info.(r2) in
    let joined = join_targets i1.target i2.target in
    let root, child, ri, ci =
      if i1.rank >= i2.rank then (r1, r2, i1, i2) else (r2, r1, i2, i1)
    in
    eq.parent.(child) <- root;
    eq.info.(child) <- no_info;
    eq.n_classes <- eq.n_classes - 1;
    ri.target <- joined;
    (* Keep a constant-bearing side's representative: when the joined target
       is a constant the representative is irrelevant, but when both sides
       were Unfixed the surviving root's representative stands. *)
    ri.members <- List.rev_append ci.members ri.members;
    ri.size <- ri.size + ci.size;
    if ri.rank = ci.rank then ri.rank <- ri.rank + 1;
    root
  end

let members eq c = (info_of eq c).members

let size eq c = (info_of eq c).size

let n_cells eq = eq.n_cells

let n_classes eq = eq.n_classes

let iter_roots f eq =
  (* Collect first: [f] may merge classes or register cells. *)
  let roots = ref [] in
  for c = Array.length eq.parent - 1 downto 0 do
    if eq.parent.(c) = c then roots := c :: !roots
  done;
  List.iter f !roots

let set_repr eq c v =
  let i = info_of eq c in
  match i.target with
  | Unfixed -> i.repr <- v
  | Const _ | Null ->
    invalid_arg "Eqclass.set_repr: representative is fixed once targeted"

(* ---- snapshots (checkpoint/resume) ----------------------------------- *)

type class_state = {
  cls_root : int;
  cls_target : target;
  cls_repr : Value.t;
  cls_rank : int;
  cls_members : (int * int) list;
}

type snapshot = { snap_arity : int; snap_classes : class_state list }

let snapshot eq =
  let classes = ref [] in
  iter_roots
    (fun root ->
      let i = eq.info.(root) in
      classes :=
        {
          cls_root = root;
          cls_target = i.target;
          cls_repr = i.repr;
          cls_rank = i.rank;
          (* Member order is preserved exactly: resumed [members] lists
             must replay identically. *)
          cls_members = i.members;
        }
        :: !classes)
    eq;
  { snap_arity = eq.arity; snap_classes = List.rev !classes }

let restore ~original { snap_arity = arity; snap_classes } =
  let eq = create ~arity ~original in
  List.iter
    (fun { cls_root; cls_target; cls_repr; cls_rank; cls_members } ->
      (* Fully compressed: every member points straight at the root.
         [find] keeps it that way, so a restored structure and the
         structure it was snapshotted from answer all queries alike. *)
      List.iter
        (fun (tid, attr) ->
          let c = (tid * arity) + attr in
          ensure eq c;
          eq.parent.(c) <- cls_root;
          eq.n_cells <- eq.n_cells + 1)
        cls_members;
      eq.info.(cls_root) <-
        {
          target = cls_target;
          repr = cls_repr;
          members = cls_members;
          size = List.length cls_members;
          rank = cls_rank;
        };
      eq.n_classes <- eq.n_classes + 1)
    snap_classes;
  eq
