open Dq_relation

type node =
  | Leaf of { text : string; value : Value.t }
  | Branch of { rep : string; left : node; right : node }

type t = { root : node option; size : int }

(* The first index holding the greatest distance. *)
let first_argmax ds =
  let best = ref 0 in
  Array.iteri (fun i d -> if d > ds.(!best) then best := i) ds;
  !best

(* Farthest-point seeds: start from the first text, walk to the first text
   farthest from it ([a]), then take the first text farthest from [a]
   ([b]).  Returns both seeds' indices and every text's distance to [a],
   which the partition reuses. *)
let pick_seeds texts =
  let a = first_argmax (Cost.dl_distances texts.(0) texts) in
  let to_a = Cost.dl_distances texts.(a) texts in
  let b = first_argmax to_a in
  if String.equal texts.(a) texts.(b) then None else Some (a, b, to_a)

(* [items] is non-empty.  A text goes left when it is no farther from [a]
   than from [b]; each side keeps the input order. *)
let rec build_node items =
  match items with
  | [| (text, value) |] -> Leaf { text; value }
  | _ -> (
    let texts = Array.map fst items in
    match pick_seeds texts with
    | Some (a, b, to_a) ->
      let to_b = Cost.dl_distances texts.(b) texts in
      let near_a = ref [] and near_b = ref [] in
      for i = Array.length items - 1 downto 0 do
        if to_a.(i) <= to_b.(i) then near_a := items.(i) :: !near_a
        else near_b := items.(i) :: !near_b
      done;
      if !near_a = [] || !near_b = [] then split_half items texts.(a)
      else
        Branch
          {
            rep = texts.(a);
            left = build_node (Array.of_list !near_a);
            right = build_node (Array.of_list !near_b);
          }
    | None ->
      (* all values equidistant (or identical): split arbitrarily *)
      split_half items texts.(0))

and split_half items rep =
  let n = Array.length items in
  Branch
    {
      rep;
      left = build_node (Array.sub items 0 (n / 2));
      right = build_node (Array.sub items (n / 2) (n - (n / 2)));
    }

let build values =
  let items =
    values
    |> List.filter (fun v -> not (Value.is_null v))
    |> List.sort_uniq Value.compare
    |> List.map (fun v -> (Value.to_string v, v))
    |> Array.of_list
  in
  match items with
  | [||] -> { root = None; size = 0 }
  | _ -> { root = Some (build_node items); size = Array.length items }

let of_attribute rel pos = build (Relation.active_domain rel pos)

let size t = t.size

let iter_nearest t query f =
  (* Best-first search; [f] returns [true] to stop. *)
  match t.root with
  | None -> ()
  | Some root ->
    let q = Value.to_string query in
    let heap = Heap.create () in
    let push node =
      let d =
        match node with
        | Leaf { text; _ } -> Cost.dl_distance q text
        | Branch { rep; _ } -> Cost.dl_distance q rep
      in
      Heap.add heap ~priority:(float_of_int d) node
    in
    push root;
    let rec drain () =
      match Heap.pop_min heap with
      | None -> ()
      | Some (_, Leaf { value; _ }) -> if not (f value) then drain ()
      | Some (_, Branch { left; right; _ }) ->
        push left;
        push right;
        drain ()
    in
    drain ()

let nearest t query ~k =
  if k <= 0 then []
  else begin
    let out = ref [] in
    let count = ref 0 in
    iter_nearest t query (fun v ->
        out := v :: !out;
        incr count;
        !count >= k);
    List.rev !out
  end

let find_first t query pred =
  let found = ref None in
  iter_nearest t query (fun v ->
      if pred v then begin
        found := Some v;
        true
      end
      else false);
  !found
