type subnet = Single of int | Pair of int * int
type t = subnet list
type strategy = Along_route of int | Greedy | Singletons

let servers_of = function Single s -> [ s ] | Pair (u, v) -> [ u; v ]

let pp ppf pairing =
  let pp_subnet ppf = function
    | Single s -> Format.fprintf ppf "{%d}" s
    | Pair (u, v) -> Format.fprintf ppf "{%d,%d}" u v
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    pp_subnet ppf pairing

(* Map each server to the index of its subnet; raise on bad covers. *)
let subnet_assignment net subnets =
  let assignment = Hashtbl.create 32 in
  List.iteri
    (fun i subnet ->
      List.iter
        (fun s ->
          ignore (Network.server net s);
          if Hashtbl.mem assignment s then
            invalid_arg
              (Printf.sprintf "Pairing: server %d appears in two subnets" s);
          Hashtbl.replace assignment s i)
        (servers_of subnet))
    subnets;
  List.iter
    (fun (s : Server.t) ->
      if not (Hashtbl.mem assignment s.id) then
        invalid_arg
          (Printf.sprintf "Pairing: server %d not covered by any subnet" s.id))
    (Network.servers net);
  assignment

(* Topologically order the contracted (subnet) graph; raise
   Network.Cyclic when contraction created a cycle.  Kahn over
   per-subnet adjacency: the ready stack starts ascending, and newly
   ready successors are pushed in front in ascending order. *)
let order_subnets net subnets =
  let assignment = subnet_assignment net subnets in
  let arr = Array.of_list subnets in
  let n = Array.length arr in
  let succ = Array.make n [] in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find assignment a and ib = Hashtbl.find assignment b in
      if ia <> ib then succ.(ia) <- ib :: succ.(ia))
    (Network.edges net);
  let indegree = Array.make n 0 in
  Array.iteri
    (fun i next ->
      succ.(i) <- List.sort_uniq compare next;
      List.iter (fun b -> indegree.(b) <- indegree.(b) + 1) succ.(i))
    succ;
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then ready := i :: !ready
  done;
  let rec kahn order = function
    | [] -> List.rev order
    | i :: rest ->
        let next =
          List.filter
            (fun b ->
              indegree.(b) <- indegree.(b) - 1;
              indegree.(b) = 0)
            succ.(i)
        in
        kahn (i :: order) (next @ rest)
  in
  let order = kahn [] !ready in
  if List.length order <> n then raise Network.Cyclic;
  List.map (fun i -> arr.(i)) order

(* A pair is only meaningful when some flow rides the edge u -> v. *)
let check_pair_has_edge net = function
  | Single _ -> ()
  | Pair (u, v) ->
      if not (List.mem v (Network.successors net u)) then
        invalid_arg
          (Printf.sprintf
             "Pairing: no flow traverses servers %d -> %d consecutively" u v)

let validate net subnets =
  List.iter (check_pair_has_edge net) subnets;
  let ordered = order_subnets net subnets in
  (* The supplied list must itself be a valid processing order: every
     edge into a subnet must come from an earlier subnet. *)
  let position = Hashtbl.create 32 in
  List.iteri
    (fun i subnet ->
      List.iter (fun s -> Hashtbl.replace position s i) (servers_of subnet))
    subnets;
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find position a and ib = Hashtbl.find position b in
      if ia > ib then
        invalid_arg
          (Printf.sprintf
             "Pairing: subnet of server %d is listed after its downstream \
              server %d" a b))
    (Network.edges net);
  ignore ordered

let singletons net =
  List.map (fun (s : Server.t) -> Single s.id) (Network.servers net)

let along_route net flow_id =
  (* [Network.flow] itself raises a descriptive [Invalid_argument] for
     an unknown id. *)
  let f = Network.flow net flow_id in
  let rec pair_up = function
    | u :: v :: rest -> Pair (u, v) :: pair_up rest
    | [ u ] -> [ Single u ]
    | [] -> []
  in
  let on_route = pair_up f.route in
  let covered =
    List.concat_map servers_of on_route |> List.sort_uniq compare
  in
  let rest =
    Network.servers net
    |> List.filter_map (fun (s : Server.t) ->
           if List.mem s.id covered then None else Some (Single s.id))
  in
  on_route @ rest

(* Contracting a -> b (both unpaired) closes a cycle exactly when b is
   reachable from a successor of a other than b, so one traversal per
   scanned server — marking every subnet strictly below the subnets of
   its successors — decides all of its candidates. *)
let greedy net =
  let transit = Hashtbl.create 64 in
  let count e = Option.value ~default:0 (Hashtbl.find_opt transit e) in
  Network.flows net
  |> List.concat_map Flow.hop_pairs
  |> List.iter (fun e -> Hashtbl.replace transit e (count e + 1));
  let mate = Hashtbl.create 32 in (* paired server -> the other one *)
  let below = Hashtbl.create 32 in (* server -> last scan that marked it *)
  let members s = s :: Option.to_list (Hashtbl.find_opt mate s) in
  let below_of s = List.concat_map (Network.successors net) (members s) in
  let rec mark u = function
    | [] -> ()
    | s :: rest when Hashtbl.find_opt below s = Some u -> mark u rest
    | s :: rest ->
        List.iter (fun m -> Hashtbl.replace below m u) (members s);
        mark u (below_of s @ rest)
  in
  let chosen = ref [] in
  List.iter
    (fun u ->
      if not (Hashtbl.mem mate u) then begin
        let candidates =
          Network.successors net u
          |> List.filter (fun b -> not (Hashtbl.mem mate b))
          |> List.stable_sort (fun b b' -> compare (count (u, b')) (count (u, b)))
        in
        if candidates <> [] then
          List.iter (fun s -> mark u (below_of s)) (Network.successors net u);
        match
          List.find_opt (fun b -> Hashtbl.find_opt below b <> Some u) candidates
        with
        | Some b ->
            chosen := Pair (u, b) :: !chosen;
            Hashtbl.replace mate u b;
            Hashtbl.replace mate b u
        | None -> ()
      end)
    (Network.topological_order net);
  let singles =
    Network.servers net
    |> List.filter_map (fun (s : Server.t) ->
           if Hashtbl.mem mate s.id then None else Some (Single s.id))
  in
  order_subnets net (!chosen @ singles)

let build net strategy =
  let subnets =
    match strategy with
    | Singletons -> singletons net
    | Along_route flow_id -> along_route net flow_id
    | Greedy -> greedy net
  in
  let ordered = order_subnets net subnets in
  validate net ordered;
  ordered
