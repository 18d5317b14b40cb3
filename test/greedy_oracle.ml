(* Reference oracle for the differential pairing test: the original
   greedy pairing, kept verbatim.  It rebuilds the contracted graph and
   recounts transit flows for every candidate, so it is roughly cubic in
   the network size — test-only, never linked into the library. *)

open Pairing

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
   Network.Cyclic when contraction created a cycle. *)
let order_subnets net subnets =
  let assignment = subnet_assignment net subnets in
  let arr = Array.of_list subnets in
  let n = Array.length arr in
  let contracted_edges =
    Network.edges net
    |> List.filter_map (fun (a, b) ->
           let ia = Hashtbl.find assignment a
           and ib = Hashtbl.find assignment b in
           if ia = ib then None else Some (ia, ib))
    |> List.sort_uniq compare
  in
  let indegree = Array.make n 0 in
  List.iter (fun (_, b) -> indegree.(b) <- indegree.(b) + 1) contracted_edges;
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then ready := i :: !ready
  done;
  let rec kahn order = function
    | [] -> List.rev order
    | i :: rest ->
        let next =
          List.fold_left
            (fun acc (a, b) ->
              if a = i then begin
                indegree.(b) <- indegree.(b) - 1;
                if indegree.(b) = 0 then b :: acc else acc
              end
              else acc)
            [] contracted_edges
        in
        kahn (i :: order) (List.sort compare next @ rest)
  in
  let order = kahn [] !ready in
  if List.length order <> n then raise Network.Cyclic;
  List.map (fun i -> arr.(i)) order


(* Shared transit count: flows riding the edge u -> v. *)
let transit_count net (u, v) =
  Network.flows net
  |> List.filter (fun f -> List.mem (u, v) (Flow.hop_pairs f))
  |> List.length

let singletons_of_unpaired net paired chosen =
  let in_chosen =
    List.concat_map servers_of chosen |> List.sort_uniq compare
  in
  Network.servers net
  |> List.filter_map (fun (s : Server.t) ->
         if Hashtbl.mem paired s.id || List.mem s.id in_chosen then None
         else Some (Single s.id))

let greedy net =
  let order = Network.topological_order net in
  let paired = Hashtbl.create 32 in
  let chosen = ref [] in
  let acyclic_with extra =
    match order_subnets net (extra @ singletons_of_unpaired net paired extra) with
    | _ -> true
    | exception Network.Cyclic -> false
  in
  List.iter
    (fun u ->
      if not (Hashtbl.mem paired u) then begin
        let candidates =
          Network.edges net
          |> List.filter (fun (a, b) ->
                 a = u && (not (Hashtbl.mem paired b)) && b <> u)
          |> List.sort (fun e1 e2 ->
                 compare (transit_count net e2) (transit_count net e1))
        in
        let rec try_candidates = function
          | (a, b) :: rest ->
              let tentative = Pair (a, b) :: !chosen in
              if acyclic_with tentative then begin
                chosen := tentative;
                Hashtbl.replace paired a ();
                Hashtbl.replace paired b ()
              end
              else try_candidates rest
          | [] -> ()
        in
        try_candidates candidates
      end)
    order;
  let subnets = !chosen @ singletons_of_unpaired net paired !chosen in
  order_subnets net subnets

