type t = {
  net : Network.t;
  pairing : Pairing.subnet array;
  subnet_of : (int, int) Hashtbl.t; (* server -> subnet idx *)
  envs : Propagation.env_table;
  (* flow -> (subnet idx, delay) for the subnets it crosses, ascending *)
  contributions : (int, (int * float) list) Hashtbl.t;
  poisoned : (int * int, unit) Hashtbl.t;       (* (flow, server) *)
  server_backlogs : (int, float) Hashtbl.t;
  flow_backlogs : (int * int, float) Hashtbl.t; (* (flow, server) *)
}

let network t = t.net
let pairing t = Array.to_list t.pairing

let require_fifo net =
  List.iter
    (fun (s : Server.t) ->
      if s.discipline <> Discipline.Fifo then
        invalid_arg
          (Printf.sprintf
             "Integrated: server %s is %s; the integrated method is derived \
              for FIFO servers only"
             s.name
             (Discipline.to_string s.discipline)))
    (Network.servers net)

(* Sum of the given flows' envelopes at [server], honoring the link-cap
   option (each same-upstream group capped by the upstream rate). *)
let class_envelope options net envs ~server flows =
  if flows = [] then Pwl.zero
  else Propagation.aggregate_input ~options net envs ~server ~flows

let poison_rest poisoned (f : Flow.t) ~from =
  let rec mark = function
    | s :: rest ->
        if s = from then
          List.iter (fun s' -> Hashtbl.replace poisoned (f.id, s') ()) rest
        else mark rest
    | [] -> ()
  in
  mark f.route

let c_pairs = Metrics.counter "integrated.subnets.pairs"
let c_singles = Metrics.counter "integrated.subnets.singles"

let analyze_with_pairing ?(options = Options.default) net pairing_list =
  Prof.span "integrated.analyze" @@ fun () ->
  require_fifo net;
  Pairing.validate net pairing_list;
  let pairing = Array.of_list pairing_list in
  let envs = Propagation.create net in
  let contributions = Hashtbl.create 64 in
  let poisoned = Hashtbl.create 4 in
  let server_backlogs = Hashtbl.create 16 in
  let flow_backlogs = Hashtbl.create 64 in
  (* Backlog bookkeeping: per-server aggregate bound plus the minimal
     per-flow split, computed from the same integrated input windows
     the delay analysis uses.  [alphas] pairs each present flow with
     its envelope at the server's input (for transit flows at the
     second server of a pair, the delay-inflated upstream envelope,
     which the env table never holds). *)
  let record_backlogs sid ~agg ~alphas =
    let rate = (Network.server net sid).Server.rate in
    Hashtbl.replace server_backlogs sid (Fifo.backlog ~rate ~agg);
    let beta = Pwl.affine ~y0:0. ~slope:rate in
    List.iter
      (fun ((f : Flow.t), alpha_i) ->
        Hashtbl.replace flow_backlogs (f.id, sid)
          (match alpha_i with
          | Some alpha_i -> Deviation.vdev_per_flow ~alpha_i ~agg ~beta
          | None -> infinity))
      alphas
  in
  let record_backlogs_bad sid flows =
    Hashtbl.replace server_backlogs sid infinity;
    List.iter
      (fun (f : Flow.t) -> Hashtbl.replace flow_backlogs (f.id, sid) infinity)
      flows
  in
  let record idx (f : Flow.t) ~entry ~last d =
    Hashtbl.replace contributions f.id
      ((idx, d)
      :: Option.value ~default:[] (Hashtbl.find_opt contributions f.id));
    if d = infinity then poison_rest poisoned f ~from:last
    else
      let env = Propagation.get envs ~flow:f.id ~server:entry in
      Propagation.set_next envs f ~after:last
        (Options.compact_envelope options (Pwl.shift_left env d))
  in
  Array.iteri
    (fun idx subnet ->
      match subnet with
      | Pairing.Single u ->
          Prof.count c_singles;
          let present = Network.flows_at net u in
          if present <> [] then begin
            let bad =
              List.exists
                (fun (f : Flow.t) -> Hashtbl.mem poisoned (f.id, u))
                present
            in
            let d =
              if bad then begin
                record_backlogs_bad u present;
                infinity
              end
              else begin
                let agg =
                  Propagation.aggregate_input ~options net envs ~server:u
                    ~flows:present
                in
                record_backlogs u ~agg
                  ~alphas:
                    (List.map
                       (fun (f : Flow.t) ->
                         (f, Some (Propagation.get envs ~flow:f.id ~server:u)))
                       present);
                Fifo.local_delay ~rate:(Network.server net u).Server.rate ~agg
              end
            in
            List.iter (fun f -> record idx f ~entry:u ~last:u d) present
          end
      | Pairing.Pair (u, v) ->
          Prof.count c_pairs;
          let at_u = Network.flows_at net u and at_v = Network.flows_at net v in
          let s12, s1 =
            List.partition
              (fun (f : Flow.t) -> Flow.next_hop f u = Some v)
              at_u
          in
          let s2 =
            List.filter
              (fun (f : Flow.t) ->
                not (List.exists (fun (g : Flow.t) -> g.id = f.id) s12))
              at_v
          in
          let bad =
            List.exists (fun (f : Flow.t) -> Hashtbl.mem poisoned (f.id, u))
              (s12 @ s1)
            || List.exists (fun (f : Flow.t) -> Hashtbl.mem poisoned (f.id, v))
                 s2
          in
          let result =
            if bad then begin
              record_backlogs_bad u at_u;
              record_backlogs_bad v at_v;
              {
                Pair_analysis.d_pair = infinity;
                d1 = infinity;
                d2 = infinity;
                busy1 = infinity;
                busy2 = infinity;
                b1 = infinity;
                b2 = infinity;
              }
            end
            else begin
              let g12 = class_envelope options net envs ~server:u s12 in
              let g1 = class_envelope options net envs ~server:u s1 in
              let g2 = class_envelope options net envs ~server:v s2 in
              let c1 = (Network.server net u).Server.rate in
              let result =
                Pair_analysis.analyze
                  {
                    c1;
                    c2 = (Network.server net v).Server.rate;
                    s12 = [ g12 ];
                    s1 = [ g1 ];
                    s2 = [ g2 ];
                  }
              in
              let env_at s (f : Flow.t) =
                Propagation.get envs ~flow:f.id ~server:s
              in
              record_backlogs u
                ~agg:(Pwl.add g12 g1)
                ~alphas:
                  (List.map (fun f -> (f, Some (env_at u f))) (s12 @ s1));
              (* At server v the transit aggregate is the integrated
                 window (link-capped, delay-inflated as a whole); each
                 transit flow's own envelope there is its upstream one
                 shifted by the server-1 class bound d1. *)
              let d1 = result.Pair_analysis.d1 in
              let link = Pwl.affine ~y0:0. ~slope:c1 in
              let transit =
                if d1 = infinity then link
                else Pwl.min_pw link (Pwl.shift_left g12 d1)
              in
              record_backlogs v ~agg:(Pwl.add transit g2)
                ~alphas:
                  (List.map
                     (fun (f : Flow.t) ->
                       if Float_ops.is_finite d1 then
                         (f, Some (Pwl.shift_left (env_at u f) d1))
                       else (f, None))
                     s12
                  @ List.map (fun f -> (f, Some (env_at v f))) s2);
              result
            end
          in
          List.iter
            (fun f -> record idx f ~entry:u ~last:v result.Pair_analysis.d_pair)
            s12;
          List.iter
            (fun f -> record idx f ~entry:u ~last:u result.Pair_analysis.d1)
            s1;
          List.iter
            (fun f -> record idx f ~entry:v ~last:v result.Pair_analysis.d2)
            s2)
    pairing;
  Hashtbl.filter_map_inplace (fun _ cs -> Some (List.rev cs)) contributions;
  let subnet_of = Hashtbl.create (Array.length pairing) in
  Array.iteri
    (fun i subnet ->
      List.iter
        (fun s -> Hashtbl.replace subnet_of s i)
        (Pairing.servers_of subnet))
    pairing;
  {
    net;
    pairing;
    subnet_of;
    envs;
    contributions;
    poisoned;
    server_backlogs;
    flow_backlogs;
  }

let memo : t Incremental.table = Incremental.table ()

let analyze ?(options = Options.default) ?(strategy = Pairing.Greedy) net =
  Incremental.memoize memo
    (Incremental.net_key ~options ~strategy net)
    (fun () -> analyze_with_pairing ~options net (Pairing.build net strategy))

let flow_delay t id =
  match Hashtbl.find_opt t.contributions id with
  | Some cs -> List.fold_left (fun acc (_, d) -> acc +. d) 0. cs
  | None -> 0.

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let subnet_delay_opt t ~flow ~subnet =
  let (Pairing.Single s | Pairing.Pair (s, _)) = subnet in
  match Hashtbl.find_opt t.subnet_of s with
  | Some i when t.pairing.(i) = subnet ->
      Option.bind (Hashtbl.find_opt t.contributions flow) (List.assoc_opt i)
  | _ -> None

let subnet_delay t ~flow ~subnet =
  match subnet_delay_opt t ~flow ~subnet with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf
           "Integrated.subnet_delay: flow %d does not cross the requested \
            subnet"
           flow)

let envelope_at t ~flow ~server =
  if Hashtbl.mem t.poisoned (flow, server) then
    invalid_arg "Integrated.envelope_at: unbounded envelope"
  else Propagation.get t.envs ~flow ~server

let server_backlog t sid =
  match Hashtbl.find_opt t.server_backlogs sid with Some b -> b | None -> 0.

let local_backlog t ~flow ~server =
  match Hashtbl.find_opt t.flow_backlogs (flow, server) with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf
           "Integrated.local_backlog: flow %d does not cross server %d" flow
           server)

let server_flow_backlogs t sid =
  Network.flows_at t.net sid
  |> List.map (fun (f : Flow.t) -> (f.id, local_backlog t ~flow:f.id ~server:sid))
  |> List.sort compare

let flow_backlog t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> Float.max acc (local_backlog t ~flow:id ~server:s))
    0. f.route
