(* Incremental (delta) re-analysis for the serve subsystem.

   The state mirrors Decomposed.analyze_raw exactly — envelope table,
   per-(flow, server) local bounds, poison marks past unstable servers —
   with one addition: each poison mark remembers the server that
   originated it, so a cone recompute can drop exactly the marks whose
   origin is being re-analyzed and keep those inherited from untouched
   upstream state.

   The cone of a change is the forward closure of the changed flow's
   route in the routing DAG.  Three facts make cone recomputation
   exact (not approximate):
   - an envelope at (flow, server) is written by the flow's previous
     hop, so every table entry a change can affect lives at a server
     inside the forward closure;
   - the closure is computed on the post-change edge set, whose new (or
     removed) edges connect route servers that are all seeds, so the
     same closure also covers the pre-change dependencies;
   - per-server recomputation is the same deterministic code path as
     the batch analysis, fed inputs that are either recomputed in
     topological order or physically unchanged.

   Rollback of a rejected admit replays an undo log: while the admit
   is undecided, every write to the tables records the binding it
   replaces, and the network itself is persistent, so restoring the
   old bindings and the old [Network.t] reproduces the previous state
   bit-for-bit without recomputing anything. *)

let c_cone = Metrics.counter "serve.delta.cone_nodes"
let c_reused = Metrics.counter "serve.delta.reused_nodes"
let c_accepted = Metrics.counter "serve.admit.accepted"
let c_rejected = Metrics.counter "serve.admit.rejected"
let c_teardown = Metrics.counter "serve.teardown"

type t = {
  options : Options.t;
  mutable net : Network.t;
  envs : Propagation.env_table;
  locals : (int * int, float) Hashtbl.t;    (* (flow, server) -> local bound *)
  poisoned : (int * int, int) Hashtbl.t;    (* (flow, server) -> origin server *)
  violated : (int, Admission.reject_reason) Hashtbl.t;
      (* flows failing a feasibility check, with the reason *)
  mutable logging : bool;  (* an admit is undecided: log every write *)
  mutable undo : (unit -> unit) list;  (* newest first *)
  mutable admits : int;
  mutable rejects : int;
  mutable teardowns : int;
  mutable cone_total : int;
  mutable reused_total : int;
}

let network t = t.net

(* Every write to the tables goes through [bind] or [bind_env]: [Some]
   sets a binding, [None] removes it, and while [logging] the binding
   it replaces is logged first. *)
let restore tbl key = function
  | Some v -> Hashtbl.replace tbl key v
  | None -> Hashtbl.remove tbl key

let bind t tbl key v =
  if t.logging then begin
    let prev = Hashtbl.find_opt tbl key in
    t.undo <- (fun () -> restore tbl key prev) :: t.undo
  end;
  restore tbl key v

let bind_env t ~flow ~server env =
  if t.logging then begin
    let prev = Propagation.find_opt t.envs ~flow ~server in
    t.undo <-
      (fun () ->
        match prev with
        | Some e -> Propagation.set t.envs ~flow ~server e
        | None -> Propagation.remove t.envs ~flow ~server)
      :: t.undo
  end;
  Propagation.set t.envs ~flow ~server env

let flow_delay t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> acc +. Hashtbl.find t.locals (id, s))
    0. f.Flow.route

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let query t id =
  match Network.flow_opt t.net id with
  | None -> None
  | Some f -> Some (f, flow_delay t id)

(* Backlog accessors: the same shared [Backlog] code path as
   [Decomposed], over this engine's incrementally maintained envelope
   table, so delta backlogs are bit-identical to a from-scratch
   re-analysis (tested alongside the delay invariant). *)
let poisoned_server t sid =
  List.exists
    (fun (f : Flow.t) -> Hashtbl.mem t.poisoned (f.id, sid))
    (Network.flows_at t.net sid)

let server_backlog t sid =
  let present = Network.flows_at t.net sid in
  if present = [] then 0.
  else if poisoned_server t sid then infinity
  else
    Backlog.server ~options:t.options t.net t.envs ~server:sid ~flows:present

let local_backlog t ~flow ~server =
  let present = Network.flows_at t.net server in
  let target =
    match List.find_opt (fun (f : Flow.t) -> f.id = flow) present with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf
             "Delta_engine.local_backlog: flow %d does not cross server %d"
             flow server)
  in
  if poisoned_server t server then infinity
  else
    match
      Backlog.per_flow ~options:t.options t.net t.envs ~server ~flows:present
        ~targets:[ target ]
        ~local_delay:(fun ~flow -> Hashtbl.find t.locals (flow, server))
    with
    | [ (_, b) ] -> b
    | _ -> assert false

let server_flow_backlogs t sid =
  let present = Network.flows_at t.net sid in
  if present = [] then []
  else if poisoned_server t sid then
    List.map (fun (f : Flow.t) -> (f.id, infinity)) present |> List.sort compare
  else
    Backlog.per_flow ~options:t.options t.net t.envs ~server:sid ~flows:present
      ~targets:present
      ~local_delay:(fun ~flow -> Hashtbl.find t.locals (flow, sid))
    |> List.map (fun ((f : Flow.t), b) -> (f.id, b))
    |> List.sort compare

let flow_backlog t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> Float.max acc (local_backlog t ~flow:id ~server:s))
    0. f.Flow.route

(* Mirrors [Admission.flow_violation]: the deadline check first, then —
   only for flows carrying a buffer budget — per-hop backlogs in route
   order.  Flows without budgets cost nothing beyond the old deadline
   check. *)
let refresh_violation t (f : Flow.t) =
  let deadline_v =
    match f.deadline with
    | None -> None
    | Some dl ->
        let b = flow_delay t f.id in
        if Admission.deadline_ok ~bound:b ~deadline:dl then None
        else
          Some
            (Admission.Deadline_violated
               { flow = f.id; bound = b; deadline = dl })
  in
  let v =
    match deadline_v with
    | Some _ -> deadline_v
    | None -> (
        match f.buffer with
        | None -> None
        | Some budget ->
            List.find_map
              (fun s ->
                let b = local_backlog t ~flow:f.id ~server:s in
                if Admission.buffer_ok ~backlog:b ~buffer:budget then None
                else
                  Some
                    (Admission.Buffer_violated
                       { flow = f.id; server = s; backlog = b; buffer = budget }))
              f.route)
  in
  bind t t.violated f.id v

(* The cone of [seeds] — their forward closure in the routing DAG —
   and a topological order of it: the reversed post-order of a
   depth-first search over [Network.successors], which marks the
   servers on the current path ([false]) to detect cycles.  Inputs from
   outside the cone are already final, so any topological order of the
   cone reproduces the batch sweep's bits.  Raises Network.Cyclic when
   the cone has a cycle; any cycle a new flow can create passes through
   its route servers, which are all seeds, so searching the cone
   suffices.  The cost scales with the cone, not the network. *)
let cone_of net ~seeds =
  let cone = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit sid =
    match Hashtbl.find_opt cone sid with
    | Some true -> ()
    | Some false -> raise Network.Cyclic
    | None ->
        Hashtbl.add cone sid false;
        List.iter visit (Network.successors net sid);
        Hashtbl.replace cone sid true;
        order := sid :: !order
  in
  List.iter visit seeds;
  (cone, !order)

(* Re-run the topological sweep over the cone of [seeds], and return
   the cone.  Raises Network.Cyclic before any mutation when the cone
   has a cycle. *)
let recompute t ~seeds =
  let cone, order = cone_of t.net ~seeds in
  (* Poison marks originating inside the cone are about to be
     re-derived; marks inherited from untouched upstream servers stay. *)
  Hashtbl.fold
    (fun key origin acc -> if Hashtbl.mem cone origin then key :: acc else acc)
    t.poisoned []
  |> List.sort compare
  |> List.iter (fun key -> bind t t.poisoned key None);
  let poison_rest (f : Flow.t) ~from =
    let rec mark = function
      | s :: rest ->
          if s = from then
            List.iter (fun s' -> bind t t.poisoned (f.id, s') (Some from)) rest
          else mark rest
      | [] -> ()
    in
    mark f.route
  in
  List.iter
    (fun sid ->
      let present = Network.flows_at t.net sid in
      if present <> [] then begin
        let unbounded =
          List.exists
            (fun (f : Flow.t) -> Hashtbl.mem t.poisoned (f.id, sid))
            present
        in
        if unbounded then
          List.iter
            (fun (f : Flow.t) ->
              bind t t.locals (f.id, sid) (Some infinity);
              poison_rest f ~from:sid)
            present
        else begin
          let with_envs =
            List.map
              (fun (f : Flow.t) ->
                (f, Propagation.get t.envs ~flow:f.id ~server:sid))
              present
          in
          let delays =
            Local_bounds.at_server ~options:t.options t.net t.envs ~server:sid
          in
          List.iter2
            (fun ((f : Flow.t), env) ((f' : Flow.t), d) ->
              assert (f.id = f'.id);
              bind t t.locals (f.id, sid) (Some d);
              if Float_ops.eq_exact d infinity then poison_rest f ~from:sid
              else
                Flow.next_hop f sid
                |> Option.iter (fun server ->
                       bind_env t ~flow:f.id ~server
                         (Options.compact_envelope t.options
                            (Pwl.shift_left env d))))
            with_envs delays
        end
      end)
    order;
  (* Bounds can only have changed for flows that touch the cone. *)
  List.concat_map (Network.flows_at t.net) order
  |> List.sort_uniq (fun (f : Flow.t) (g : Flow.t) -> Int.compare f.id g.id)
  |> List.iter (refresh_violation t);
  cone

let create ?(options = Options.default) ~servers ~flows () =
  let net = Network.make ~servers ~flows in
  let t =
    {
      options;
      net;
      envs = Propagation.create net;
      locals = Hashtbl.create 64;
      poisoned = Hashtbl.create 8;
      violated = Hashtbl.create 8;
      logging = false;
      undo = [];
      admits = 0;
      rejects = 0;
      teardowns = 0;
      cone_total = 0;
      reused_total = 0;
    }
  in
  ignore (recompute t ~seeds:(List.map (fun (s : Server.t) -> s.id) servers));
  t

type op_stats = { cone_nodes : int; reused_nodes : int }

type admit_result =
  | Admitted of { bound : float; stats : op_stats }
  | Rejected of { reason : Admission.reject_reason; stats : op_stats }

(* An operation that touched no server state (no-deadline or cyclic
   rejection) still shows up in the cumulative accounting: it reused
   everything. *)
let note_skip t =
  let reused_nodes = Network.size t.net in
  Metrics.add c_reused reused_nodes;
  t.reused_total <- t.reused_total + reused_nodes;
  { cone_nodes = 0; reused_nodes }

let note_delta t cone =
  let cone_nodes = Hashtbl.length cone in
  let reused_nodes = Network.size t.net - cone_nodes in
  Metrics.add c_cone cone_nodes;
  Metrics.add c_reused reused_nodes;
  t.cone_total <- t.cone_total + cone_nodes;
  t.reused_total <- t.reused_total + reused_nodes;
  { cone_nodes; reused_nodes }

(* Drop every per-hop trace of a flow being torn down. *)
let forget_flow t (f : Flow.t) =
  List.iter
    (fun s ->
      Propagation.remove t.envs ~flow:f.id ~server:s;
      Hashtbl.remove t.locals (f.id, s);
      Hashtbl.remove t.poisoned (f.id, s))
    f.route;
  Hashtbl.remove t.violated f.id

(* Lowest-id violated flow, matching Admission.first_violation.  The
   stored reason is current: [refresh_violation] re-derives it whenever
   the flow's route touches a recomputed cone, and outside-cone state
   cannot move. *)
let current_violation t =
  Hashtbl.fold (fun id reason acc -> (id, reason) :: acc) t.violated []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> function
  | [] -> None
  | (_, reason) :: _ -> Some reason

(* Replay the undo log newest first and put the pre-admit network
   back: every table binding returns to its value before the admit. *)
let rollback t net =
  List.iter (fun undo -> undo ()) t.undo;
  t.undo <- [];
  t.logging <- false;
  t.net <- net

let reject t reason stats =
  t.rejects <- t.rejects + 1;
  Metrics.incr c_rejected;
  Rejected { reason; stats }

let admit t (cand : Flow.t) =
  match cand.deadline with
  | None -> reject t Admission.No_deadline (note_skip t)
  | Some _ -> (
      let old_net = t.net in
      (* Raises Invalid_argument on a duplicate id or unknown server
         before any state is touched. *)
      t.net <- Network.add_flow old_net cand;
      t.logging <- true;
      let decision =
        match
          bind_env t ~flow:cand.id ~server:(Flow.first_hop cand)
            (Flow.source_curve cand);
          note_delta t (recompute t ~seeds:cand.route)
        with
        | stats -> (
            match current_violation t with
            | None -> Ok stats
            | Some reason -> Error (reason, stats))
        | exception Network.Cyclic -> Error (Admission.Cyclic_route, note_skip t)
        | exception e ->
            rollback t old_net;
            raise e
      in
      match decision with
      | Ok stats ->
          t.undo <- [];
          t.logging <- false;
          t.admits <- t.admits + 1;
          Metrics.incr c_accepted;
          Admitted { bound = flow_delay t cand.id; stats }
      | Error (reason, stats) ->
          rollback t old_net;
          reject t reason stats)

let teardown t id =
  match Network.flow_opt t.net id with
  | None -> Error `Unknown_flow
  | Some f ->
      forget_flow t f;
      t.net <- Network.remove_flow t.net id;
      let stats = note_delta t (recompute t ~seeds:f.route) in
      t.teardowns <- t.teardowns + 1;
      Metrics.incr c_teardown;
      Ok stats

type stats = {
  servers : int;
  flows : int;
  admitted_rate : float;
  admits : int;
  rejects : int;
  teardowns : int;
  cone_nodes : int;
  reused_nodes : int;
}

let stats t =
  {
    servers = Network.size t.net;
    flows = List.length (Network.flows t.net);
    admitted_rate = Propagation.total_rate (Network.flows t.net);
    admits = t.admits;
    rejects = t.rejects;
    teardowns = t.teardowns;
    cone_nodes = t.cone_total;
    reused_nodes = t.reused_total;
  }
