(* Streaming frontier propagation — the memory-bounded scale-out path.

   The table-based engines (Decomposed & friends) materialize the full
   (flow, server) -> envelope table: total_hop_count curves stay
   resident until the analysis object dies.  That is fine for tandems
   of a few hundred servers and fatal at 10^5-10^6: the envelopes are
   the memory.

   This engine exploits the one-shot consumption structure of the
   forward pass instead.  The envelope of flow f at the input of
   server s has exactly one consumer: the local analysis of s itself
   (aggregate + per-flow delay).  So the pass can run level by level
   over the antichain decomposition of the routing DAG
   (Network.levels), install each flow's source curve only when its
   first hop's level begins, and evict (f, s) the moment s has been
   analyzed.  What stays resident — the live frontier — is only the
   envelopes crossing the current antichain boundary, bounded by the
   flow population of two adjacent levels, never by the topology size.

   Within a level no server depends on another (every edge crosses
   levels strictly upward), so the per-server work is sharded across
   the netcalc.par domain pool: workers only read the shared tables
   (envelope reads of already-written entries, poison marks written by
   strictly earlier levels), and all writes — local delays, poison
   marks, next-hop installs, evictions — happen in a sequential merge
   in ascending server order.  Per-server arithmetic is identical to
   Decomposed's (same Local_bounds.at_server, same shift + compaction),
   and the merge order is deterministic, so the results are
   bit-identical to the table-based path at any jobs count (pinned by
   tests).

   Frontier accounting is published as netcalc.obs metrics:
   [propagation.frontier.live] (resident-entry count observed at each
   level boundary), [propagation.frontier.peak] (high watermark) and
   [propagation.frontier.evicted] (entries dropped). *)

type frontier_stats = {
  peak_live : int;
  evicted : int;
  total_pairs : int;
  widest_antichain : int;
  levels : int;
}

type t = {
  net : Network.t;
  options : Options.t;
  (* flow -> its local bounds, indexed by hop position on its route *)
  locals : (int, Float.Array.t) Hashtbl.t;
  stats : frontier_stats;
}

let network t = t.net
let frontier_stats t = t.stats

let c_evicted = Metrics.counter "propagation.frontier.evicted"
let d_live = Metrics.dist "propagation.frontier.live"
let p_peak = Metrics.peak "propagation.frontier.peak"

(* Position of a server on a flow's route. *)
let hop_index (f : Flow.t) sid =
  let rec go i = function
    | s :: rest -> if s = sid then Some i else go (i + 1) rest
    | [] -> None
  in
  go 0 f.route

(* Outcome of one server's (read-only) local analysis, applied by the
   sequential merge. *)
type server_result = {
  sid : int;
  present : Flow.t list;
  (* None: a flow present here was poisoned upstream — every present
     flow gets an infinite local bound and poisons its remaining hops
     (exactly Decomposed's rule).  Some: per-flow local delay plus the
     shifted envelope to install at the next hop (None when the delay
     is infinite or the hop is the flow's last). *)
  bounds : (Flow.t * float * Pwl.t option) list option;
}

let analyze ?(options = Options.default) ?jobs net =
  let levels = Network.levels net in
  let locals = Hashtbl.create (max 16 (List.length (Network.flows net))) in
  List.iter
    (fun (f : Flow.t) ->
      Hashtbl.replace locals f.id (Float.Array.make (List.length f.route) nan))
    (Network.flows net);
  let poisoned = Hashtbl.create 64 in
  let envs = Propagation.empty ~size_hint:1024 () in
  (* Group the source installs by the level of each flow's first hop,
     so a curve only becomes resident when its consumer's antichain is
     next in line. *)
  let level_of = Hashtbl.create (max 16 (Network.size net)) in
  List.iteri
    (fun i sids -> List.iter (fun sid -> Hashtbl.replace level_of sid i) sids)
    levels;
  let n_levels = List.length levels in
  let installs = Array.make (max 1 n_levels) [] in
  List.iter
    (fun (f : Flow.t) ->
      let l = Hashtbl.find level_of (Flow.first_hop f) in
      installs.(l) <- f :: installs.(l))
    (Network.flows net);
  Array.iteri (fun i fs -> installs.(i) <- List.rev fs) installs;
  let peak_live = ref 0 in
  let evicted = ref 0 in
  let observe_live () =
    let live = Propagation.length envs in
    if live > !peak_live then peak_live := live;
    if Prof.enabled () then begin
      Metrics.observe d_live (float_of_int live);
      Metrics.observe_peak p_peak live
    end
  in
  let set_local (f : Flow.t) sid d =
    match (Hashtbl.find_opt locals f.id, hop_index f sid) with
    | Some a, Some i -> Float.Array.set a i d
    | _ -> ()
  in
  let poison_rest (f : Flow.t) ~from =
    let rec mark = function
      | s :: rest ->
          if s = from then
            List.iter (fun s' -> Hashtbl.replace poisoned (f.id, s') ()) rest
          else mark rest
      | [] -> ()
    in
    mark f.route
  in
  (* Read-only per-server analysis, safe to run concurrently: [envs]
     and [poisoned] were last written while merging a strictly earlier
     level. *)
  let analyze_server sid =
    let present = Network.flows_at net sid in
    if present = [] then { sid; present; bounds = None }
    else if
      List.exists (fun (f : Flow.t) -> Hashtbl.mem poisoned (f.id, sid)) present
    then { sid; present; bounds = None }
    else begin
      let with_envs =
        List.map
          (fun (f : Flow.t) -> (f, Propagation.get envs ~flow:f.id ~server:sid))
          present
      in
      let delays =
        Local_bounds.at_server ~options net envs ~server:sid
      in
      let bounds =
        List.map2
          (fun ((f : Flow.t), env) ((f' : Flow.t), d) ->
            assert (f.id = f'.id);
            let next =
              if d = infinity then None
              else
                match Flow.next_hop f sid with
                | Some _ ->
                    Some
                      (Options.compact_envelope options (Pwl.shift_left env d))
                | None -> None
            in
            (f, d, next))
          with_envs delays
      in
      { sid; present; bounds = Some bounds }
    end
  in
  List.iteri
    (fun li sids ->
      (* Phase 1: this level's source curves become resident. *)
      List.iter
        (fun (f : Flow.t) ->
          Propagation.install_source envs f)
        installs.(li);
      observe_live ();
      (* Phase 2: shard the antichain across the pool.  Par.map returns
         results in list order whatever the schedule, and [sids] is
         sorted, so the merge below is deterministic. *)
      let results = Par.map ?jobs analyze_server sids in
      (* Phase 3: sequential merge in ascending server order — the only
         writer of locals / poisons / next-hop installs. *)
      List.iter
        (fun r ->
          match r.bounds with
          | None ->
              List.iter
                (fun (f : Flow.t) ->
                  if r.present <> [] then begin
                    set_local f r.sid infinity;
                    poison_rest f ~from:r.sid
                  end)
                r.present
          | Some bounds ->
              List.iter
                (fun ((f : Flow.t), d, next) ->
                  set_local f r.sid d;
                  if d = infinity then poison_rest f ~from:r.sid
                  else
                    match (Flow.next_hop f r.sid, next) with
                    | Some s', Some env ->
                        Propagation.set envs ~flow:f.id ~server:s' env
                    | _ -> ())
                bounds)
        results;
      observe_live ();
      (* Phase 4: every (f, sid) of this level has been consumed. *)
      List.iter
        (fun r ->
          List.iter
            (fun (f : Flow.t) ->
              match Propagation.find_opt envs ~flow:f.id ~server:r.sid with
              | Some _ ->
                  Propagation.remove envs ~flow:f.id ~server:r.sid;
                  incr evicted
              | None -> ())
            r.present)
        results)
    levels;
  if Prof.enabled () then Metrics.add c_evicted !evicted;
  let stats =
    {
      peak_live = !peak_live;
      evicted = !evicted;
      total_pairs = Network.total_hop_count net;
      widest_antichain =
        List.fold_left (fun acc l -> max acc (List.length l)) 0 levels;
      levels = n_levels;
    }
  in
  { net; options; locals; stats }

let local_delay t ~flow ~server =
  let hop =
    Option.bind (Network.flow_opt t.net flow) (fun f -> hop_index f server)
  in
  match (hop, Hashtbl.find_opt t.locals flow) with
  | Some i, Some a -> Float.Array.get a i
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Propagation_stream.local_delay: flow %d does not cross server %d"
           flow server)

let flow_delay t id =
  let f = Network.flow t.net id in
  match Hashtbl.find_opt t.locals f.id with
  | Some a -> Float.Array.fold_left ( +. ) 0. a
  | None -> 0.

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare
