(* corpus: seeded Corpus.generate draws.  The streaming Decomposed pass
   runs on wide, shallow leaf-spine networks and on deep heavytail
   networks; Algorithm Integrated with greedy pairing runs on edge-cloud
   networks.  Every round starts from cold caches. *)

open Bench_util

(* (family, servers per network, networks per round).  Several draws
   per family keep one draw's shape from setting a run's figure. *)
let specs ctx =
  if ctx.tiny then
    [ (Corpus.Leaf_spine, 400, 1); (Corpus.Heavytail, 200, 1); (Corpus.Edge_cloud, 64, 1) ]
  else
    [ (Corpus.Leaf_spine, 8_000, 4); (Corpus.Heavytail, 1_000, 8); (Corpus.Edge_cloud, 256, 8) ]

(* Draw [i] of a family at seed [s] uses generator seed [s * 16 + i]. *)
let draw_seed ctx i = (ctx.seed * 16) + i

type nets = { ls : Network.t list; ht : Network.t list; ec : Network.t list }

let generate ctx =
  let gen (family, n, k) =
    List.init k (fun i ->
        Span.run "topology" "Corpus.generate" (fun () ->
            Corpus.generate ~family ~target_servers:n ~seed:(draw_seed ctx i)))
  in
  match List.map gen (specs ctx) with
  | [ ls; ht; ec ] -> { ls; ht; ec }
  | _ -> assert false

let all_nets n = n.ls @ n.ht @ n.ec

(* What `netcalc scale` pays before its analysis: the networks and
   their antichain levels. *)
let setup ctx =
  List.iter (fun net -> ignore (Network.levels net)) (all_nets (generate ctx))

let stream net =
  let s = Span.run "core" "Propagation_stream.analyze" (fun () ->
      Propagation_stream.analyze net)
  in
  let d = Span.run "core" "Propagation_stream.all_flow_delays" (fun () ->
      Propagation_stream.all_flow_delays s)
  in
  (s, d)

let integrated net =
  let p = Span.run "core" "Pairing.build" (fun () -> Pairing.build net Pairing.Greedy) in
  let t = Span.run "core" "Integrated.analyze_with_pairing" (fun () ->
      Integrated.analyze_with_pairing net p)
  in
  let d = Span.run "core" "Integrated.all_flow_delays" (fun () ->
      Integrated.all_flow_delays t)
  in
  (t, d)

type round = {
  stream_s : float;
  integ_s : float;
  streams : Propagation_stream.t list;  (** leaf-spine, then heavytail *)
  integs : Integrated.t list;
  digest : string;
}

(* The edge-cloud analyses are independent; untraced runs spread them
   over the par pool ([par]), traced runs keep them sequential so the
   spans nest. *)
let round ~par nets =
  Span.run "pwl" "Minplus.cache_clear+Pwl.intern_clear" (fun () ->
      Minplus.cache_clear ();
      Pwl.intern_clear ());
  Span.run "core" "Incremental.clear" Incremental.clear;
  let ss, t_s = time (fun () -> List.map stream (nets.ls @ nets.ht)) in
  let is, t_i =
    time (fun () ->
        if par then Par.map integrated nets.ec else List.map integrated nets.ec)
  in
  let d = digest () in
  List.iter (fun (_, delays) -> add_delays d delays) ss;
  List.iter (fun (_, delays) -> add_delays d delays) is;
  {
    stream_s = t_s;
    integ_s = t_i;
    streams = List.map fst ss;
    integs = List.map fst is;
    digest = hex d;
  }

let servers nets =
  float_of_int (List.fold_left (fun a net -> a + Network.size net) 0 nets)

(* Output checks, outside every timed region: the streaming bounds are
   bit-identical to a table-based Decomposed pass, and seeded simulated
   sub-networks stay within their bounds. *)
let check_outputs ctx c nets (r : round) =
  List.iter2
    (fun net s ->
      let scratch =
        Incremental.with_enabled false (fun () ->
            Decomposed.all_flow_delays (Decomposed.analyze net))
      in
      check c "corpus: stream bounds differ from Decomposed"
        (same_delays scratch (Propagation_stream.all_flow_delays s)))
    (nets.ls @ nets.ht) r.streams;
  let rng = Random.State.make [| ctx.seed; 2 |] in
  List.iter
    (fun (family, n, _) ->
      let unpeaked =
        Corpus.generate_unpeaked ~family ~target_servers:n ~seed:(draw_seed ctx 0)
      in
      let ids = List.map (fun (f : Flow.t) -> f.Flow.id) (Network.flows unpeaked) in
      let sub = Network.restrict unpeaked ~flow_ids:(sample rng 6 ids) in
      let bounds =
        if family = Corpus.Edge_cloud then
          Integrated.all_flow_delays (Integrated.analyze ~strategy:Pairing.Greedy sub)
        else Decomposed.all_flow_delays (Decomposed.analyze sub)
      in
      sim_check c ~what:("corpus sim " ^ Corpus.to_string family) ~bounds sub)
    (specs ctx)

let rounds ~par c nets ~seconds ~traced_iter =
  let acc = ref [] and untraced = ref [] and first = ref None in
  Span.repeat_for ~seconds ~min_iters:4 (fun i ->
      let r =
        if traced_iter i then begin
          let r = round ~par nets in
          acc := r :: !acc;
          r
        end
        else
          Span.run "obs" "untraced_reference" (fun () ->
              let obs = Obs.enabled () in
              Span.disable ();
              Obs.disable ();
              let r = round ~par nets in
              Span.enable ();
              if obs then Obs.enable ();
              untraced := r :: !untraced;
              r)
      in
      match !first with
      | None -> first := Some r.digest
      | Some d0 ->
          check c "corpus round differs from the first round"
            (String.equal r.digest d0));
  (* The first round warms the heap up; it is checked, not timed. *)
  (List.tl (List.rev !acc), List.rev !untraced)

let run ctx c =
  let nets, gen_s = Span.timed "topology" "generate_all" (fun () -> generate ctx) in
  let stream_servers = servers (nets.ls @ nets.ht) in
  if not ctx.trace then begin
    let rs, _ = rounds ~par:true c nets ~seconds:ctx.seconds ~traced_iter:(fun _ -> true) in
    let r0 = List.hd rs in
    check_outputs ctx c nets r0;
    {
      metrics =
        [
          ( "stream_servers_per_s",
            median (List.map (fun r -> stream_servers /. r.stream_s) rs) );
          ( "integrated_servers_per_s",
            median (List.map (fun r -> servers nets.ec /. r.integ_s) rs) );
          ("work_s", median (List.map (fun r -> r.integ_s) rs));
          ( "throughput_per_s",
            median (List.map (fun r -> stream_servers /. r.stream_s) rs) );
        ];
      notes =
        [
          Printf.sprintf
            "corpus: leaf-spine %.0f + heavytail %.0f servers streamed, \
             edge-cloud %.0f servers integrated, %d rounds timed"
            (servers nets.ls) (servers nets.ht) (servers nets.ec) (List.length rs);
        ];
      digest = r0.digest;
    }
  end
  else begin
    let levels_s =
      sum
        (List.map
           (fun net ->
             snd (Span.timed "topology" "Network.levels" (fun () -> Network.levels net)))
           (all_nets nets))
    in
    let rs, untraced =
      rounds ~par:false c nets ~seconds:(0.7 *. ctx.seconds) ~traced_iter:(fun i -> i mod 2 = 0)
    in
    let n_traced = List.length rs in
    let pwl_stats = Layer_stats.pwl (Metrics.snapshot ()) in
    let snap = Metrics.snapshot () in
    let r0 = List.hd rs in
    let fs = List.map Propagation_stream.frontier_stats r0.streams in
    let fmax f = float_of_int (List.fold_left (fun a s -> max a (f s)) 0 fs) in
    let k_ops =
      Span.run "core" "envelope_at" (fun () ->
          Kernel_probe.ops_at (List.hd nets.ec)
            ~envelope_at:(Integrated.envelope_at (List.hd r0.integs)) 2)
    in
    let k =
      Span.run "pwl" "kernel_probe" (fun () ->
          Kernel_probe.run ~seconds:(0.05 *. ctx.seconds) k_ops)
    in
    Span.run "check" "output_checks" (fun () -> check_outputs ctx c nets r0);
    let per_round name = median (Span.durations ~name) in
    {
      metrics =
        [
          ("topology.generate_s", gen_s);
          ("topology.levels_s", levels_s);
          ("core.stream_s", median (List.map (fun r -> r.stream_s) rs));
          ( "core.stream_servers_per_s",
            median (List.map (fun r -> stream_servers /. r.stream_s) rs) );
          ( "core.integrated_servers_per_s",
            median (List.map (fun r -> servers nets.ec /. r.integ_s) rs) );
          ("core.stream_peak_live", fmax (fun s -> s.Propagation_stream.peak_live));
          ( "core.stream_evicted",
            float_of_int
              (List.fold_left (fun a s -> a + s.Propagation_stream.evicted) 0 fs) );
          ( "core.stream_widest_antichain",
            fmax (fun s -> s.Propagation_stream.widest_antichain) );
          ("core.pairing_s", per_round "Pairing.build");
          ("core.integrated_pass_s", per_round "Integrated.analyze_with_pairing");
          ( "core.pair_analyze_calls",
            Layer_stats.counter snap "pair.analyze.calls" /. float_of_int n_traced );
          ("obs.traced_work_s", median (List.map (fun r -> r.stream_s +. r.integ_s) rs));
          ( "obs.untraced_work_s",
            median (List.map (fun r -> r.stream_s +. r.integ_s) untraced) );
          ("samples.iterations", float_of_int (n_traced + List.length untraced));
        ]
        @ Layer_stats.kernel k @ pwl_stats;
      notes = [];
      digest = r0.digest;
    }
  end
