(* paper-grid: the paper's Fig. 4-6 evaluation, Sweep_engine.tandem_grid
   over loads 0.1-0.9 with hop counts extended to 2..32, every grid from
   cold caches.  The grid is the paper's and does not depend on the
   seed; the seed picks the cells re-derived from scratch and the
   simulated sub-network. *)

open Bench_util

let loads = Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1
let max_hops ctx = if ctx.tiny then 4 else 32
let hops ctx = List.init (max_hops ctx - 1) (fun i -> i + 2)

let tandem ~n ~u = (Tandem.make ~n ~utilization:u ()).Tandem.network

(* What a CLI user's process builds before the grid runs. *)
let setup ctx = List.iter (fun u -> ignore (tandem ~n:(max_hops ctx) ~u)) loads

let cells ctx =
  List.concat_map (fun u -> List.map (fun n -> (u, n)) (hops ctx)) loads

let grid ctx =
  Span.run "pwl" "Minplus.cache_clear+Pwl.intern_clear" (fun () ->
      Minplus.cache_clear ();
      Pwl.intern_clear ());
  Span.run "core" "Incremental.clear" Incremental.clear;
  Span.run "core" "Sweep_engine.tandem_grid" (fun () ->
      Sweep_engine.tandem_grid ~hops:(hops ctx) ~loads ())

let add_comparison d (c : Engine.comparison) =
  add_int d c.flow;
  List.iter (add_float d)
    [
      c.decomposed; c.service_curve; c.integrated; c.fifo_theta;
      c.decomposed_backlog; c.integrated_backlog;
    ]

let grid_digest results =
  let d = digest () in
  List.iter (add_comparison d) results;
  hex d

let same_comparison (a : Engine.comparison) (b : Engine.comparison) =
  let da = digest () and db = digest () in
  add_comparison da a;
  add_comparison db b;
  Int64.equal da.h db.h

(* Output checks, outside every timed region: seeded cells re-derived by
   a from-scratch Engine.compare_all with the memo off, and a simulated
   sub-network whose observed delays must stay within all three
   methods' bounds. *)
let check_outputs ctx c results =
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let table = List.combine (cells ctx) results in
  List.iter
    (fun ((u, n), got) ->
      let scratch =
        Incremental.with_enabled false (fun () ->
            Engine.compare_all ~strategy:(Pairing.Along_route 0)
              ~with_theta:false (tandem ~n ~u) 0)
      in
      check c
        (Printf.sprintf "paper-grid cell U=%g n=%d differs from scratch" u n)
        (same_comparison scratch got))
    (sample rng 6 (List.map fst table) |> List.map (fun k -> (k, List.assoc k table)));
  let u = List.nth loads (Random.State.int rng (List.length loads)) in
  let n = 4 + Random.State.int rng (if ctx.tiny then 1 else 9) in
  let full = (Tandem.make ~n ~utilization:u ~peak:Float.infinity ()).Tandem.network in
  let cross =
    List.filter_map
      (fun (f : Flow.t) -> if f.Flow.id = 0 then None else Some f.Flow.id)
      (Network.flows full)
  in
  let sub = Network.restrict full ~flow_ids:(0 :: sample rng 4 cross) in
  let what m = Printf.sprintf "paper-grid sim U=%g n=%d %s" u n m in
  sim_check c ~what:(what "decomposed")
    ~bounds:(Decomposed.all_flow_delays (Decomposed.analyze sub)) sub;
  sim_check c ~what:(what "service-curve")
    ~bounds:(Service_curve_method.all_flow_delays (Service_curve_method.analyze sub))
    sub;
  sim_check c ~what:(what "integrated")
    ~bounds:
      (Integrated.all_flow_delays
         (Integrated.analyze ~strategy:(Pairing.Along_route 0) sub))
    sub

(* Every grid must reproduce the first bit for bit. *)
let grids ctx c ~seconds ~traced_iter =
  let first = ref None and times = ref [] and untraced = ref [] in
  Span.repeat_for ~seconds ~min_iters:3 (fun i ->
      let traced = traced_iter i in
      let results, dt =
        if traced then time (fun () -> grid ctx)
        else
          Span.run "obs" "untraced_reference" (fun () ->
              let was = !Span.on and obs = Obs.enabled () in
              Span.disable ();
              Obs.disable ();
              let r = time (fun () -> grid ctx) in
              if was then Span.enable ();
              if obs then Obs.enable ();
              r)
      in
      if traced then times := dt :: !times else untraced := dt :: !untraced;
      let d = grid_digest results in
      match !first with
      | None -> first := Some (d, results)
      | Some (d0, _) -> check c "paper-grid grid differs from the first grid" (String.equal d d0));
  let d0, results = Option.get !first in
  (* The first grid warms the heap up; it is checked, not timed. *)
  let times = match List.rev !times with _ :: (_ :: _ as tl) -> tl | l -> l in
  (d0, results, times, !untraced)

let run ctx c =
  if not ctx.trace then begin
    let d, results, times, _ =
      grids ctx c ~seconds:ctx.seconds ~traced_iter:(fun _ -> true)
    in
    check_outputs ctx c results;
    {
      metrics =
        [
          ("grid_s", median times);
          ("work_s", median times);
          ( "throughput_per_s",
            float_of_int (List.length results * List.length times) /. sum times );
        ];
      notes =
        [
          Printf.sprintf "paper-grid: %d cells per grid, %d grids timed" 
            (List.length results) (List.length times);
        ];
      digest = d;
    }
  end
  else begin
    (* Traced: alternate traced and untraced grids (the difference is the
       observation overhead), then each method's own analysis of the
       largest tandem per load, then the kernel probe. *)
    let d, results, times, untraced =
      grids ctx c ~seconds:(0.6 *. ctx.seconds) ~traced_iter:(fun i -> i mod 2 = 0)
    in
    let pwl_stats = Layer_stats.pwl (Metrics.snapshot ()) in
    let inc = Incremental.stats () in
    let method_time name f =
      sum
        (List.map
           (fun u ->
             let net = tandem ~n:(max_hops ctx) ~u in
             clear_caches ();
             snd (Span.timed "core" name (fun () -> f net)))
           loads)
    in
    let dec =
      method_time "Decomposed.analyze" (fun net ->
          Decomposed.all_flow_delays (Decomposed.analyze net))
    in
    let sc =
      method_time "Service_curve_method.analyze" (fun net ->
          Service_curve_method.all_flow_delays (Service_curve_method.analyze net))
    in
    let integ =
      method_time "Integrated.analyze" (fun net ->
          Integrated.all_flow_delays
            (Integrated.analyze ~strategy:(Pairing.Along_route 0) net))
    in
    let net = tandem ~n:(max_hops ctx) ~u:0.9 in
    let k_ops =
      Span.run "core" "envelope_at" (fun () ->
          let dd = Decomposed.analyze net in
          let ii = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
          Kernel_probe.ops_at net ~envelope_at:(Decomposed.envelope_at dd) 2
          @ Kernel_probe.ops_at net ~envelope_at:(Integrated.envelope_at ii) 2)
    in
    let k =
      Span.run "pwl" "kernel_probe" (fun () ->
          Kernel_probe.run ~seconds:(0.1 *. ctx.seconds) k_ops)
    in
    Span.run "check" "output_checks" (fun () -> check_outputs ctx c results);
    {
        metrics =
          [
            ("core.tandem_grid_s", median times);
            ("core.decomposed_s", dec);
            ("core.service_curve_s", sc);
            ("core.integrated_s", integ);
            ("core.incremental_reuse", float_of_int inc.reuse);
            ("core.incremental_recompute", float_of_int inc.recompute);
            ( "core.incremental_reuse_ratio",
              ratio inc.reuse (inc.reuse + inc.recompute) );
            ("obs.traced_work_s", median times);
            ("obs.untraced_work_s", median untraced);
            ("samples.iterations", float_of_int (List.length times + List.length untraced));
          ]
          @ Layer_stats.kernel k @ pwl_stats;
        notes = [];
        digest = d;
      }
  end
