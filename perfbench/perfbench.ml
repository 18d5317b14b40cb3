(* The netcalc benchmark: one workload per process.

     perfbench.exe --workload paper-grid|corpus|serve-churn --seed N
                   --seconds S --trace 0|1 [--jobs J] [--tiny]
                   [--out-dir DIR] [--netcalc EXE] [--cpus C,C,..]
                   [--taskset EXE]

   run from the root of a checkout (perfbench/run.py is the way in).

   Prints human-readable lines, then one JSON line:
   {"correct","attempted","failed","metrics"}.  Untraced runs report the
   end-to-end metrics; traced runs (--trace 1) record spans around the
   benchmark's calls into each layer and report the per-layer metrics. *)

open Bench_util

let workloads = [ "paper-grid"; "corpus"; "serve-churn" ]

(* End-to-end metrics: every untraced run reports all of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
    ("work_s", "s");
    ("throughput_per_s", "1/s");
  ]

(* Workload-specific end-to-end figures, printed by name with their
   units in the human-readable part of an untraced run. *)
let named =
  [
    ("grid_s", "s");
    ("stream_servers_per_s", "1/s");
    ("integrated_servers_per_s", "1/s");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("serve_capacity_ops_s", "1/s");
  ]

(* Per-layer metrics: every traced run reports all of them, 0 where the
   workload does no work in that layer.  (name, unit, better) *)
let per_layer =
  let l = "lower" and h = "higher" in
  [
    ("pwl.kernel_bp_per_s", "1/s", h);
    ("pwl.kernel_breakpoints", "count", h);
    ("pwl.kernel_calls", "count", h);
    ("pwl.segments_total", "count", l);
    ("pwl.segments_max", "count", l);
    ("pwl.conv_calls", "count", l);
    ("pwl.deconv_calls", "count", l);
    ("pwl.make_calls", "count", l);
    ("pwl.intern_hit_ratio", "ratio", h);
    ("pwl.intern_hits", "count", h);
    ("pwl.intern_misses", "count", l);
    ("pwl.opcache_hit_ratio", "ratio", h);
    ("pwl.opcache_hits", "count", h);
    ("pwl.opcache_misses", "count", l);
    ("pwl.self_s", "s", l);
    ("core.tandem_grid_s", "s", l);
    ("core.decomposed_s", "s", l);
    ("core.service_curve_s", "s", l);
    ("core.integrated_s", "s", l);
    ("core.incremental_reuse_ratio", "ratio", h);
    ("core.incremental_reuse", "count", h);
    ("core.incremental_recompute", "count", l);
    ("core.pairing_s", "s", l);
    ("core.integrated_pass_s", "s", l);
    ("core.pair_analyze_calls", "count", l);
    ("core.integrated_servers_per_s", "1/s", h);
    ("core.stream_s", "s", l);
    ("core.stream_servers_per_s", "1/s", h);
    ("core.stream_peak_live", "count", l);
    ("core.stream_evicted", "count", h);
    ("core.stream_widest_antichain", "count", l);
    ("core.self_s", "s", l);
    ("topology.generate_s", "s", l);
    ("topology.levels_s", "s", l);
    ("topology.scenario_load_s", "s", l);
    ("topology.self_s", "s", l);
    ("par.jobs", "count", h);
    ("serve.create_s", "s", l);
    ("serve.handle_write_us", "us", l);
    ("serve.handle_read_us", "us", l);
    ("serve.delta_write_us", "us", l);
    ("serve.delta_read_us", "us", l);
    ("serve.sjson_us", "us", l);
    ("serve.cone_nodes", "count", l);
    ("serve.reused_nodes", "count", h);
    ("serve.cone_nodes_per_op", "count", l);
    ("serve.cone_ratio", "ratio", l);
    ("serve.admits_accepted", "count", h);
    ("serve.admits_attempted", "count", h);
    ("serve.accept_ratio", "ratio", h);
    ("serve.self_s", "s", l);
    ("serve.transport_us", "us", l);
    ("serve.client_late_ms", "ms", l);
    ("serve.max_outstanding", "count", l);
    ("serve.write_p50_ms", "ms", l);
    ("serve.write_p99_ms", "ms", l);
    ("serve.read_p50_ms", "ms", l);
    ("serve.read_p99_ms", "ms", l);
    ("serve.capacity_ops_s", "1/s", h);
    ("bin.self_s", "s", l);
    ("check.self_s", "s", l);
    ("obs.overhead_frac", "ratio", l);
    ("obs.traced_work_s", "s", l);
    ("obs.untraced_work_s", "s", l);
    ("obs.self_s", "s", l);
    ("runtime.self_s", "s", l);
    ("trace.coverage_frac", "ratio", h);
    ("trace.spans", "count", h);
    ("trace.wall_s", "s", l);
    ("samples.iterations", "count", h);
    ("samples.write", "count", h);
    ("samples.read", "count", h);
  ]

let layers = [ "pwl"; "core"; "topology"; "serve"; "bin"; "check"; "obs"; "runtime" ]

(* ---- arguments ---- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload paper-grid|corpus|serve-churn --seed N \
     --seconds S --trace 0|1 [--jobs J] [--tiny] [--out-dir DIR] [--netcalc \
     EXE] [--cpus C,C,..] [--taskset EXE] [--probe-setup]";
  exit 2

type args = {
  ctx : ctx;
  workload : string;
  probe : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and jobs = ref 1 and tiny = ref false in
  let out_dir = ref "." and netcalc = ref "" and probe = ref false in
  let cpus = ref [] and taskset = ref "" in
  let rec go = function
    | "--workload" :: w :: tl -> workload := w; go tl
    | "--seed" :: n :: tl -> seed := int_of_string_opt n; go tl
    | "--seconds" :: s :: tl -> seconds := float_of_string_opt s; go tl
    | "--trace" :: ("0" | "1" as t) :: tl -> trace := Some (t = "1"); go tl
    | "--jobs" :: j :: tl -> jobs := max 1 (Option.value ~default:1 (int_of_string_opt j)); go tl
    | "--tiny" :: tl -> tiny := true; go tl
    | "--out-dir" :: d :: tl -> out_dir := d; go tl
    | "--netcalc" :: e :: tl -> netcalc := e; go tl
    | "--probe-setup" :: tl -> probe := true; go tl
    | "--cpus" :: l :: tl ->
        cpus := List.filter_map int_of_string_opt (String.split_on_char ',' l);
        go tl
    | "--taskset" :: t :: tl -> taskset := t; go tl
    | [] -> ()
    | a :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0. ->
      {
        ctx =
          { seed; seconds; tiny = !tiny; trace; jobs = !jobs; out_dir = !out_dir;
            netcalc = !netcalc; cpus = !cpus; taskset = !taskset };
        workload = !workload;
        probe = !probe;
      }
  | _ -> usage ()

(* ---- set-up time ---- *)

(* Set-up of paper-grid and corpus, measured from process start: a
   fresh child of this executable runs the workload's set-up and
   reports on a pipe; the time to that report is one sample. *)
let probe_setup a =
  let argv =
    [| Sys.executable_name; "--probe-setup"; "--workload"; a.workload; "--seed";
       string_of_int a.ctx.seed; "--seconds"; "1"; "--trace"; "0"; "--jobs";
       string_of_int a.ctx.jobs |]
  in
  let argv = if a.ctx.tiny then Array.append argv [| "--tiny" |] else argv in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when String.equal line "ready" -> dt
  | _ -> failwith "set-up probe failed"

let setup_samples a n = List.init n (fun _ -> probe_setup a)

(* ---- recorded digests ---- *)

(* Recorded digests, relative to the checkout root, keyed by what the
   outputs depend on: nothing for paper-grid (its grid is fixed), the
   seed for corpus, the seed and the run length for serve-churn (the
   open-loop script is as long as the run). *)
let digests_file = "perfbench/digests.json"

let recorded_digest a =
  let key =
    match a.workload with
    | "paper-grid" -> "paper-grid"
    | "corpus" -> Printf.sprintf "corpus/%d" a.ctx.seed
    | w -> Printf.sprintf "%s/%d/%g" w a.ctx.seed a.ctx.seconds
  in
  if a.ctx.tiny then (key, None)
  else
    let text = In_channel.with_open_bin digests_file In_channel.input_all in
    match Sjson.member "digests" (Sjson.parse text) with
    | Some d -> (key, Option.bind (Sjson.member key d) Sjson.to_string)
    | None -> (key, None)

(* ---- output ---- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  Par.set_jobs a.ctx.jobs;
  Obs.disable ();
  let setup =
    match a.workload with
    | "paper-grid" -> Wl_paper_grid.setup
    | "corpus" -> Wl_corpus.setup
    | _ -> fun _ -> ()
  in
  if a.probe then begin
    setup a.ctx;
    print_endline "ready";
    exit 0
  end;
  let c = checks () in
  let t_start = now () in
  if a.ctx.trace then begin
    Metrics.reset ();
    Obs.enable ();
    Span.enable ()
  end;
  let root = Span.open_span "bench" a.workload in
  let run =
    match a.workload with
    | "paper-grid" -> Wl_paper_grid.run
    | "corpus" -> Wl_corpus.run
    | _ -> Wl_serve_churn.run
  in
  let o =
    try run a.ctx c
    with e ->
      (* A failure before any result: report nothing and exit non-zero. *)
      Printf.eprintf "perfbench: %s failed: %s\n%s%!" a.workload (Printexc.to_string e) (Printexc.get_backtrace ());
      exit 1
  in
  Span.close_span root;
  let key, recorded = recorded_digest a in
  (match recorded with
  | Some d ->
      check c (Printf.sprintf "digest %s: %s, recorded %s" key o.digest d)
        (String.equal d o.digest)
  | None -> ());
  let digest_note =
    Printf.sprintf "digest %s: %s (%s)" key o.digest
      (match recorded with
      | Some d when String.equal d o.digest -> "matches the recorded digest"
      | Some _ -> "DIFFERS from the recorded digest"
      | None -> "no recorded digest for this key")
  in
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then check c ("metric not finite: " ^ n) false)
    o.metrics;
  let failed_frac = ratio c.failed c.attempted in
  let finite v = if Float.is_finite v then v else 0. in
  let metrics =
    if not a.ctx.trace then begin
      let setup_s =
        match List.assoc_opt "setup_s" o.metrics with
        | Some s -> s
        | None -> median (setup_samples a 5)
      in
      let rss =
        Option.value ~default:(vmhwm_mb 0) (List.assoc_opt "peak_rss_mb" o.metrics)
      in
      let all =
        [ ("setup_s", setup_s); ("peak_rss_mb", rss); ("ok_frac", 1. -. failed_frac) ]
        @ o.metrics
      in
      List.iter print_endline o.notes;
      print_endline digest_note;
      Printf.printf "failed_frac = %.6g ratio (%d of %d operations and checks failed)\n"
        failed_frac c.failed c.attempted;
      List.iter
        (fun (n, u) ->
          Option.iter (fun v -> Printf.printf "%s = %.6g %s\n" n v u) (List.assoc_opt n all))
        (List.filter (fun (n, _) -> n <> "ok_frac") end_to_end @ named);
      List.map (fun (n, u) -> (n, u, finite (List.assoc n all))) end_to_end
    end
    else begin
      let self = Span.self_times () in
      let wall = now () -. t_start in
      let layer_self = List.map (fun l -> (l ^ ".self_s", self l)) layers in
      let traced = List.assoc_opt "obs.traced_work_s" o.metrics in
      let untraced = List.assoc_opt "obs.untraced_work_s" o.metrics in
      let overhead =
        match (traced, untraced) with
        | Some t, Some u when u > 0. -> (t /. u) -. 1.
        | _ -> 0.
      in
      let all =
        o.metrics @ layer_self
        @ [
            ("par.jobs", float_of_int (Par.jobs ()));
            ("obs.overhead_frac", overhead);
            ("trace.coverage_frac", Span.coverage root);
            ("trace.spans", float_of_int (List.length (Span.all ())));
            ("trace.wall_s", wall);
          ]
      in
      let path =
        Filename.concat a.ctx.out_dir
          (Printf.sprintf "trace-%s-%d.json" a.workload a.ctx.seed)
      in
      Span.save path;
      List.iter print_endline o.notes;
      print_endline digest_note;
      Printf.printf "spans written to %s\n" path;
      List.iter
        (fun l -> Printf.printf "self time %-9s %.4f s\n" l (self l))
        ("bench" :: layers);
      List.map
        (fun (n, u, _) ->
          (n, u, finite (Option.value ~default:0. (List.assoc_opt n all))))
        per_layer
    end
  in
  print_result ~correct:(c.failed = 0) ~attempted:c.attempted ~failed:c.failed metrics;
  exit 0
