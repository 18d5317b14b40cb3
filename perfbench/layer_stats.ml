(* Per-layer figures read back from the library's own counters
   (Metrics.snapshot, enabled only in the traced run) and from the memo
   layers' statistics. *)

open Bench_util

let counter (snap : Metrics.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.counters))

let peak (snap : Metrics.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.peaks))

(* Kernel, memo-layer and pwl counter figures. *)
let pwl (snap : Metrics.snapshot) =
  let i = Pwl.intern_stats () and m = Minplus.cache_stats () in
  [
    ("pwl.segments_total", counter snap "pwl.segments.total");
    ("pwl.segments_max", peak snap "pwl.segments.max");
    ("pwl.conv_calls", counter snap "pwl.conv.calls");
    ("pwl.deconv_calls", counter snap "pwl.deconv.calls");
    ("pwl.make_calls", counter snap "pwl.make.calls");
    ("pwl.intern_hits", float_of_int i.hits);
    ("pwl.intern_misses", float_of_int i.misses);
    ("pwl.intern_hit_ratio", ratio i.hits (i.hits + i.misses));
    ("pwl.opcache_hits", float_of_int m.hits);
    ("pwl.opcache_misses", float_of_int m.misses);
    ("pwl.opcache_hit_ratio", ratio m.hits (m.hits + m.misses));
  ]

let kernel (k : Kernel_probe.result) =
  [
    ("pwl.kernel_bp_per_s", k.bp_per_s);
    ("pwl.kernel_breakpoints", float_of_int k.breakpoints);
    ("pwl.kernel_calls", float_of_int k.calls);
  ]
