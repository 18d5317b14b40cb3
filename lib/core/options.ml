type t = {
  link_cap : bool;
  sp_blocking : float;
  compact_eps : float;
  compact_max_segs : int;
}

let default =
  { link_cap = false;
    sp_blocking = 0.;
    compact_eps = 0.;
    compact_max_segs = 64 }

let sharpened = { default with link_cap = true }
let with_blocking b t = { t with sp_blocking = b }

let with_compaction ?(max_segs = 64) eps t =
  if eps < 0. then invalid_arg "Options.with_compaction: eps < 0";
  if max_segs < 2 then invalid_arg "Options.with_compaction: max_segs < 2";
  { t with compact_eps = eps; compact_max_segs = max_segs }

let compact_envelope t env =
  if t.compact_eps <= 0. then env
  else
    Pwl.compact ~dir:`Up ~eps:t.compact_eps ~max_segs:t.compact_max_segs env
