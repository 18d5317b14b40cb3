(* Timing, statistics, digests and output checks shared by the
   workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it.  [nan] on no samples. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* Samples strictly beyond the nearest-rank [q] percentile. *)
let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

let sum = List.fold_left ( +. ) 0.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* FNV-1a over 64-bit words: the digest of a list of bounds is taken
   over their IEEE bit patterns, so it pins outputs bit for bit. *)
type digest = { mutable h : int64 }

let digest () = { h = 0xcbf29ce484222325L }

let add_int64 d w =
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical w (8 * i)) 0xffL in
    d.h <- Int64.mul (Int64.logxor d.h byte) 0x100000001b3L
  done

let add_float d x = add_int64 d (Int64.bits_of_float x)
let add_int d i = add_int64 d (Int64.of_int i)

let add_delays d delays =
  List.iter
    (fun (id, b) ->
      add_int d id;
      add_float d b)
    delays

let hex d = Printf.sprintf "%016Lx" d.h

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_delays xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun (i, a) (j, b) -> i = j && same_bits a b) xs ys

(* Output checks: every check is one attempted operation; a failed one
   is counted and described on stderr. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* VmHWM (peak resident set) of a process, in MB. *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                String.to_seq line
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq |> float_of_string
                |> fun kb -> kb /. 1024.
            | _ -> scan ()
          in
          scan ())

let clear_caches () =
  Incremental.clear ();
  Minplus.cache_clear ();
  Pwl.intern_clear ()

(* A seeded choice of [k] distinct elements, in input order. *)
let sample rng k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let chosen = Array.sub a 0 (min k n) |> Array.to_list in
  List.filter (fun x -> List.mem x chosen) xs

(* Bound-vs-simulation check on an unpeaked sub-network: every
   simulated delay must stay within its bound (plus the store-and-
   forward allowance Validate grants). *)
let sim_check c ~what ~bounds sub =
  let config = { Sim.default_config with packet_size = 0.05; horizon = 200. } in
  let reports = Validate.check ~config ~bounds sub in
  check c (what ^ ": simulation produced no reports") (reports <> []);
  List.iter
    (fun (r : Validate.report) ->
      check c
        (Printf.sprintf "%s: flow %d observed %.6g > bound %.6g" what r.flow
           r.observed r.bound)
        (r.slack >= -1e-6))
    reports

(* What a workload run is given. *)
type ctx = {
  seed : int;
  seconds : float;
  tiny : bool;  (** smoke-test sizes *)
  trace : bool;
  jobs : int;
  out_dir : string;  (** scratch files: scenario, socket, spans *)
  netcalc : string;  (** the netcalc executable, for serve-churn *)
  cpus : int list;  (** CPUs this process may run on *)
  taskset : string;  (** taskset executable, or "" *)
}

(* What it reports: end-to-end metrics (untraced run) or per-layer
   metrics (traced run), by name, human-readable lines, and the digest
   of its outputs. *)
type outcome = {
  metrics : (string * float) list;
  notes : string list;
  digest : string;  (** over the Int64 bits of every bound produced *)
}
