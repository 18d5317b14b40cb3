(* In-memory span recorder for the traced run.  Spans wrap the
   benchmark's own calls into each layer's public functions; nothing
   inside the library is instrumented.  Recording is off unless
   [enable] was called, and then costs two clock reads and one list
   cell per span. *)

type t = {
  id : int;
  parent : int;  (** -1 for the root *)
  layer : string;
  name : string;
  start : float;
  mutable stop : float;
}

let on = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let enable () = on := true
let disable () = on := false

let open_span layer name =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = !next_id; parent; layer; name; start = Bench_util.now (); stop = 0. }
  in
  incr next_id;
  stack := s :: !stack;
  s

let close_span s =
  s.stop <- Bench_util.now ();
  stack := List.tl !stack;
  recorded := s :: !recorded

(* [run layer name f] records [f] as a span when recording is on. *)
let run layer name f =
  if not !on then f ()
  else
    let s = open_span layer name in
    Fun.protect ~finally:(fun () -> close_span s) f

(* [timed layer name f] is [run] that also returns the duration. *)
let timed layer name f =
  let t0 = Bench_util.now () in
  let r = run layer name f in
  (r, Bench_util.now () -. t0)

(* Repeat [f] until [seconds] have elapsed and at least [min_iters]
   iterations ran; [f] receives the iteration index.  A full major
   collection before each iteration starts every one from the same heap
   state, so garbage left by the previous one is not charged to it. *)
let repeat_for ~seconds ~min_iters f =
  let stop = Bench_util.now () +. seconds in
  let rec go i =
    if i < min_iters || Bench_util.now () < stop then begin
      run "runtime" "Gc.full_major" Gc.full_major;
      f i;
      go (i + 1)
    end
  in
  go 0

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time of a span: its duration minus its children's, which are
   sequential and nested inside it. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. duration s))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev +. own))
    spans;
  fun layer -> Option.value ~default:0. (Hashtbl.find_opt by_layer layer)

(* Share of the root span's duration covered by its direct children. *)
let coverage root =
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. duration s else acc)
      0. (all ())
  in
  if duration root > 0. then covered /. duration root else 0.

let durations ~name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (duration s) else None)
    (all ())

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds), with
   each span's id and parent id in [args]. *)
let save path =
  let spans = all () in
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) t0 spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            (json_escape s.name) (json_escape s.layer)
            ((s.start -. t0) *. 1e6)
            (duration s *. 1e6)
            s.id s.parent)
        spans;
      output_string oc "\n]}\n")
