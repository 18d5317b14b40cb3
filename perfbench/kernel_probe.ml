(* Direct timing of the min-plus kernel on envelopes taken from a
   workload: conv, deconv and conv_with_rate through Curve_repr, and
   Deviation.hdev.  The operation cache is switched off so every call
   runs the kernel rather than a cache lookup. *)

let breakpoints f = List.length (Pwl.breakpoints f)

(* [envelopes] are the input envelopes of the flows at one busy server
   of rate [rate]. *)
let ops ~rate envelopes =
  let beta = Service.rate_latency ~rate ~latency:1. in
  let agg = List.fold_left Pwl.add (List.hd envelopes) (List.tl envelopes) in
  let pairs =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) envelopes)
      envelopes
  in
  List.map
    (fun (a, b) ->
      (breakpoints a + breakpoints b, fun () -> ignore (Curve_repr.conv a b)))
    pairs
  @ List.concat_map
      (fun a ->
        [
          ( breakpoints a + breakpoints beta,
            fun () -> ignore (Curve_repr.deconv a beta) );
          (breakpoints a, fun () -> ignore (Curve_repr.conv_with_rate ~rate a));
        ])
      envelopes
  @ [
      ( breakpoints agg + breakpoints beta,
        fun () -> ignore (Deviation.hdev ~alpha:agg ~beta) );
    ]

type result = { bp_per_s : float; breakpoints : int; calls : int }

(* Run the operation set repeatedly for about [seconds]. *)
let run ~seconds ops =
  let was = Minplus.cache_enabled () in
  Minplus.set_cache_enabled false;
  let bp = ref 0 and calls = ref 0 and busy = ref 0. in
  Fun.protect
    ~finally:(fun () -> Minplus.set_cache_enabled was)
    (fun () ->
      let stop = Bench_util.now () +. seconds in
      while !calls = 0 || Bench_util.now () < stop do
        List.iter
          (fun (n, f) ->
            let (), dt = Bench_util.time f in
            busy := !busy +. dt;
            bp := !bp + n;
            incr calls)
          ops
      done);
  {
    bp_per_s = (if !busy > 0. then float_of_int !bp /. !busy else 0.);
    breakpoints = !bp;
    calls = !calls;
  }

(* The [k] servers carrying the most flows (ties to the higher id,
   which sits deeper in the feedforward order on the generators). *)
let busiest net k =
  Network.servers net
  |> List.map (fun (s : Server.t) ->
         (List.length (Network.flows_at net s.id), s.id, s.rate))
  |> List.sort (fun (a, i, _) (b, j, _) ->
         match Int.compare b a with 0 -> Int.compare j i | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.filter (fun (n, _, _) -> n > 0)

(* Operations over the envelopes at the busiest servers, as an analysis
   propagated them.  Integrated keeps no envelope at the second server
   of a pair; such hops are skipped. *)
let ops_at net ~envelope_at k =
  List.concat_map
    (fun (_, sid, rate) ->
      let envs =
        List.filter_map
          (fun (f : Flow.t) ->
            match envelope_at ~flow:f.Flow.id ~server:sid with
            | e -> Some e
            | exception (Not_found | Invalid_argument _) -> None)
          (List.filteri (fun i _ -> i < 12) (Network.flows_at net sid))
      in
      if envs = [] then [] else ops ~rate envs)
    (busiest net k)
