(* Tests for flows, servers, networks, the tandem generator and the
   random feedforward generator. *)

open Testutil

let flow id route =
  Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ()) ~route ()

let servers n = List.init n (fun id -> Server.make ~id ~rate:1. ())

let test_flow_accessors () =
  let f = flow 7 [ 3; 1; 4 ] in
  Alcotest.(check int) "first hop" 3 (Flow.first_hop f);
  Alcotest.(check int) "last hop" 4 (Flow.last_hop f);
  Alcotest.(check (option int)) "next of 1" (Some 4) (Flow.next_hop f 1);
  Alcotest.(check (option int)) "next of 4" None (Flow.next_hop f 4);
  Alcotest.(check (option int)) "prev of 1" (Some 3) (Flow.prev_hop f 1);
  Alcotest.(check (option int)) "prev of 3" None (Flow.prev_hop f 3);
  check_bool "traverses" true (Flow.traverses f 1);
  check_bool "does not traverse" false (Flow.traverses f 9);
  Alcotest.(check (list (pair int int)))
    "hop pairs"
    [ (3, 1); (1, 4) ]
    (Flow.hop_pairs f)

let test_flow_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.1 () in
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[] ());
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[ 1; 2; 1 ] ());
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[ 1 ] ~weight:0. ());
  expect_invalid (fun () ->
      Flow.make ~id:0 ~arrival ~route:[ 1 ] ~deadline:(-1.) ())

let test_network_basics () =
  let net =
    Network.make ~servers:(servers 3)
      ~flows:[ flow 0 [ 0; 1; 2 ]; flow 1 [ 1; 2 ]; flow 2 [ 0 ] ]
  in
  Alcotest.(check int) "size" 3 (Network.size net);
  Alcotest.(check int) "flows at 1" 2 (List.length (Network.flows_at net 1));
  Alcotest.(check (list (pair int int)))
    "edges"
    [ (0, 1); (1, 2) ]
    (Network.edges net);
  Alcotest.(check (list int))
    "topological order" [ 0; 1; 2 ]
    (Network.topological_order net);
  check_bool "feedforward" true (Network.is_feedforward net);
  approx "utilization at 0" 0.2 (Network.utilization net 0);
  check_bool "stable" true (Network.stable net)

let test_network_cycle () =
  let net =
    Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 1 ]; flow 1 [ 1; 0 ] ]
  in
  check_bool "cyclic detected" false (Network.is_feedforward net);
  (try
     ignore (Network.topological_order net);
     Alcotest.fail "expected Cyclic"
   with Network.Cyclic -> ())

let test_network_validation () =
  (try
     ignore (Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 5 ] ]);
     Alcotest.fail "expected Invalid_argument for unknown server"
   with Invalid_argument _ -> ());
  let s = Server.make ~id:0 ~rate:1. () in
  try
    ignore (Network.make ~servers:[ s; s ] ~flows:[]);
    Alcotest.fail "expected Invalid_argument for duplicate id"
  with Invalid_argument _ -> ()

(* Unknown-id lookups raise a descriptive Invalid_argument rather than
   an ambient Not_found — a Not_found leaking out of a lookup is
   indistinguishable from deliberate control flow once it crosses a
   Par worker or the serve request loop.  [flow_opt] is the variant
   for callers that treat absence as data. *)
let test_lookup_errors () =
  let msg_contains msg sub =
    let nh = String.length msg and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub msg i nn = sub || go (i + 1)) in
    go 0
  in
  let net = Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 1 ] ] in
  (try
     ignore (Network.server net 9);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     check_bool "server error names the id" true (msg_contains msg "9"));
  (try
     ignore (Network.flow net 9);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     check_bool "flow error names the id" true (msg_contains msg "9"));
  check_bool "flow_opt: absent" true (Network.flow_opt net 9 = None);
  match Network.flow_opt net 0 with
  | Some f -> Alcotest.(check int) "flow_opt: present" 0 f.Flow.id
  | None -> Alcotest.fail "flow_opt lost an existing flow"

let test_tandem_structure () =
  let n = 5 in
  let t = Tandem.make ~n ~utilization:0.6 () in
  let net = t.network in
  Alcotest.(check int) "server count" (3 * n) (Network.size net);
  Alcotest.(check int)
    "flow count (2n+1)"
    ((2 * n) + 1)
    (List.length (Network.flows net));
  Alcotest.(check (list int))
    "conn0 route" [ 0; 1; 2; 3; 4 ]
    t.conn0.route;
  (* Paper invariant: every middle port except the first carries 4
     connections. *)
  List.iteri
    (fun j sid ->
      let expected = if j = 0 then 3 else 4 in
      Alcotest.(check int)
        (Printf.sprintf "population of mid%d" j)
        expected
        (List.length (Network.flows_at net sid)))
    t.mid_servers;
  (* Internal links run at the requested utilization. *)
  List.iteri
    (fun j sid ->
      let expected = if j = 0 then 0.45 else 0.6 in
      approx (Printf.sprintf "utilization of mid%d" j) expected
        (Network.utilization net sid))
    t.mid_servers;
  check_bool "feedforward" true (Network.is_feedforward net);
  Alcotest.(check int) "cross flows" (2 * n) (List.length (Tandem.cross_flows t))

let test_tandem_sources () =
  let t = Tandem.make ~n:3 ~utilization:0.8 ~sigma:2. () in
  List.iter
    (fun (f : Flow.t) ->
      let sigma, rho, peak = Arrival.token_params f.arrival in
      approx "sigma" 2. sigma;
      approx "rho = U/4" 0.2 rho;
      approx "peak" 1. peak)
    (Network.flows t.network)

let test_tandem_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Tandem.make ~n:1 ~utilization:0.5 ());
  expect_invalid (fun () -> Tandem.make ~n:4 ~utilization:1.2 ());
  expect_invalid (fun () -> Tandem.make ~n:4 ~utilization:0.5 ~sigma:0. ())

let test_randomnet () =
  let net = Randomnet.generate Randomnet.default in
  check_bool "feedforward" true (Network.is_feedforward net);
  check_bool "stable" true (Network.stable net);
  approx ~tol:1e-6 "max utilization hits target"
    Randomnet.default.utilization (Network.max_utilization net);
  (* Deterministic for a fixed seed. *)
  let net2 = Randomnet.generate Randomnet.default in
  Alcotest.(check (list (pair int int)))
    "deterministic" (Network.edges net) (Network.edges net2)

let prop_randomnet_always_feedforward =
  qtest ~count:50 "random networks are feedforward and stable"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 1 3) (int_range 1 12) (int_range 0 1000))
    (fun (layers, per_layer, num_flows, seed) ->
      let net =
        Randomnet.generate
          {
            Randomnet.default with
            layers;
            per_layer;
            num_flows;
            seed;
            utilization = 0.7;
          }
      in
      Network.is_feedforward net && Network.stable net)

(* ------------------------------------------------------------------ *)
(* Persistent flow updates: add_flow / remove_flow = make               *)
(* ------------------------------------------------------------------ *)

type views = {
  v_flows : int list;
  v_flows_at : (int * int list) list;
  v_successors : (int * int list) list;
  v_edges : (int * int) list;
  v_topo : int list;
}

let views net =
  let ids = List.map (fun (f : Flow.t) -> f.id) in
  let per_server view =
    List.map (fun (s : Server.t) -> (s.id, view s.id)) (Network.servers net)
  in
  {
    v_flows = ids (Network.flows net);
    v_flows_at = per_server (fun sid -> ids (Network.flows_at net sid));
    v_successors = per_server (Network.successors net);
    v_edges = Network.edges net;
    v_topo = Network.topological_order net;
  }

let check_views msg expected actual =
  let per_server = Alcotest.(list (pair int (list int))) in
  Alcotest.(check (list int)) (msg ^ ": flows") expected.v_flows actual.v_flows;
  Alcotest.check per_server (msg ^ ": flows_at") expected.v_flows_at
    actual.v_flows_at;
  Alcotest.check per_server (msg ^ ": successors") expected.v_successors
    actual.v_successors;
  Alcotest.(check (list (pair int int)))
    (msg ^ ": edges") expected.v_edges actual.v_edges;
  Alcotest.(check (list int))
    (msg ^ ": topological order") expected.v_topo actual.v_topo

(* A seeded walk of adds and removes over a draw's own flows, starting
   from a random subset of them: after every step the persistent
   network's views equal a fresh [make] on the same flow list, and the
   network the step started from is unchanged. *)
let check_update_walk name (draw : Network.t) ~seed =
  let servers = Network.servers draw in
  let pool = Network.flows draw in
  let rng = Random.State.make [| seed |] in
  let pick fs = List.nth fs (Random.State.int rng (List.length fs)) in
  let present = List.filter (fun _ -> Random.State.bool rng) pool in
  let net =
    ref (List.fold_left Network.add_flow (Network.make ~servers ~flows:[]) present)
  in
  let present = ref present in
  for step = 1 to 40 do
    let before = !net in
    let snapshot = views before in
    let absent = List.filter (fun f -> not (List.memq f !present)) pool in
    (if !present <> [] && (absent = [] || Random.State.bool rng) then begin
       let f = pick !present in
       present := List.filter (fun g -> g != f) !present;
       net := Network.remove_flow before f.Flow.id
     end
     else begin
       let f = pick absent in
       present := !present @ [ f ];
       net := Network.add_flow before f
     end);
    let msg = Printf.sprintf "%s step %d" name step in
    check_views msg
      (views (Network.make ~servers ~flows:!present))
      (views !net);
    check_views (msg ^ ": input unchanged") snapshot (views before)
  done

let test_update_walks_corpus () =
  List.iter
    (fun family ->
      List.iter
        (fun target_servers ->
          List.iter
            (fun seed ->
              check_update_walk
                (Printf.sprintf "%s/%d/%d" (Corpus.to_string family)
                   target_servers seed)
                (Corpus.generate ~family ~target_servers ~seed)
                ~seed)
            [ 0; 1 ])
        [ 64; 256 ])
    Corpus.all

let test_update_walks_randomnet () =
  for seed = 0 to 9 do
    check_update_walk
      (Printf.sprintf "randomnet/%d" seed)
      (Randomnet.generate
         { Randomnet.default with layers = 4; per_layer = 3; num_flows = 20; seed })
      ~seed
  done

(* Errors are [make]'s, raised before anything is built; removing an
   unknown id is a no-op that hands back the same network. *)
let test_update_errors () =
  let base = [ flow 0 [ 0; 1 ]; flow 1 [ 1; 2 ] ] in
  let net = Network.make ~servers:(servers 3) ~flows:base in
  let make_error flows =
    match Network.make ~servers:(servers 3) ~flows with
    | _ -> Alcotest.fail "make accepted a bad flow list"
    | exception Invalid_argument msg -> msg
  in
  let add_error f =
    match Network.add_flow net f with
    | _ -> Alcotest.fail "add_flow accepted a bad flow"
    | exception Invalid_argument msg -> msg
  in
  let dup = flow 1 [ 0; 2 ] and stray = flow 2 [ 2; 7 ] in
  Alcotest.(check string)
    "duplicate id" (make_error (base @ [ dup ])) (add_error dup);
  Alcotest.(check string)
    "unknown server" (make_error (base @ [ stray ])) (add_error stray);
  check_views "failed adds leave the input unchanged"
    (views (Network.make ~servers:(servers 3) ~flows:base))
    (views net);
  check_bool "unknown id: same network" true (Network.remove_flow net 9 == net)

let test_dot_export () =
  let t = Tandem.make ~n:2 ~utilization:0.5 () in
  let dot = Dot.to_dot t.network in
  check_bool "has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  check_bool "mentions an edge" true
    (let rec contains i =
       i + 9 <= String.length dot
       && (String.sub dot i 9 = " 0 -> 1 [" || contains (i + 1))
     in
     contains 0)

let suite =
  ( "topology",
    [
      test "flow accessors" test_flow_accessors;
      test "flow validation" test_flow_validation;
      test "network basics" test_network_basics;
      test "cycle detection" test_network_cycle;
      test "network validation" test_network_validation;
      test "lookup errors are descriptive" test_lookup_errors;
      test "tandem structure (Fig. 3)" test_tandem_structure;
      test "tandem sources (Eq. 4)" test_tandem_sources;
      test "tandem validation" test_tandem_validation;
      test "random feedforward generator" test_randomnet;
      prop_randomnet_always_feedforward;
      test "add/remove flow = make on corpus walks" test_update_walks_corpus;
      test "add/remove flow = make on randomnet walks"
        test_update_walks_randomnet;
      test "add/remove flow errors" test_update_errors;
      test "dot export" test_dot_export;
    ] )
