(* Differential tests pinning the greedy pairing (Pairing.build Greedy)
   to the original implementation kept in Greedy_oracle: the pairing
   list — subnets and their order — must be equal on every network. *)

open Testutil

let subnets = Alcotest.testable Pairing.pp ( = )

let same_as_oracle what net =
  Alcotest.(check subnets)
    what (Greedy_oracle.greedy net)
    (Pairing.build net Pairing.Greedy)

let corpus_nets () =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun target_servers ->
          List.init 6 (fun seed ->
              ( Printf.sprintf "%s n=%d seed=%d" (Corpus.to_string family)
                  target_servers seed,
                Corpus.generate ~family ~target_servers ~seed )))
        [ 16; 40; 100; 256 ])
    Corpus.all

(* Seeds sweep the shape too, so that some draws are deep and crowded
   enough for contraction cycles to refuse the best candidate. *)
let randomnet seed =
  Randomnet.generate
    {
      Randomnet.default with
      layers = 2 + (seed mod 5);
      per_layer = 1 + (seed mod 4);
      num_flows = 4 + (3 * (seed mod 7));
      seed;
    }

let test_corpus_differential () =
  List.iter (fun (what, net) -> same_as_oracle what net) (corpus_nets ())

let test_randomnet_differential () =
  for seed = 0 to 40 do
    same_as_oracle (Printf.sprintf "randomnet seed=%d" seed) (randomnet seed)
  done

let test_diamond () =
  (* 0 -> 1 directly and 0 -> 2 -> 1: the direct edge carries the most
     transit, but contracting (0, 1) would close a cycle through 2, so
     the greedy must fall back to (0, 2). *)
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.05 () in
  let net =
    Network.make
      ~servers:(List.init 3 (fun id -> Server.make ~id ~rate:1. ()))
      ~flows:
        [
          Flow.make ~id:0 ~arrival ~route:[ 0; 1 ] ();
          Flow.make ~id:1 ~arrival ~route:[ 0; 1 ] ();
          Flow.make ~id:2 ~arrival ~route:[ 0; 1 ] ();
          Flow.make ~id:3 ~arrival ~route:[ 0; 2; 1 ] ();
        ]
  in
  let p = Pairing.build net Pairing.Greedy in
  check_bool "(0, 1) refused" false (List.mem (Pairing.Pair (0, 1)) p);
  Alcotest.(check subnets)
    "fallback pair" [ Pairing.Pair (0, 2); Pairing.Single 1 ] p;
  same_as_oracle "diamond" net

let test_build_idempotent () =
  let nets =
    List.filter (fun (_, net) -> Network.size net <= 100) (corpus_nets ())
    @ List.init 41 (fun seed ->
          (Printf.sprintf "randomnet seed=%d" seed, randomnet seed))
  in
  List.iter
    (fun (what, net) ->
      let p = Pairing.build net Pairing.Greedy in
      Alcotest.(check subnets) what p (Pairing.order_subnets net p))
    nets

let suite =
  ( "pairing",
    [
      test "greedy = oracle on the corpus" test_corpus_differential;
      test "greedy = oracle on randomnet" test_randomnet_differential;
      test "greedy refuses a diamond's direct pair" test_diamond;
      test "build is a fixpoint of order_subnets" test_build_idempotent;
    ] )
