(** Partitioning a feedforward network into subnetworks of at most two
    servers (Algorithm Integrated, Steps 1-2 of paper Fig. 2).

    A pair [(u, v)] is admissible when some flow traverses [u] then [v]
    consecutively and contracting the pair keeps the subnetwork graph
    acyclic (otherwise the topological traversal of Step 2 would be
    impossible — this happens exactly when an alternative path
    [u ~> v] exists through other servers). *)

type subnet = Single of int | Pair of int * int

type t = subnet list
(** Covers every server exactly once, listed in a valid topological
    order of the contracted graph. *)

type strategy =
  | Along_route of int
      (** Pair consecutive servers of the given flow's route (the
          paper's choice: conn0's route in the tandem); remaining
          servers become singletons. *)
  | Greedy
      (** Scan servers in topological order and pair each unpaired
          server with the unpaired direct successor sharing the most
          transit flows (ties to the lower id), when admissible: with
          the contracted graph acyclic so far, contracting [a -> b]
          closes a cycle exactly when [b] is reachable from another
          successor of [a].  One traversal of the contracted graph per
          scanned server decides all of its candidates, so the cost is
          O(V (V + E)) at worst. *)
  | Singletons
      (** No pairing: Algorithm Integrated degenerates to Algorithm
          Decomposed (the ablation baseline). *)

val build : Network.t -> strategy -> t
(** @raise Network.Cyclic on non-feedforward input.
    @raise Invalid_argument when [Along_route] names an unknown flow. *)

val order_subnets : Network.t -> subnet list -> t
(** Topologically order a cover of the servers over the contracted
    graph, ties broken by list position.
    @raise Network.Cyclic when the contraction has a cycle.
    @raise Invalid_argument on a bad cover. *)

val validate : Network.t -> t -> unit
(** Check cover, pair admissibility and topological order of an
    externally supplied pairing.  @raise Invalid_argument on
    violation. *)

val servers_of : subnet -> int list
val pp : Format.formatter -> t -> unit
