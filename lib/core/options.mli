(** Options shared by the analysis engines. *)

type t = {
  link_cap : bool;
      (** When true, the aggregate of flows arriving at a server from
          the same upstream server is additionally capped by that
          upstream link's rate ([C * I] over any window) — the
          sharpening ablation of DESIGN.md §3.3.  Off by default: the
          classic algorithms of the paper do not use it. *)
  sp_blocking : float;
      (** Non-preemption blocking term for static-priority servers:
          the size of the largest lower-priority packet that can be in
          service when an urgent packet arrives.  [0.] (default)
          models the fluid preemptive server; set it to the packet
          size when validating against the packetized simulator. *)
  compact_eps : float;
      (** When [> 0.], intermediate traffic envelopes are pruned with
          {!Pwl.compact} (direction [`Up]) to at most
          [compact_max_segs] segments, moving them only upward by at
          most [compact_eps] where the budget allows.  Bounds stay
          valid — they can only loosen, by an amount governed by the
          eps (see DESIGN.md "Curve compaction").  [0.] (default)
          disables compaction and keeps every result exact. *)
  compact_max_segs : int;
      (** Segment budget used when [compact_eps > 0.]; ignored
          otherwise. *)
}

val default : t
(** [{ link_cap = false; sp_blocking = 0.; compact_eps = 0.;
      compact_max_segs = 64 }] *)

val sharpened : t
(** [default] with [link_cap = true]. *)

val with_blocking : float -> t -> t

val with_compaction : ?max_segs:int -> float -> t -> t
(** [with_compaction ?max_segs eps t] enables envelope compaction
    ([max_segs] defaults to 64).  [with_compaction 0. t] disables it.
    @raise Invalid_argument on [eps < 0.] or [max_segs < 2]. *)

val compact_envelope : t -> Pwl.t -> Pwl.t
(** Apply the compaction knob to a traffic envelope: identity when
    [compact_eps <= 0.], otherwise [Pwl.compact ~dir:`Up].  The result
    is pointwise [>=] the input, so downstream delay bounds remain
    valid upper bounds. *)
