(** Aliases of the {!Minplus} kernels, kept only for
    perfbench/kernel_probe.ml, which names these three. *)

val conv : Pwl.t -> Pwl.t -> Pwl.t
val deconv : Pwl.t -> Pwl.t -> Pwl.t
val conv_with_rate : rate:float -> Pwl.t -> Pwl.t
