(* Kept only for perfbench/kernel_probe.ml, which names these three;
   everything else calls [Minplus] directly. *)
let conv = Minplus.conv
let deconv = Minplus.deconv
let conv_with_rate = Minplus.conv_with_rate
