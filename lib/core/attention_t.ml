open Tensor

let apply ~(cfg : Config.t) ~precise ctx (att : Ir.attention) x =
  let adk = Mat.cols att.wq and adv = Mat.cols att.wv in
  let dk = adk / att.heads and dv = adv / att.heads in
  let q = Zonotope.linear_map x att.wq att.bq in
  let k = Zonotope.linear_map x att.wk att.bk in
  let v = Zonotope.linear_map x att.wv att.bv in
  let scale = 1.0 /. sqrt (float_of_int dk) in
  let order = cfg.Config.order in
  let heads =
    List.init att.heads (fun h ->
        let qh = Zonotope.select_value_cols q (h * dk) dk in
        let kh = Zonotope.select_value_cols k (h * dk) dk in
        let vh = Zonotope.select_value_cols v (h * dv) dv in
        let scores =
          Zonotope.scale scale
            (Dot.matmul_zz ~precise ~order ctx qh (Zonotope.transpose_value kh))
        in
        let p =
          Softmax_t.apply ~form:cfg.Config.softmax
            ~refine:cfg.Config.refine_softmax_sum ctx scores
        in
        Dot.matmul_zz ~precise ~order ctx p vh)
  in
  if heads = [] then invalid_arg "Attention_t.apply: no heads";
  Zonotope.linear_map (Zonotope.hcat_values heads) att.wo att.bo
