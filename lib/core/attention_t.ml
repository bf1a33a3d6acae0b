open Tensor

let apply ~(cfg : Config.t) ~precise ctx (att : Ir.attention) x =
  let dk = Mat.cols att.wq / att.heads in
  let qs, ks, vs =
    match
      Zonotope.linear_split x
        [ (att.wq, att.bq); (att.wk, att.bk); (att.wv, att.bv) ]
        ~parts:att.heads
    with
    | [ qs; ks; vs ] -> (qs, ks, vs)
    | _ -> assert false
  in
  let scale = 1.0 /. sqrt (float_of_int dk) in
  let order = cfg.Config.order in
  let heads =
    List.init att.heads (fun h ->
        let scores =
          Zonotope.scale scale
            (Dot.matmul_zz ~precise ~order ctx qs.(h) (Zonotope.transpose_value ks.(h)))
        in
        let p =
          Softmax_t.apply ~form:cfg.Config.softmax
            ~refine:cfg.Config.refine_softmax_sum ctx scores
        in
        Dot.matmul_zz ~precise ~order ctx p vs.(h))
  in
  if heads = [] then invalid_arg "Attention_t.apply: no heads";
  Zonotope.linear_join heads att.wo att.bo
