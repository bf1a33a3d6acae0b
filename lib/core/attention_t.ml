open Tensor

(* Every head runs in its own symbol space: the counter is rewound to its
   value [w0] at the op's entry, so the head's transformers pad their
   operands to [w0] plus its own symbols only, never to the symbols the
   heads before it minted. The heads share no symbol past [w0] (they meet
   only in the output projection), so a head's m symbols, minted at
   [w0, w0 + m), take their place behind the earlier heads' in the
   output projection ([Zonotope.linear_join ~own:w0]), which gives every
   symbol the id one counter shared by all heads gave it. The columns a
   head no longer carries are the +0.0 every sum skips, so every bit is
   the same (DESIGN.md §19). *)

(* Behind [minted] symbols of earlier heads, the products padded a head
   operand to them, and the pad turned a full occupancy into a band over
   the operand's own columns ([Zonotope.padded_occ]). Own space pads
   nothing, so the operand gets that band here, and the head's bands stay
   the ones the shared counter gave. *)
let as_padded ~w z =
  Zonotope.with_eps_occ
    (Zonotope.padded_occ z.Zonotope.eps_occ ~n:(Zonotope.num_vars z)
       ~cur:(Zonotope.num_eps z) ~w)
    z

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
  let w0 = Zonotope.ctx_symbols ctx in
  let minted, heads =
    List.fold_left_map
      (fun minted h ->
        Zonotope.reset_symbols ctx w0;
        let own = as_padded ~w:(w0 + minted) in
        let scores =
          Zonotope.scale_fresh scale
            (Dot.matmul_zz ~precise ~order ctx (own qs.(h))
               (Zonotope.transpose_value (own ks.(h))))
        in
        let p =
          Softmax_t.apply ~form:cfg.Config.softmax
            ~refine:cfg.Config.refine_softmax_sum ctx scores
        in
        let out = Dot.matmul_zz ~precise ~order ctx p (own vs.(h)) in
        (minted + Zonotope.ctx_symbols ctx - w0, out))
      0 (List.init att.heads Fun.id)
  in
  if heads = [] then invalid_arg "Attention_t.apply: no heads";
  Zonotope.reset_symbols ctx (w0 + minted);
  Zonotope.linear_join ~own:w0 heads att.wo att.bo
