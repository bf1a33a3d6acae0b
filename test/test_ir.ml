(* IR well-formedness, shape inference and the concrete interpreter
   against the training-time forward pass. *)

open Tensor

let test_validate_good () =
  let p = Helpers.tiny_program ~layers:2 1 in
  Helpers.check_true "valid program" (Result.is_ok (Ir.validate p))

let test_validate_bad_src () =
  let p : Ir.program = { input_dim = 4; ops = [| Ir.Relu 3 |] } in
  Helpers.check_true "future src rejected" (Result.is_error (Ir.validate p))

let test_validate_bad_shapes () =
  let w = Mat.create 3 2 in
  let p : Ir.program =
    { input_dim = 4; ops = [| Ir.Linear { src = 0; w; b = [| 0.0; 0.0 |] } |] }
  in
  Helpers.check_true "shape mismatch rejected" (Result.is_error (Ir.validate p))

let test_validate_bad_heads () =
  let d = 4 in
  let att : Ir.attention =
    {
      heads = 3;
      wq = Mat.create d d;
      bq = Array.make d 0.0;
      wk = Mat.create d d;
      bk = Array.make d 0.0;
      wv = Mat.create d d;
      bv = Array.make d 0.0;
      wo = Mat.create d d;
      bo = Array.make d 0.0;
    }
  in
  let p : Ir.program =
    { input_dim = d; ops = [| Ir.Self_attention { src = 0; att } |] }
  in
  Helpers.check_true "bad head count rejected" (Result.is_error (Ir.validate p))

let test_dims () =
  let p = Helpers.tiny_program ~layers:1 ~d_model:8 2 in
  Helpers.check_true "input dim" (Ir.out_dim p 0 = 8);
  Helpers.check_true "output dim" (Ir.out_dim p (Ir.output_id p) = 2)

let test_num_params_positive () =
  let p = Helpers.tiny_program 3 in
  Helpers.check_true "has parameters" (Ir.num_params p > 0)

let test_depth_of_kind () =
  let p = Helpers.tiny_program ~layers:3 4 in
  Helpers.check_true "3 attention layers" (Ir.depth_of_kind p "self_attention" = 3);
  Helpers.check_true "1 pool" (Ir.depth_of_kind p "pool_first" = 1)

(* The compiled IR agrees with the autodiff forward pass. *)
let test_ir_matches_training_forward () =
  List.iter
    (fun divide_std ->
      let m = Helpers.tiny_model ~layers:2 ~divide_std 6 in
      let p = Nn.Model.to_ir m in
      let tokens = [| 1; 5; 3; 2 |] in
      let tp = Nn.Autodiff.create () in
      let train_logits = Nn.Autodiff.value (Nn.Model.forward_tokens tp m tokens) in
      let ir_logits = Nn.Forward.run p (Nn.Model.embed_tokens m tokens) in
      Helpers.check_true
        (Printf.sprintf "ir = training forward (divide_std=%b)" divide_std)
        (Mat.equal ~tol:1e-9 train_logits ir_logits))
    [ false; true ]

let test_positional_op () =
  let rng = Rng.create 8 in
  let pos = Mat.random_gaussian rng 6 4 1.0 in
  let p : Ir.program =
    { input_dim = 4; ops = [| Ir.Positional { src = 0; pos } |] }
  in
  Ir.validate_exn p;
  let x = Mat.random_gaussian rng 3 4 1.0 in
  let y = Nn.Forward.run p x in
  Helpers.check_float "positional adds rows" (Mat.get x 2 1 +. Mat.get pos 2 1)
    (Mat.get y 2 1)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let p = Helpers.tiny_program 9 in
  let s = Format.asprintf "%a" Ir.pp p in
  Helpers.check_true "pp mentions attention" (contains_substring s "self_attention")

let () =
  Alcotest.run "ir"
    [
      ( "validate",
        [
          Alcotest.test_case "good" `Quick test_validate_good;
          Alcotest.test_case "bad src" `Quick test_validate_bad_src;
          Alcotest.test_case "bad shapes" `Quick test_validate_bad_shapes;
          Alcotest.test_case "bad heads" `Quick test_validate_bad_heads;
          Alcotest.test_case "dims" `Quick test_dims;
          Alcotest.test_case "num params" `Quick test_num_params_positive;
          Alcotest.test_case "depth of kind" `Quick test_depth_of_kind;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "ir = training forward" `Quick
            test_ir_matches_training_forward;
          Alcotest.test_case "positional" `Quick test_positional_op;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
        ] );
    ]
