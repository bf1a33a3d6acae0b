(* Shared test utilities: sampling-based soundness checks and tiny model
   builders used across the suites. *)

open Tensor
module Lp = Deept.Lp
module Zonotope = Deept.Zonotope

let rng_of seed = Rng.create seed

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_true msg b = Alcotest.(check bool) msg true b

(* A random multi-norm zonotope for property tests. *)
let random_zonotope ?(p = Lp.L2) ?(vrows = 2) ?(vcols = 3) ?(ep = 2) ?(ee = 3)
    ?(scale = 1.0) rng =
  let nv = vrows * vcols in
  Zonotope.make ~p
    ~center:(Mat.random_gaussian rng vrows vcols scale)
    ~phi:(Mat.random_gaussian rng nv ep (0.3 *. scale))
    ~eps:(Mat.random_gaussian rng nv ee (0.3 *. scale))

(* Soundness of an abstract transformer by sampling: for shared noise
   instantiations, the concrete function of the instantiated input must be
   covered by the output's affine part plus the slack of symbols the
   transformer created (all columns beyond the input's ε width). *)
let check_transformer_sound ?(samples = 100) ?(tol = 1e-6) ~name rng z_in z_out
    (f : Mat.t -> Mat.t) =
  let ee_in = Zonotope.num_eps z_in in
  for s = 1 to samples do
    let phi = Lp.unit_ball_sample rng z_in.Zonotope.p (Zonotope.num_phi z_in) in
    let eps = Array.init ee_in (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let x = Zonotope.instantiate z_in ~phi ~eps in
    let y_true = f x in
    let lin = Zonotope.instantiate z_out ~phi ~eps in
    let w = Zonotope.num_eps z_out in
    for v = 0 to Zonotope.num_vars z_out - 1 do
      let slack = ref 0.0 in
      for j = ee_in to w - 1 do
        slack := !slack +. Float.abs z_out.Zonotope.eps.Mat.data.((v * w) + j)
      done;
      let gap = Float.abs (y_true.Mat.data.(v) -. lin.Mat.data.(v)) in
      if gap > !slack +. tol then
        Alcotest.failf
          "%s: sample %d variable %d not covered: |%.9g - %.9g| = %.3e > slack %.3e"
          name s v y_true.Mat.data.(v) lin.Mat.data.(v) gap !slack
    done
  done

(* Weaker end-to-end check: concrete results of sampled inputs lie within the
   output zonotope's interval bounds. *)
let check_propagation_sound ?(samples = 50) ?(tol = 1e-6) ~name rng z_in z_out
    (f : Mat.t -> Mat.t) =
  let b = Zonotope.bounds z_out in
  for s = 1 to samples do
    let x = Zonotope.sample rng z_in in
    let y = f x in
    for v = 0 to Zonotope.num_vars z_out - 1 do
      let lo = b.Interval.Imat.lo.Mat.data.(v) and hi = b.Interval.Imat.hi.Mat.data.(v) in
      let yv = y.Mat.data.(v) in
      if yv < lo -. tol || yv > hi +. tol then
        Alcotest.failf "%s: sample %d var %d: %.9g outside [%.9g, %.9g]" name s v
          yv lo hi
    done
  done

(* Small trained-ish sentiment model (random weights are fine for soundness
   tests; training-dependent tests build their own). *)
let tiny_model ?(layers = 1) ?(divide_std = false) ?(d_model = 8) ?(heads = 2)
    ?(d_hidden = 8) seed =
  let rng = rng_of seed in
  let cfg =
    {
      Nn.Model.default_config with
      vocab_size = 16;
      max_len = 6;
      d_model;
      d_hidden;
      heads;
      layers;
      divide_std;
    }
  in
  Nn.Model.create rng cfg

let tiny_program ?layers ?divide_std ?d_model ?heads ?d_hidden seed =
  Nn.Model.to_ir (tiny_model ?layers ?divide_std ?d_model ?heads ?d_hidden seed)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Block until [pid] has exited: its /proc/<pid>/stat reads state Z
   (dead, not yet reaped) or is gone (reaped). A SIGKILL is delivered
   asynchronously, so a test that needs the process dead before its
   next step waits here. *)
let wait_dead ?(timeout_s = 10.0) pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  let state () =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        (* the state letter follows the parenthesised command name *)
        (match String.rindex_opt line ')' with
        | Some i when i + 2 < String.length line -> Some line.[i + 2]
        | _ -> None)
  in
  let stop = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match state () with
    | None | Some 'Z' -> ()
    | Some _ when Unix.gettimeofday () > stop ->
        Alcotest.failf "process %d still alive after %.0fs" pid timeout_s
    | Some _ ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()
