(* The shared interpreter loop (Interp) across its four domains:
   cross-engine soundness sandwich (concrete ⊆ zonotope ⊆ interval),
   bit-exactness pins against pre-refactor baselines on a zoo model,
   typed budget aborts for the interval and linear-relaxation engines,
   the ladder's interval rung running through the shared loop, NaN/Inf
   weight rejection at load, and the trace/profile stream. *)

open Tensor
module Lp = Deept.Lp
module Zonotope = Deept.Zonotope

let check_bits msg (a : float array) (b : float array) =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d <> %d" msg (Array.length a) (Array.length b);
  Array.iteri
    (fun i ai ->
      if Int64.bits_of_float ai <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: index %d: %h <> %h" msg i ai b.(i))
    a

let check_zonotope_bits msg (za : Zonotope.t) (zb : Zonotope.t) =
  check_bits (msg ^ " center") za.Zonotope.center.Mat.data zb.Zonotope.center.Mat.data;
  check_bits (msg ^ " phi") za.Zonotope.phi.Mat.data zb.Zonotope.phi.Mat.data;
  check_bits (msg ^ " eps") za.Zonotope.eps.Mat.data zb.Zonotope.eps.Mat.data

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- soundness sandwich ---------------------------------------------- *)

(* concrete ⊆ zonotope ⊆ interval, under --domains 1 and 4 (which must
   themselves be bit-identical: sharding is an implementation detail). *)
let test_soundness_sandwich () =
  List.iter
    (fun (seed, layers, pn) ->
      let p = Helpers.tiny_program ~layers seed in
      let rng = Rng.create (seed + 1) in
      let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
      let region = Deept.Region.lp_ball ~p:pn x ~word:1 ~radius:0.04 in
      let z1 = Deept.Propagate.run (Deept.Config.with_domains 1 Deept.Config.fast) p region in
      let z4 = Deept.Propagate.run (Deept.Config.with_domains 4 Deept.Config.fast) p region in
      check_zonotope_bits (Printf.sprintf "seed %d domains 1 = 4" seed) z1 z4;
      let zb = Zonotope.bounds z1 in
      let ib = Interval.Ibp.run p (Zonotope.bounds region) in
      let nv = Zonotope.num_vars z1 in
      for v = 0 to nv - 1 do
        let zlo = zb.Interval.Imat.lo.Mat.data.(v)
        and zhi = zb.Interval.Imat.hi.Mat.data.(v) in
        let ilo = ib.Interval.Imat.lo.Mat.data.(v)
        and ihi = ib.Interval.Imat.hi.Mat.data.(v) in
        if zlo < ilo -. 1e-9 || zhi > ihi +. 1e-9 then
          Alcotest.failf
            "seed %d var %d: zonotope [%.9g, %.9g] outside interval [%.9g, %.9g]"
            seed v zlo zhi ilo ihi
      done;
      for s = 1 to 40 do
        let y = Nn.Forward.run p (Zonotope.sample rng region) in
        for v = 0 to nv - 1 do
          let lo = zb.Interval.Imat.lo.Mat.data.(v)
          and hi = zb.Interval.Imat.hi.Mat.data.(v) in
          if y.Mat.data.(v) < lo -. 1e-6 || y.Mat.data.(v) > hi +. 1e-6 then
            Alcotest.failf "seed %d sample %d var %d: %.9g outside [%.9g, %.9g]"
              seed s v y.Mat.data.(v) lo hi
        done
      done)
    [ (61, 1, Lp.L2); (62, 2, Lp.Linf); (63, 1, Lp.L1) ]

(* --- bit-exactness pins ---------------------------------------------- *)

(* Pre-refactor certified radii and ladder outcomes on the committed
   small_3 zoo model (captured from the seed commit's CLI). Exact dyadic
   rationals from the binary search — compared with tolerance 0. *)
let test_pinned_small3 () =
  if not (Sys.file_exists "../data/small_3.model") then ()
  else begin
    Zoo.data_dir := "../data";
    let entry = Zoo.entry "small_3" in
    let model = Zoo.load_or_train ~log:(fun _ -> ()) "small_3" in
    let c = Zoo.corpus_of entry.Zoo.corpus in
    let program = Nn.Model.to_ir model in
    let input i =
      let toks, label = List.nth c.Text.Corpus.test i in
      (Nn.Model.embed_tokens model toks, label)
    in
    let radius_deept cfg i pn =
      let x, label = input i in
      Deept.Certify.certified_radius cfg program ~p:pn x ~word:1
        ~true_class:label ()
    in
    Helpers.check_float ~tol:0.0 "deept-fast idx0 l2" 0.181640625
      (radius_deept Deept.Config.fast 0 Lp.L2);
    Helpers.check_float ~tol:0.0 "deept-precise idx0 l2" 0.17578125
      (radius_deept Deept.Config.precise 0 Lp.L2);
    Helpers.check_float ~tol:0.0 "deept-fast idx1 linf" 0.044921875
      (radius_deept Deept.Config.fast 1 Lp.Linf);
    let radius_crown v =
      let x, label = input 0 in
      Linrelax.Verify.certified_radius ~verifier:v program ~p:Lp.L2 x ~word:1
        ~true_class:label ()
    in
    Helpers.check_float ~tol:0.0 "crown-baf idx0 l2" 0.1630859375
      (radius_crown Linrelax.Verify.Baf);
    Helpers.check_float ~tol:0.0 "crown-backward idx0 l2" 0.203125
      (radius_crown Linrelax.Verify.Backward);
    let x0, label0 = input 0 in
    let o =
      Deept.Engine.certify Deept.Config.fast program
        (Deept.Region.lp_ball ~p:Lp.L2 x0 ~word:1 ~radius:0.05)
        ~true_class:label0
    in
    Helpers.check_true "idx0 certified"
      (Deept.Verdict.equal o.Deept.Engine.verdict Deept.Verdict.Certified);
    Alcotest.(check string) "idx0 rung" "fast" o.Deept.Engine.rung_name;
    let x1, label1 = input 1 in
    let o =
      Deept.Engine.certify Deept.Config.fast program
        (Deept.Region.lp_ball ~p:Lp.Linf x1 ~word:1 ~radius:0.05)
        ~true_class:label1
    in
    Helpers.check_true "idx1 imprecise"
      (Deept.Verdict.equal o.Deept.Engine.verdict
         (Deept.Verdict.Unknown Deept.Verdict.Imprecise));
    Alcotest.(check string) "idx1 rung" "fast" o.Deept.Engine.rung_name
  end

(* --- typed aborts: interval ------------------------------------------ *)

let interval_checks ?deadline ?max_size () =
  {
    Interp.no_checks with
    Interp.deadline;
    max_size;
    abort = Deept.Propagate.abort_of;
  }

let test_interval_deadline_abort () =
  let p = Helpers.tiny_program ~layers:1 64 in
  let rng = Rng.create 65 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let im = Interval.Imat.of_ball_linf x 0.01 in
  let checks = interval_checks ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match Interval.Ibp.run ~checks p im with
  | _ -> Alcotest.fail "expected Verdict.Abort Timeout"
  | exception Deept.Verdict.Abort Deept.Verdict.Timeout -> ()

let test_interval_budget_abort () =
  let p = Helpers.tiny_program ~layers:1 64 in
  let rng = Rng.create 65 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let im = Interval.Imat.of_ball_linf x 0.01 in
  let checks = interval_checks ~max_size:0 () in
  (match Interval.Ibp.margin ~checks p im ~true_class:0 with
  | _ -> Alcotest.fail "expected Verdict.Abort Symbol_budget"
  | exception Deept.Verdict.Abort Deept.Verdict.Symbol_budget -> ());
  (* an unarmed run on the same program completes *)
  ignore (Interval.Ibp.run p im)

(* --- typed aborts: linear relaxation --------------------------------- *)

let test_linrelax_budget_aborts () =
  let p = Helpers.tiny_program ~layers:1 66 in
  let rng = Rng.create 67 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let c = Linrelax.Verify.compile p ~seq_len:3 in
  let region = Linrelax.Verify.region_word_ball ~p:Lp.L2 x ~word:0 ~radius:0.01 in
  let budget time_limit_s max_eps = { Deept.Config.time_limit_s; max_eps } in
  (match
     Linrelax.Verify.margin ~verifier:Linrelax.Verify.Backward
       ~budget:(budget (Some 0.0) None) c region ~true_class:0
   with
  | _ -> Alcotest.fail "expected Verdict.Abort Timeout"
  | exception Deept.Verdict.Abort Deept.Verdict.Timeout -> ());
  (match
     Linrelax.Verify.margin ~verifier:Linrelax.Verify.Backward
       ~budget:(budget None (Some 0)) c region ~true_class:0
   with
  | _ -> Alcotest.fail "expected Verdict.Abort Symbol_budget"
  | exception Deept.Verdict.Abort Deept.Verdict.Symbol_budget -> ());
  (* a compiled value survives an aborted probe: the unarmed run answers *)
  let m =
    Linrelax.Verify.margin ~verifier:Linrelax.Verify.Backward c region
      ~true_class:0
  in
  Helpers.check_true "finite margin after aborts" (Float.is_finite m)

(* --- the ladder's interval rung -------------------------------------- *)

(* With an already-expired deadline every rung of the default walk must
   abort cooperatively and record a typed timeout, down to the Box rung
   inside the shared loop: rung "interval" ends the walk with a timeout,
   not a hang, not a stale margin. *)
let test_ladder_interval_rung_timeout () =
  let p = Helpers.tiny_program ~layers:1 68 in
  let rng = Rng.create 69 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.01 in
  let cfg = Deept.Config.with_budget ~deadline:0.0 Deept.Config.fast in
  let o = Deept.Engine.certify ~falsify_samples:0 cfg p region ~true_class:0 in
  let timeout = Deept.Verdict.Unknown Deept.Verdict.Timeout in
  Helpers.check_true "interval rung timeout"
    (Deept.Verdict.equal o.Deept.Engine.verdict timeout);
  Alcotest.(check string) "rung name" "interval" o.Deept.Engine.rung_name;
  Helpers.check_true "every attempt timed out"
    (List.for_all
       (fun (a : Deept.Engine.attempt) ->
         Deept.Verdict.equal a.Deept.Engine.verdict timeout)
       o.Deept.Engine.attempts)

(* --- non-finite weights rejected at load ------------------------------ *)

let poke_first_linear p v =
  let n = Array.length p.Ir.ops in
  let rec go i =
    if i >= n then Alcotest.fail "no linear op found"
    else
      match p.Ir.ops.(i) with
      | Ir.Linear { w; _ } ->
          w.Mat.data.(1) <- v;
          i
      | _ -> go (i + 1)
  in
  go 0

let test_validate_rejects_nonfinite () =
  let p = Helpers.tiny_program ~layers:1 73 in
  (match Ir.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean model rejected: %s" e);
  let op = poke_first_linear p Float.nan in
  (match Ir.validate p with
  | Ok () -> Alcotest.fail "NaN weight accepted"
  | Error msg ->
      Helpers.check_true
        (Printf.sprintf "message names the op (%s)" msg)
        (contains ~sub:(Printf.sprintf "op %d" op) msg && contains ~sub:"nan" msg));
  (* a model file saves without validating; loading it must reject the
     NaN weight and name its op (Model.to_ir validates) *)
  let m = Helpers.tiny_model ~layers:1 73 in
  (List.assoc "layer0.fw1" (Nn.Model.parameters m)).Mat.data.(1) <- Float.nan;
  let path = Filename.temp_file "deept_nanweight" ".model" in
  Nn.Model.save path m;
  (match Nn.Model.to_ir (Nn.Model.load path) with
  | _ -> Alcotest.fail "load accepted a NaN weight"
  | exception Invalid_argument msg ->
      Helpers.check_true
        (Printf.sprintf "load error names the weight's op (%s)" msg)
        (contains ~sub:(Printf.sprintf "op %d" op) msg && contains ~sub:"nan" msg));
  Sys.remove path;
  ignore (poke_first_linear p Float.infinity);
  match Ir.validate p with
  | Ok () -> Alcotest.fail "Inf weight accepted"
  | Error msg -> Helpers.check_true "inf reported" (contains ~sub:"inf" msg)

(* --- trace stream and profiling --------------------------------------- *)

let test_trace_stream () =
  let p = Helpers.tiny_program ~layers:1 74 in
  let rng = Rng.create 75 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.01 in
  let events = ref [] in
  let cfg =
    Deept.Config.with_trace (Some (fun e -> events := e :: !events))
      Deept.Config.fast
  in
  ignore (Deept.Propagate.run cfg p region);
  let evs = Array.of_list (List.rev !events) in
  Alcotest.(check int) "one event per op" (Array.length p.Ir.ops)
    (Array.length evs);
  Array.iteri
    (fun i (e : Interp.event) ->
      Alcotest.(check int) "op index" i e.Interp.op_index;
      Alcotest.(check string) "kind" (Ir.kind_name p.Ir.ops.(i)) e.Interp.kind;
      Helpers.check_true "wall >= 0" (e.Interp.wall_s >= 0.0);
      Helpers.check_true "size > 0" (e.Interp.size > 0);
      Helpers.check_true "finite width" (Float.is_finite e.Interp.width);
      Helpers.check_true "density in (0, 1]"
        (e.Interp.density > 0.0 && e.Interp.density <= 1.0))
    evs

let test_profile_collector () =
  let p = Helpers.tiny_program ~layers:1 76 in
  let rng = Rng.create 77 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim p 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.01 in
  let prof = Deept.Profile.create () in
  let cfg =
    Deept.Config.with_trace (Some (Deept.Profile.sink prof)) Deept.Config.fast
  in
  ignore (Deept.Propagate.run cfg p region);
  ignore (Deept.Propagate.run cfg p region);
  let rows = Deept.Profile.rows prof in
  Alcotest.(check int) "one row per op" (Array.length p.Ir.ops)
    (List.length rows);
  List.iteri
    (fun i (r : Deept.Profile.row) ->
      Alcotest.(check int) "row op" i r.Deept.Profile.op_index;
      Alcotest.(check int) "two calls" 2 r.Deept.Profile.calls;
      Helpers.check_true "wall >= 0" (r.Deept.Profile.wall_s >= 0.0);
      Helpers.check_true "density in (0, 1]"
        (r.Deept.Profile.density > 0.0 && r.Deept.Profile.density <= 1.0))
    rows;
  Helpers.check_true "total wall = sum of rows"
    (Float.abs
       (Deept.Profile.total_wall prof
       -. List.fold_left (fun a r -> a +. r.Deept.Profile.wall_s) 0.0 rows)
    < 1e-9);
  let kinds = Deept.Profile.by_kind prof in
  Helpers.check_true "attention kind present"
    (List.mem_assoc "self_attention" kinds);
  let json = Deept.Profile.to_json ~model:"tiny" prof in
  List.iter
    (fun sub -> Helpers.check_true ("json has " ^ sub) (contains ~sub json))
    [
      "\"model\": \"tiny\"";
      "\"total_wall_s\"";
      "\"ops\"";
      "\"kinds\"";
      "\"density\":";
    ]

let () =
  Alcotest.run "interp"
    [
      ( "sandwich",
        [
          Alcotest.test_case "concrete ⊆ zonotope ⊆ interval" `Slow
            test_soundness_sandwich;
        ] );
      ( "pins",
        [ Alcotest.test_case "small_3 baselines" `Slow test_pinned_small3 ] );
      ( "aborts",
        [
          Alcotest.test_case "interval deadline" `Quick
            test_interval_deadline_abort;
          Alcotest.test_case "interval size budget" `Quick
            test_interval_budget_abort;
          Alcotest.test_case "linrelax budget" `Quick
            test_linrelax_budget_aborts;
          Alcotest.test_case "ladder interval rung" `Quick
            test_ladder_interval_rung_timeout;
        ] );
      ( "weights",
        [
          Alcotest.test_case "non-finite rejected" `Quick
            test_validate_rejects_nonfinite;
        ] );
      ( "trace",
        [
          Alcotest.test_case "event stream" `Quick test_trace_stream;
          Alcotest.test_case "profile collector" `Quick test_profile_collector;
        ] );
    ]
