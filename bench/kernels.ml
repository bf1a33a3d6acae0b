(* Reproducible benchmark of the zonotope matmul kernels: the seed serial
   kernel vs the register-blocked kernel, plus the column-restricted
   (tile-skipping) kernel on sparse operands.

     dune exec bench/kernels.exe --             # table on stdout
     dune exec bench/kernels.exe -- --json      # + writes BENCH_kernels.json

   The shapes below were recorded from a real propagation
   (`certify t1 --model sst_3`, seq len 9, d_model 24, 3 layers) by
   tracing every Mat product:

   - coefficient-block products w^T (24 x 24) x (24 x E) dominate the
     run; the symbol count E grows from 24 (embedding phi block) through
     ~344 and ~1344 (mid layers) to ~3800 (last layer, before
     reduction);
   - the softmax_rows shape, 81 x 9 by 9 x E: a 9-token softmax
     difference map as a product with the n^2 x n +-1 matrix. The
     stable softmax computes those entries on the fly instead; the row
     stays as a generic product with a short inner dimension;
   - value centers are tiny 9 x 24 by 24 x 24 products, kept as a
     small-product control.

   The sparse rows measure what column-block liveness buys on the
   late-pipeline shapes where decorrelation and branch compaction leave
   most symbol columns dead: the blocked dense kernel over the full
   width vs the same product restricted to the live intervals
   (bit-identical by the occupancy invariant, checked before timing).

   The one-pass rows time what [Zonotope.linear_map] and the fused
   post-LN residual pair run on the same recorded shape, each against
   the path it replaced (see [measure_linear] and [measure_add_center]).

   The bookkeeping rows time two non-arithmetic steps of a propagation
   on inputs recorded from real searches (bench/fixtures, read from
   --data DIR): every row query of an ε occupancy, and the breakpoint
   sort of the softmax-sum refinement (see [measure_row_table] and
   [measure_breakpoint_sort]).

   When a previous BENCH_kernels.json exists it is rotated to
   BENCH_kernels.prev.json so `check_regress.exe` can compare runs. *)

open Tensor

type shape = {
  label : string;
  ta : bool;  (* the gemm ~ta:true coefficient-block orientation *)
  m : int;    (* a is m x k (or k x m when ta), b is k x n *)
  k : int;
  n : int;
}

let shapes =
  [
    { label = "coeff_ta_24x24_e24"; ta = true; m = 24; k = 24; n = 24 };
    { label = "coeff_ta_24x24_e344"; ta = true; m = 24; k = 24; n = 344 };
    { label = "coeff_ta_24x24_e1344"; ta = true; m = 24; k = 24; n = 1344 };
    { label = "coeff_ta_24x24_e3800"; ta = true; m = 24; k = 24; n = 3800 };
    { label = "softmax_rows_81x9_e1344"; ta = false; m = 81; k = 9; n = 1344 };
    { label = "center_9x24x24"; ta = false; m = 9; k = 24; n = 24 };
  ]

(* Shared CI machines throttle unpredictably, and a slow epoch that hits
   one kernel's contiguous measurement window would make the speedup
   ratios meaningless. So the kernels are timed {e interleaved}: each
   round measures every kernel once (with repetitions calibrated to a
   >= 20 ms window), and each kernel keeps its minimum across rounds —
   if the machine is fast during any round, every kernel gets a fair
   fast sample. *)
let rounds = 7

let calibrate f =
  ignore (Sys.opaque_identity (f ()));
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.02 && reps < 1 lsl 20 then go (reps * 4) else reps
  in
  go 1

(* [time_interleaved fs] returns the per-kernel best ns/call. *)
let time_interleaved fs =
  let fs = Array.of_list fs in
  let reps = Array.map calibrate fs in
  let best = Array.map (fun _ -> infinity) fs in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps.(i) do
          ignore (Sys.opaque_identity (f ()))
        done;
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  Array.to_list (Array.mapi (fun i b -> b /. float_of_int reps.(i) *. 1e9) best)

type row = {
  shape : shape;
  serial_ns : float;   (* the seed kernel: matmul_naive (+ transpose for ta) *)
  blocked_ns : float;
}

let measure (s : shape) =
  let rng = Rng.create 0x5eed in
  let a =
    if s.ta then Mat.random_uniform rng s.k s.m 1.0
    else Mat.random_uniform rng s.m s.k 1.0
  in
  let b = Mat.random_uniform rng s.k s.n 1.0 in
  let serial () =
    if s.ta then Mat.matmul_naive (Mat.transpose a) b else Mat.matmul_naive a b
  in
  let blocked () = if s.ta then Mat.matmul_ta a b else Mat.matmul a b in
  (* The two kernels must agree bit-for-bit before being timed. *)
  if not (Mat.equal (serial ()) (blocked ())) then begin
    Printf.eprintf "kernels: blocked kernel diverges on %s\n%!" s.label;
    exit 4
  end;
  match time_interleaved [ serial; blocked ] with
  | [ serial_ns; blocked_ns ] -> { shape = s; serial_ns; blocked_ns }
  | _ -> assert false

(* --- sparsity-aware (tile-skipping) kernels ---------------------------- *)

(* Late-pipeline coefficient blocks are column-sparse: decorrelation
   zeroes most eps columns and branch compaction leaves a reduced tail
   plus a handful of freshly minted split columns, with Bands tracking
   the survivors. Each row times the blocked dense kernel against the
   same product restricted to the live intervals — the operand's dead
   columns are genuinely zero, exactly the occupancy invariant the
   sparse path relies on in production — after checking the two agree
   bit for bit. *)
type sparse_row = {
  sshape : shape;
  sdensity : float;
  dense_ns : float;
  sparse_ns : float;
}

let sparse_shapes =
  [
    (* the last-layer post-softmax coefficient block after a
       decorrelation pass leaves ~10% of the 3800 symbols live *)
    ( { label = "sparse_ta_24x24_e3800_d10"; ta = true; m = 24; k = 24; n = 3800 },
      [ (0, 120); (1200, 1330); (2500, 2630) ] );
    (* a refined branch right after restrict_symbol: the parent's
       compacted tail plus the minted split columns, ~5% of the
       pre-compaction width *)
    ( { label = "sparse_rows_81x9_e1344_d05"; ta = false; m = 81; k = 9; n = 1344 },
      [ (0, 48); (1320, 1344) ] );
  ]

let measure_sparse ((s : shape), live) =
  let rng = Rng.create 0x5ba5 in
  let a =
    if s.ta then Mat.random_uniform rng s.k s.m 1.0
    else Mat.random_uniform rng s.m s.k 1.0
  in
  let b = Mat.create s.k s.n in
  List.iter
    (fun (lo, hi) ->
      for i = 0 to s.k - 1 do
        for j = lo to hi - 1 do
          b.Mat.data.((i * s.n) + j) <- Rng.uniform rng (-1.0) 1.0
        done
      done)
    live;
  let dense () = if s.ta then Mat.matmul_ta a b else Mat.matmul a b in
  let sparse () =
    if s.ta then Mat.matmul_ta ~cols:live a b else Mat.matmul ~cols:live a b
  in
  let reference = dense () in
  if not (Mat.equal reference (sparse ())) then begin
    Printf.eprintf "kernels: sparse kernel diverges on %s\n%!" s.label;
    exit 4
  end;
  let sdensity =
    float_of_int (List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 live)
    /. float_of_int s.n
  in
  match time_interleaved [ dense; sparse ] with
  | [ dense_ns; sparse_ns ] -> { sshape = s; sdensity; dense_ns; sparse_ns }
  | _ -> assert false

(* --- one-pass affine and residual kernels ------------------------------ *)

(* What production runs on the recorded sst_3 shape (9 value rows of
   d_model 24, ~1344 symbols mid-pipeline), each against the path it
   replaced, after a bit-identity check:
   - [Zonotope.linear_map]'s ε map: the in-place kernel over the whole
     216-row coefficient matrix, one [Mat.matmul_ta_acc] per value row,
     against per-row [sub_rows] + [matmul_ta] + [blit];
   - a post-LN layer's residual sum and normalization:
     [Zonotope.add_center_rows] against [center_rows (add a b)]. *)
type pass_row = {
  plabel : string;
  vrows : int;
  d : int;
  e : int;
  before : string * float;  (* the replaced path's key and ns/call *)
  after : string * float;  (* production's *)
}

let vrows = 9 and dmodel = 24 and e_mid = 1344

let measure_linear () =
  let rng = Rng.create 0x11ea in
  let w = Mat.random_uniform rng dmodel dmodel 1.0 in
  let g = Mat.random_uniform rng (vrows * dmodel) e_mid 1.0 in
  let copied () =
    let out = Mat.create (vrows * dmodel) e_mid in
    for i = 0 to vrows - 1 do
      let mapped = Mat.matmul_ta w (Mat.sub_rows g (i * dmodel) dmodel) in
      Array.blit mapped.Mat.data 0 out.Mat.data (i * dmodel * e_mid) (dmodel * e_mid)
    done;
    out
  in
  let in_place () =
    let out = Mat.create (vrows * dmodel) e_mid in
    for i = 0 to vrows - 1 do
      Mat.matmul_ta_acc w g ~b_row:(i * dmodel) out ~out_row:(i * dmodel)
    done;
    out
  in
  if not (Mat.equal (copied ()) (in_place ())) then begin
    Printf.eprintf "kernels: in-place coefficient map diverges\n%!";
    exit 4
  end;
  match time_interleaved [ copied; in_place ] with
  | [ c; i ] ->
      { plabel = "linear_ta_216x24_e1344"; vrows; d = dmodel; e = e_mid;
        before = ("copy_ns", c); after = ("inplace_ns", i) }
  | _ -> assert false

let measure_add_center () =
  let rng = Rng.create 0xadd in
  let module Z = Deept.Zonotope in
  let operand () =
    Z.make ~p:Deept.Lp.L2
      ~center:(Mat.random_uniform rng vrows dmodel 1.0)
      ~phi:(Mat.random_uniform rng (vrows * dmodel) dmodel 0.3)
      ~eps:(Mat.random_uniform rng (vrows * dmodel) e_mid 0.3)
  in
  let a = operand () and b = operand () in
  let gamma = Array.init dmodel (fun _ -> Rng.uniform rng 0.5 1.5) in
  let beta = Array.init dmodel (fun _ -> Rng.uniform rng (-0.1) 0.1) in
  let two_pass () = Z.center_rows (Z.add a b) ~gamma ~beta in
  let fused () = Z.add_center_rows a b ~gamma ~beta in
  let same (x : Z.t) (y : Z.t) =
    Mat.equal x.Z.center y.Z.center && Mat.equal x.Z.phi y.Z.phi && Mat.equal x.Z.eps y.Z.eps
  in
  if not (same (two_pass ()) (fused ())) then begin
    Printf.eprintf "kernels: fused add + center diverges\n%!";
    exit 4
  end;
  match time_interleaved [ two_pass; fused ] with
  | [ t; f ] ->
      { plabel = "add_center_216x24_e1344"; vrows; d = dmodel; e = e_mid;
        before = ("two_pass_ns", t); after = ("fused_ns", f) }
  | _ -> assert false

(* --- bookkeeping ----------------------------------------------------- *)

let fixture_dir = ref "bench/fixtures"

(* The non-comment lines of a fixture file. *)
let fixture name =
  let ic = open_in (Filename.concat !fixture_dir name) in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" || l.[0] = '#' then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* The list-building row query the slab table replaced. *)
let list_row_intervals ~lo ~hi ~cols (bs : Bands.band list) =
  let ivs =
    List.filter_map
      (fun (b : Bands.band) ->
        if b.row_lo < hi && lo < b.row_hi then
          let clo = max 0 b.col_lo and chi = min cols b.col_hi in
          if clo < chi then Some (clo, chi) else None
        else None)
      bs
  in
  List.rev
    (List.fold_left
       (fun acc (lo, hi) ->
         match acc with
         | (plo, phi) :: tl when lo <= phi -> (plo, max phi hi) :: tl
         | _ -> (lo, hi) :: acc)
       [] (List.sort compare ivs))

(* A recorded sst_3 occupancy (9 value rows of d_model 24, 1344 symbol
   columns, 76 bands) swept the way one op reads it: every single row
   (the bounds, elementwise and reduction loops) and every value row's
   block (the coefficient maps). The table arm starts from a fresh
   occupancy each call, so it pays for building its table. *)
let measure_row_table () =
  let bands =
    List.map
      (fun l -> Scanf.sscanf l "%d %d %d %d" (fun col_lo col_hi row_lo row_hi ->
           { Bands.col_lo; col_hi; row_lo; row_hi }))
      (fixture "sst3_occupancy.txt")
  in
  let rows = vrows * dmodel and cols = e_mid in
  let bs = Bands.to_bands ~rows:max_int ~cols:max_int (Bands.of_bands bands) in
  let sweep query =
    let acc = ref [] in
    for v = 0 to rows - 1 do
      acc := query ~lo:v ~hi:(v + 1) :: !acc
    done;
    for i = 0 to vrows - 1 do
      acc := query ~lo:(i * dmodel) ~hi:((i + 1) * dmodel) :: !acc
    done;
    !acc
  in
  let listed () = sweep (fun ~lo ~hi -> list_row_intervals ~lo ~hi ~cols bs) in
  let tabled () =
    let t = Bands.of_bands bs in
    sweep (fun ~lo ~hi -> Bands.row_intervals ~lo ~hi ~cols t)
  in
  if listed () <> tabled () then begin
    Printf.eprintf "kernels: slab-table row queries diverge\n%!";
    exit 4
  end;
  match time_interleaved [ listed; tabled ] with
  | [ l; t ] ->
      { plabel = "row_intervals_216x1344_b76"; vrows; d = dmodel; e = e_mid;
        before = ("list_ns", l); after = ("table_ns", t) }
  | _ -> assert false

(* A recorded softmax-sum refinement's 458 breakpoints (sst_6, one
   softmax row), sorted by index as [Refinement.minimize_abs_sum] sorts
   them: [Array.sort] by [Float.compare] of the keys against the
   transcribed heap sort. *)
let measure_breakpoint_sort () =
  let keys =
    Array.of_list (List.map float_of_string (fixture "sst6_breakpoints.txt"))
  in
  let n = Array.length keys in
  let stdlib () =
    let a = Array.init n Fun.id in
    Array.sort (fun i j -> Float.compare keys.(i) keys.(j)) a;
    a
  in
  let heap () =
    let a = Array.init n Fun.id in
    Deept.Refinement.sort_by_key keys a;
    a
  in
  if stdlib () <> heap () then begin
    Printf.eprintf "kernels: breakpoint sort permutations diverge\n%!";
    exit 4
  end;
  match time_interleaved [ stdlib; heap ] with
  | [ a; h ] ->
      { plabel = Printf.sprintf "breakpoint_sort_%d" n; vrows = 1; d = n; e = n;
        before = ("array_sort_ns", a); after = ("heap_ns", h) }
  | _ -> assert false

(* --- reporting -------------------------------------------------------- *)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Every row carries the machine's core count, like bench/radius.ml. *)
let json_of_row ~cores r =
  Printf.sprintf
    "{\"name\":\"%s\",\"ta\":%b,\"m\":%d,\"k\":%d,\"n\":%d,\"serial_ns\":%.1f,\"blocked_ns\":%.1f,\"cores\":%d}"
    r.shape.label r.shape.ta r.shape.m r.shape.k r.shape.n r.serial_ns
    r.blocked_ns cores

let json_of_sparse ~cores r =
  Printf.sprintf
    "{\"name\":\"%s\",\"ta\":%b,\"m\":%d,\"k\":%d,\"n\":%d,\"density\":%.4f,\"dense_ns\":%.1f,\"sparse_ns\":%.1f,\"cores\":%d}"
    r.sshape.label r.sshape.ta r.sshape.m r.sshape.k r.sshape.n r.sdensity
    r.dense_ns r.sparse_ns cores

let json_of_pass ~cores r =
  Printf.sprintf
    "{\"name\":\"%s\",\"vrows\":%d,\"d\":%d,\"e\":%d,\"%s\":%.1f,\"%s\":%.1f,\"cores\":%d}"
    r.plabel r.vrows r.d r.e (fst r.before) (snd r.before) (fst r.after) (snd r.after)
    cores

let write_json path lines =
  if Sys.file_exists path then begin
    let prev = Filename.remove_extension path ^ ".prev.json" in
    (try Sys.remove prev with Sys_error _ -> ());
    Sys.rename path prev;
    Printf.printf "rotated previous %s -> %s\n" path prev
  end;
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i l ->
      output_string oc l;
      if i < List.length lines - 1 then output_string oc ",";
      output_string oc "\n")
    lines;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let json = ref false in
  let out = ref "BENCH_kernels.json" in
  Arg.parse
    [
      ("--json", Arg.Set json, "  write the results to --out as JSON");
      ("--out", Arg.Set_string out, "PATH  JSON output path (default BENCH_kernels.json)");
      ( "--data",
        Arg.Set_string fixture_dir,
        "DIR  directory of the recorded fixtures (default bench/fixtures)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kernels [--json] [--out PATH] [--data DIR]";
  (* A larger minor heap keeps the timings kernel-dominated: every call
     allocates its output matrix, and with the default 256 KB minor heap
     the measurement would mostly be minor collections. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let cores = Domain.recommended_domain_count () in
  Printf.printf "matmul kernels (%d recommended domains on this machine)\n\n" cores;
  Printf.printf "%-26s %12s %12s %9s\n" "shape" "serial ns" "blocked ns" "x blocked";
  let rows = List.map measure shapes in
  List.iter
    (fun r ->
      Printf.printf "%-26s %12.0f %12.0f %8.2fx\n" r.shape.label r.serial_ns
        r.blocked_ns (r.serial_ns /. r.blocked_ns))
    rows;
  Printf.printf "\ngeomean speedup: blocked %.2fx\n"
    (geomean (List.map (fun r -> r.serial_ns /. r.blocked_ns) rows));
  let sparse_rows = List.map measure_sparse sparse_shapes in
  Printf.printf "\n%-26s %8s %12s %12s %9s\n" "sparse (tile-skipping)" "density"
    "dense ns" "sparse ns" "x sparse";
  List.iter
    (fun r ->
      Printf.printf "%-26s %7.0f%% %12.0f %12.0f %8.2fx\n" r.sshape.label
        (r.sdensity *. 100.0) r.dense_ns r.sparse_ns (r.dense_ns /. r.sparse_ns))
    sparse_rows;
  let pass_rows =
    [ measure_linear (); measure_add_center (); measure_row_table (); measure_breakpoint_sort () ]
  in
  Printf.printf "\n%-26s %12s %12s %9s\n" "one pass, bookkeeping" "before ns" "after ns"
    "x after";
  List.iter
    (fun r ->
      Printf.printf "%-26s %12.0f %12.0f %8.2fx\n" r.plabel (snd r.before)
        (snd r.after) (snd r.before /. snd r.after))
    pass_rows;
  if !json then
    write_json !out
      (List.map (json_of_row ~cores) rows
      @ List.map (json_of_sparse ~cores) sparse_rows
      @ List.map (json_of_pass ~cores) pass_rows)
