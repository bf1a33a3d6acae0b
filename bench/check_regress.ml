(* Benchmark regression gate.

     dune exec bench/kernels.exe -- --json   # rotates the old json, writes new
     dune exec bench/check_regress.exe       # compares the two

   Loads a benchmark snapshot (BENCH_kernels.json or BENCH_radius.json)
   and its rotated *.prev.json and exits non-zero when any row's timing
   metric got more than 25% slower than the previous run. The metrics
   compared are whichever of the known timing keys each row carries
   (blocked_ns for the kernel bench, wall_s for the radius bench), so
   one gate binary covers every snapshot format. With no previous
   snapshot (first run, fresh checkout) there is nothing to compare and
   the gate passes trivially. *)

(* Default for the kernel bench, whose single-process timings are
   stable. The radius and service gates pass their own --tolerance
   (bench/dune says why for each). *)
let tolerance = ref 0.25

(* Timing fields compared when present; lower is better for all,
   compared as a ratio against the previous run. *)
let metrics =
  [
    "blocked_ns";
    "wall_s";
    "p95_ms";
    (* the sparsity PR's rows: blocked dense vs ?cols tile-skipping on
       banded late-pipeline coefficient blocks *)
    "dense_ns";
    "sparse_ns";
    (* the one-pass rows: production's in-place coefficient map and
       fused residual sum + normalization (their replaced paths,
       copy_ns and two_pass_ns, are reported, not gated) *)
    "inplace_ns";
    "fused_ns";
    (* the bookkeeping rows: the row-slab table's row queries and the
       transcribed breakpoint sort (list_ns and array_sort_ns, the
       replaced paths, are reported, not gated) *)
    "table_ns";
    "heap_ns";
    (* the refine bench's base arm (plain Precise radius search; its
       refine arm reports as wall_s). Keys match with the leading
       quote, so "wall_s" never aliases into this one. *)
    "base_wall_s";
  ]

(* Rate fields in [0, 1] (the service bench's shed and cache-hit
   rates): a ratio is meaningless when the previous value is 0, so
   these are compared by absolute difference instead — either
   direction, since a shed rate that collapses to 0 means the overload
   phase stopped overloading (a broken benchmark, not an improvement). *)
let abs_metrics = [ "shed_rate"; "hit_rate" ]
let abs_tolerance = ref 0.1

(* The benchmark writes one flat object per line; pull a field out of a
   line without a general JSON parser (the repo intentionally has none). *)
let find_sub line pat =
  let ll = String.length line and pl = String.length pat in
  let rec go i = if i + pl > ll then None
    else if String.sub line i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go 0

let num_field line key =
  match find_sub line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some start ->
      let stop = ref start in
      let ll = String.length line in
      while
        !stop < ll
        && (match line.[!stop] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub line start (!stop - start))

let str_field line key =
  match find_sub line (Printf.sprintf "\"%s\":\"" key) with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))

type kind = Relative | Absolute

(* name -> (metric, kind, value) list, for the known metrics the row
   carries *)
let load path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match str_field line "name" with
       | None -> () (* the enclosing "[" / "]" lines *)
       | Some name ->
           let pick kind names =
             List.filter_map
               (fun m ->
                 Option.map (fun v -> (m, kind, v)) (num_field line m))
               names
           in
           let vals = pick Relative metrics @ pick Absolute abs_metrics in
           if vals <> [] then rows := (name, vals) :: !rows
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let () =
  let cur_path = ref "BENCH_kernels.json" in
  Arg.parse
    [
      ("--current", Arg.Set_string cur_path, "PATH  current snapshot");
      ( "--tolerance",
        Arg.Set_float tolerance,
        "FRAC  allowed slowdown fraction (default 0.25)" );
      ( "--abs-tolerance",
        Arg.Set_float abs_tolerance,
        "DELTA  allowed absolute drift of rate metrics (default 0.1)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "check_regress [--current PATH] [--tolerance FRAC]";
  let prev_path = Filename.remove_extension !cur_path ^ ".prev.json" in
  if not (Sys.file_exists !cur_path) then begin
    Printf.eprintf
      "check_regress: %s not found — run `dune exec bench/kernels.exe -- --json` first\n"
      !cur_path;
    exit 1
  end;
  (* Intra-row invariant of the refine bench, checked on the current
     snapshot alone (no previous run needed): a refined radius below the
     base radius means the refinement arm regressed the very search it
     extends. refine.exe gates this at write time; re-checking the
     committed snapshot here means a hand-edited or stale baseline
     cannot pass silently. *)
  let invariant_failures = ref 0 in
  let ic = open_in !cur_path in
  (try
     while true do
       let line = input_line ic in
       match
         ( str_field line "name",
           num_field line "radius",
           num_field line "refined_radius" )
       with
       | Some name, Some r, Some rr when rr < r ->
           Printf.printf
             "  %-26s refined_radius %.17g < radius %.17g  INVARIANT\n" name rr
             r;
           incr invariant_failures
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  if !invariant_failures > 0 then begin
    Printf.printf "%d row(s) violate refined_radius >= radius\n"
      !invariant_failures;
    exit 1
  end;
  if not (Sys.file_exists prev_path) then begin
    Printf.printf "check_regress: no previous snapshot (%s); nothing to compare\n"
      prev_path;
    exit 0
  end;
  let cur = load !cur_path and prev = load prev_path in
  let failures = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun (name, pvals) ->
      match List.assoc_opt name cur with
      | None -> Printf.printf "  %-26s dropped from current run\n" name
      | Some cvals ->
          List.iter
            (fun (metric, kind, pv) ->
              match
                List.find_opt (fun (m, _, _) -> m = metric) cvals
              with
              | None ->
                  Printf.printf "  %-26s %-11s dropped from current run\n" name
                    metric
              | Some (_, _, cv) -> (
                  incr compared;
                  match kind with
                  | Relative ->
                      let ratio = cv /. pv in
                      let flag = ratio > 1.0 +. !tolerance in
                      if flag then incr failures;
                      Printf.printf "  %-26s %-11s %12g -> %12g  (%+.1f%%)%s\n"
                        name metric pv cv
                        ((ratio -. 1.0) *. 100.0)
                        (if flag then "  REGRESSION" else "")
                  | Absolute ->
                      let drift = Float.abs (cv -. pv) in
                      let flag = drift > !abs_tolerance in
                      if flag then incr failures;
                      Printf.printf
                        "  %-26s %-11s %12g -> %12g  (drift %.3f)%s\n" name
                        metric pv cv drift
                        (if flag then "  REGRESSION" else "")))
            pvals)
    prev;
  if !compared = 0 then
    Printf.printf "check_regress: no common rows between snapshots\n"
  else if !failures > 0 then begin
    Printf.printf "%d timing(s) regressed by more than %.0f%%\n" !failures
      (!tolerance *. 100.0);
    exit 1
  end
  else Printf.printf "no timing regressed by more than %.0f%%\n" (!tolerance *. 100.0)
