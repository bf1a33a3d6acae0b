(* Compare two sets of benchmark runs, e.g. the parent commit (A) and a
   change (B):

     dune exec ./bench/e2e/compare.exe -- [--spec BENCHMARK.json] DIR_A DIR_B

   Each directory holds one file per run, named <workload>.<seed>.<anything>,
   containing the run's standard output (its last line is the result
   object). Runs of A and B with the same seed form pairs. For every
   workload and metric the two sets share, it prints the median and
   quartiles of each side and a verdict:

   - better: every run of B reads better than every run of A;
   - unresolved: otherwise, when a side's spread (distance between its
     quartiles, as a share of its median) exceeds the metric's bound;
   - worse: B's median is worse than A's by more than the bound;
   - better: B wins at least nine tenths of the pairs (ties count for
     neither) and its median is better than A's by more than A's own
     spread;
   - unchanged: otherwise.

   Per-layer metrics (traced runs) have no bound and are printed for
   reference. The exit status is 1 when an end-to-end metric is worse,
   when the share of failed queries rose, or when a run failed its
   correctness checks. *)

type run = {
  seed : string;
  correct : bool;
  attempted : float;
  failed : float;
  values : (string * float) list;
}

let last_line path =
  let ic = open_in path in
  let last = ref "" in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" then last := l
     done
   with End_of_file -> ());
  close_in ic;
  !last

let read_run ~seed path =
  let j = Json.parse (last_line path) in
  let values =
    match Json.member "metrics" j with
    | Json.Obj fs -> List.map (fun (k, v) -> (k, Json.to_num (Json.member "value" v))) fs
    | _ -> raise (Json.Bad (path ^ ": metrics is not an object"))
  in
  {
    seed;
    correct = Json.to_bool (Json.member "correct" j);
    attempted = Json.to_num (Json.member "attempted" j);
    failed = Json.to_num (Json.member "failed" j);
    values;
  }

(* workload -> runs in file order, from the files of [dir] *)
let read_set dir =
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  List.fold_left
    (fun acc f ->
      match String.split_on_char '.' f with
      | w :: seed :: _ -> (
          match read_run ~seed (Filename.concat dir f) with
          | r ->
              let runs = Option.value ~default:[] (List.assoc_opt w acc) in
              (w, runs @ [ r ]) :: List.remove_assoc w acc
          | exception (Json.Bad _ | Sys_error _ | Not_found) -> acc)
      | _ -> acc)
    [] files

(* Runs of the two sets with the same seed, matched in file order. *)
let pairs runs_a runs_b =
  let rec zip = function x :: xs, y :: ys -> (x, y) :: zip (xs, ys) | _ -> [] in
  List.concat_map
    (fun s ->
      let of_seed = List.filter (fun r -> r.seed = s) in
      zip (of_seed runs_a, of_seed runs_b))
    (List.sort_uniq compare (List.map (fun r -> r.seed) runs_a))

type metric = { name : string; unit : string; lower_better : bool; bound : float option }

let metrics spec =
  let of_list key =
    List.map
      (fun m ->
        let field k = Json.member k m in
        {
          name = Json.to_string (field "name");
          unit = Json.to_string (field "unit");
          lower_better = Json.to_string (field "better") = "lower";
          bound =
            (match m with
            | Json.Obj fs when List.mem_assoc "bound" fs -> Some (Json.to_num (field "bound"))
            | _ -> None);
        })
      (Json.to_list (Json.member key spec))
  in
  of_list "end_to_end" @ of_list "per_layer"

let spread xs =
  let q1, q3 = Stats.quartiles xs in
  let m = Stats.median xs in
  if m = 0.0 then (if q3 = q1 then 0.0 else infinity) else (q3 -. q1) /. Float.abs m

(* [a], [b]: the two sets' values; [paired]: (A, B) values of the pairs *)
let verdict m a b paired =
  let ma = Stats.median a and mb = Stats.median b in
  (* how much worse B is than A, as a share of A *)
  let worse_by =
    let rel =
      if ma <> 0.0 then (mb -. ma) /. Float.abs ma
      else if mb = 0.0 then 0.0
      else Float.copy_sign infinity mb
    in
    if m.lower_better then rel else -.rel
  in
  let better x y = if m.lower_better then x < y else x > y in
  let wins = List.length (List.filter (fun (x, y) -> better y x) paired) in
  match m.bound with
  | None -> "-"
  | Some bound ->
      if List.for_all (fun y -> List.for_all (fun x -> better y x) a) b then "better"
      else if spread a > bound || spread b > bound then "unresolved"
      else if worse_by > bound then "worse"
      else if
        paired <> []
        && float_of_int wins >= 0.9 *. float_of_int (List.length paired)
        && -.worse_by > spread a
      then "better"
      else "unchanged"

let () =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec, "PATH  metric list with bounds (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare [--spec BENCHMARK.json] DIR_A DIR_B";
  let dir_a, dir_b =
    match !dirs with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline "compare: give two result directories";
        exit 2
  in
  let ms = metrics (Json.of_file !spec) in
  let set_a = read_set dir_a and set_b = read_set dir_b in
  let bad = ref false in
  Printf.printf "%-13s %-34s %-8s %28s %28s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun (w, runs_a) ->
      match List.assoc_opt w set_b with
      | None -> ()
      | Some runs_b ->
          let incorrect = List.length (List.filter (fun r -> not r.correct) (runs_a @ runs_b)) in
          if incorrect > 0 then begin
            Printf.printf "%-13s %d run(s) failed their correctness checks\n" w incorrect;
            bad := true
          end;
          let failed_share runs =
            let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
            sum (fun r -> r.failed) /. Float.max 1.0 (sum (fun r -> r.attempted))
          in
          if failed_share runs_b > failed_share runs_a then begin
            Printf.printf "%-13s failed share rose: %.4f -> %.4f\n" w (failed_share runs_a)
              (failed_share runs_b);
            bad := true
          end;
          List.iter
            (fun m ->
              let value r = List.assoc_opt m.name r.values in
              let vals runs = List.filter_map value runs in
              match (vals runs_a, vals runs_b) with
              | [], _ | _, [] -> ()
              | a, b ->
                  let show xs =
                    let q1, q3 = Stats.quartiles xs in
                    Printf.sprintf "%.5g [%.5g, %.5g] n=%d" (Stats.median xs) q1 q3 (List.length xs)
                  in
                  let ma = Stats.median a in
                  let change =
                    if ma = 0.0 then nan else 100.0 *. (Stats.median b -. ma) /. Float.abs ma
                  in
                  let paired =
                    List.filter_map
                      (fun (ra, rb) ->
                        match (value ra, value rb) with
                        | Some x, Some y -> Some (x, y)
                        | _ -> None)
                      (pairs runs_a runs_b)
                  in
                  let v = verdict m a b paired in
                  if v = "worse" then bad := true;
                  Printf.printf "%-13s %-34s %-8s %28s %28s %+7.1f%%  %s\n" w m.name m.unit
                    (show a) (show b) change v)
            ms)
    (List.sort compare set_a);
  exit (if !bad then 1 else 0)
