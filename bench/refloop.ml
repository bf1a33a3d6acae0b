(* The machine's momentary speed, read from a fixed reference loop, as
   bench/e2e/speed.ml reads it (this is a copy of its loop; that
   directory belongs to the end-to-end benchmark). The radius and refine
   benchmarks time their searches in the loop's units. On a shared
   2-core host one search takes up to 1.7 times longer in some minutes
   than in others; the loop allocates and promotes small boxed values as
   the zonotope code does, so it slows in step. [nominal_s] is the loop's
   median time on the 2-core Xeon the end-to-end bounds were set on.

   A benchmark that uses [slowness] must accept [spec], the flag its
   fresh-process samples run under. *)

let nominal_s = 0.025

let loop () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> Some (float_of_int i))))
  done;
  Unix.gettimeofday () -. t0

let spec =
  ( "--speed-sample",
    Arg.Unit
      (fun () ->
        Printf.printf "%.6f\n" (loop ());
        exit 0),
    "  time the reference loop once, print the seconds and exit" )

let median xs =
  let xs = List.sort compare xs in
  List.nth xs (List.length xs / 2)

(* The loop's time in a fresh process (this program re-run with
   --speed-sample), so this process's heap and GC state cannot move it. *)
let sample () =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--speed-sample" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (Unix.waitpid [] pid, float_of_string_opt line) with
  | (_, Unix.WEXITED 0), Some t -> t
  | _ -> failwith "the reference-loop sample failed"

(* Slowness now, above 1 when the machine runs slower than nominal: the
   median of [samples] loop times over [nominal_s]. One 25 ms sample
   reads up to 1.6 times another taken a second later, so one alone
   would scale a round by its own noise. *)
let samples = 5

let slowness () = median (List.init samples (fun _ -> sample ())) /. nominal_s

(* One timed run: its wall-clock at nominal speed, scaled by the
   slowness read right after it, its unscaled wall-clock, and its
   result. *)
let timed run =
  let t0 = Unix.gettimeofday () in
  let r = run () in
  let dt = Unix.gettimeofday () -. t0 in
  (dt /. slowness (), dt, r)

(* The medians of rounds of [timed], scaled and unscaled, and the first
   round's result. Over 1 s rounds the loop follows a search only
   loosely (a correlation of about 0.5), so a single round, or the
   fastest one, carries the loop's noise as well as the search's; the
   median over the rounds sheds both. *)
let medians rounds =
  let _, _, first = List.hd rounds in
  ( median (List.map (fun (s, _, _) -> s) rounds),
    median (List.map (fun (_, dt, _) -> dt) rounds),
    first )
