(* The machine's momentary speed, read from a fixed reference loop.

   On a shared 2-core host the same query takes up to 1.7 times longer in
   some minutes than in others, with nothing in this process to show it
   (no steal time, CPU time equal to wall time). Timed alone, 25 s runs
   read 15 to 40% apart. The reference loop below slows in step with the
   certifier: it allocates and promotes small boxed values, as the
   zonotope code does, and over 25 s windows its time follows the
   certifier's with a correlation above 0.9. So the workloads take a
   sample of it between their units of work (queries, batches, load
   steps, set-ups) and report every time and rate scaled to the speed at
   which the loop takes [nominal_s]; the report lines print the unscaled
   values beside them.

   A sample runs in a fresh process (this program re-run with
   --speed-sample), so the parent's heap, GC state and resident set
   neither change the loop's time nor grow from it. The loop calls no
   library code: a change to the certifier cannot move it. *)

(* The loop's median time on the 2-core Xeon the bounds were set on. *)
let nominal_s = 0.025

(* The child's side. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> Some (float_of_int i))))
  done;
  Unix.gettimeofday () -. t0

(* Run this program again with [args] and return the number it prints. *)
let run_self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (Unix.waitpid [] pid, float_of_string_opt line) with
  | (_, Unix.WEXITED 0), Some t -> t
  | _ -> failwith (String.concat " " args ^ ": the child process failed")

(* Slowness now: the loop's time in a fresh process over [nominal_s];
   above 1 when the machine runs slower than nominal. *)
let sample () = run_self [ "--speed-sample" ] /. nominal_s
