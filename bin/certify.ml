(* Command-line robustness certification front-end.

     certify show   --model sst_3
     certify t1     --model sst_3 --index 0 --word 2 --norm 2 --radius 0.05
     certify radius --model sst_3 --index 0 --word 2 --norm 2
     certify t2     --model robust_3 --index 0

   Models come from the zoo (trained on demand into data/). *)

open Cmdliner
open Tensor

type verifier = Deept_fast | Deept_precise | Crown_baf | Crown_backward

let verifier_conv =
  let parse = function
    | "deept-fast" -> Ok Deept_fast
    | "deept-precise" -> Ok Deept_precise
    | "crown-baf" -> Ok Crown_baf
    | "crown-backward" -> Ok Crown_backward
    | s -> Error (`Msg ("unknown verifier " ^ s))
  in
  let print ppf v =
    Format.pp_print_string ppf
      (match v with
      | Deept_fast -> "deept-fast"
      | Deept_precise -> "deept-precise"
      | Crown_baf -> "crown-baf"
      | Crown_backward -> "crown-backward")
  in
  Arg.conv (parse, print)

let norm_conv =
  let parse = function
    | "1" -> Ok Deept.Lp.L1
    | "2" -> Ok Deept.Lp.L2
    | "inf" -> Ok Deept.Lp.Linf
    | s -> Error (`Msg ("unknown norm " ^ s ^ " (use 1, 2 or inf)"))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Deept.Lp.to_string p))

let model_arg =
  let doc = "Zoo model name (e.g. sst_3, yelp_12, robust_3, vit_1)." in
  Arg.(required & opt (some string) None & info [ "model"; "m" ] ~doc)

let index_arg =
  let doc = "Index of the test sentence." in
  Arg.(value & opt int 0 & info [ "index"; "i" ] ~doc)

let sentence_arg =
  let doc =
    "Certify this sentence instead of a test-set one (words outside the \
     corpus vocabulary become [UNK]); the concrete prediction is used as \
     the class to certify."
  in
  Arg.(value & opt (some string) None & info [ "sentence"; "s" ] ~doc)

let word_arg =
  let doc = "Perturbed word position (threat model T1)." in
  Arg.(value & opt int 1 & info [ "word"; "w" ] ~doc)

let norm_arg =
  let doc = "Perturbation norm: 1, 2 or inf." in
  Arg.(value & opt norm_conv Deept.Lp.L2 & info [ "norm"; "p" ] ~doc)

let radius_arg =
  let doc = "Perturbation radius." in
  Arg.(value & opt float 0.01 & info [ "radius"; "r" ] ~doc)

let verifier_arg =
  let doc = "Verifier: deept-fast, deept-precise, crown-baf, crown-backward." in
  Arg.(value & opt verifier_conv Deept_fast & info [ "verifier"; "v" ] ~doc)

let data_arg =
  let doc = "Model directory." in
  Arg.(value & opt string "data" & info [ "data" ] ~doc)

let profile_arg =
  let doc =
    "Collect a per-op cost profile: prints a table (calls, wall time, \
     domain size, bound width per op, then per-kind totals) and writes \
     PROFILE_<model>.json in the working directory. One collector absorbs \
     every propagation of the run, so a radius search profiles the whole \
     binary search."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let domains_arg =
  let doc =
    "OCaml domains sharding the dot product's row blocks inside each \
     propagation. That product is where DeepT-Precise spends its time; \
     every other step runs on one domain, so Fast gains little. \
     Deterministic: verdicts and radii are bit-identical to --domains 1. \
     DeepT verifiers only (CROWN baselines ignore it)."
  in
  Arg.(value & opt int 1 & info [ "domains"; "d" ] ~doc)

(* Domain parallelism composes multiplicatively with the forked worker
   pool of `batch`: each of the [jobs] processes spawns its own
   [domains]-sized pool. Warn when that oversubscribes the machine — it
   only slows things down. *)
let apply_domains ~jobs domains cfg =
  let avail = Domain.recommended_domain_count () in
  if jobs * domains > avail then
    Printf.eprintf
      "certify: warning: %d job(s) x %d domain(s) oversubscribes the %d \
       recommended domain(s) on this machine\n%!"
      jobs domains avail;
  Deept.Config.with_domains domains cfg

let refine_arg =
  let doc =
    "Branch-and-bound refinement (DeepT verifiers only): when the \
     requested configuration fails cleanly on precision, split the noise \
     symbols that dominate the losing logit margin and re-certify the \
     halves before giving up. Sound: certified only if every branch \
     certifies."
  in
  Arg.(value & flag & info [ "refine" ] ~doc)

let setup data = Zoo.data_dir := data

(* --profile wiring: [wrap] installs the collector's sink on a DeepT
   config, [trace] is the same sink for the CROWN verifiers, [report]
   prints the table and writes PROFILE_<model>.json. All three are
   no-ops when the flag is off. *)
let profiler ~model enabled =
  if not enabled then ((fun cfg -> cfg), None, fun () -> ())
  else begin
    let prof = Deept.Profile.create () in
    let sink = Deept.Profile.sink prof in
    ( Deept.Config.with_trace (Some sink),
      Some sink,
      fun () ->
        Format.printf "%a@." Deept.Profile.pp prof;
        let path = "PROFILE_" ^ model ^ ".json" in
        Deept.Profile.save_json ~model path prof;
        Printf.printf "profile written to %s\n" path )
  end

let load name =
  let entry = Zoo.entry name in
  let model = Zoo.load_or_train ~log:(fun s -> Printf.eprintf "%s\n%!" s) name in
  (entry, model)

(* Either the indexed test sentence (with its gold label) or a user
   sentence (certifying the model's own prediction). *)
let pick_input entry model index sentence =
  let c = Zoo.corpus_of entry.Zoo.corpus in
  match sentence with
  | None -> (c, List.nth c.Text.Corpus.test index)
  | Some text ->
      let toks = Text.Corpus.tokenize c text in
      if Array.length toks < 2 then failwith "sentence is empty after tokenization";
      let x = Nn.Model.embed_tokens model toks in
      let program = Nn.Model.to_ir model in
      (c, (toks, Nn.Forward.predict program x))

(* --- show ----------------------------------------------------------- *)

let show data name =
  setup data;
  let entry, model = load name in
  let program = Nn.Model.to_ir model in
  Format.printf "%a@." Ir.pp program;
  Format.printf "test accuracy: %.3f@." (Zoo.test_accuracy model entry)

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Print a model's architecture and accuracy.")
    Term.(const show $ data_arg $ model_arg)

(* --- t1 -------------------------------------------------------------- *)

let certify_t1 data name index sentence word p radius verifier refine domains
    profile =
  if refine && (verifier = Crown_baf || verifier = Crown_backward) then begin
    prerr_endline
      "certify: --refine is a DeepT engine feature (use deept-fast or \
       deept-precise)";
    exit 1
  end;
  setup data;
  let entry, model = load name in
  let c, (toks, label) = pick_input entry model index sentence in
  let program = Nn.Model.to_ir model in
  let x = Nn.Model.embed_tokens model toks in
  let wrap, trace, report = profiler ~model:name profile in
  Printf.printf "sentence: %s\nlabel: %s, perturbing word %d (%s) with l%s radius %g\n"
    (Text.Corpus.sentence c toks)
    (if label = 1 then "positive" else "negative")
    word
    (Text.Corpus.word c toks.(word))
    (Deept.Lp.to_string p |> fun s -> String.sub s 1 (String.length s - 1))
    radius;
  let pred = Nn.Forward.predict program x in
  if pred <> label then Printf.printf "misclassified even without perturbation\n"
  else begin
    (* With --refine the query goes through the engine so the refine
       rung (and the ladder line showing what each attempt returned) is
       available; without it, the direct single-propagation path is
       unchanged. *)
    let deept base =
      let cfg = wrap (apply_domains ~jobs:1 domains base) in
      if not refine then
        Deept.Certify.certify cfg program
          (Deept.Region.lp_ball ~p x ~word ~radius)
          ~true_class:label
      else begin
        let cfg =
          Deept.Config.with_refine (Some Deept.Config.default_refine) cfg
        in
        let o =
          Deept.Engine.certify cfg program
            (Deept.Region.lp_ball ~p x ~word ~radius)
            ~true_class:label
        in
        Format.printf "%a@." Deept.Engine.pp_outcome o;
        o.Deept.Engine.verdict = Deept.Verdict.Certified
      end
    in
    let ok =
      match verifier with
      | Deept_fast -> deept Deept.Config.fast
      | Deept_precise -> deept Deept.Config.precise
      | Crown_baf | Crown_backward ->
          let g = Linrelax.Verify.graph_of program ~seq_len:(Mat.rows x) in
          let v =
            if verifier = Crown_baf then Linrelax.Verify.Baf
            else Linrelax.Verify.Backward
          in
          Linrelax.Verify.certify ~verifier:v ?trace g
            (Linrelax.Verify.region_word_ball ~p x ~word ~radius)
            ~true_class:label
    in
    Printf.printf "%s\n" (if ok then "CERTIFIED" else "not certified");
    report ()
  end

let t1_cmd =
  Cmd.v
    (Cmd.info "t1" ~doc:"Certify an lp-ball perturbation of one word.")
    Term.(
      const certify_t1 $ data_arg $ model_arg $ index_arg $ sentence_arg
      $ word_arg $ norm_arg $ radius_arg $ verifier_arg $ refine_arg
      $ domains_arg $ profile_arg)

(* --- radius ----------------------------------------------------------- *)

let radius_search data name index sentence word p verifier refine domains
    profile =
  if refine && (verifier = Crown_baf || verifier = Crown_backward) then begin
    prerr_endline
      "certify: --refine is a DeepT engine feature (use deept-fast or \
       deept-precise)";
    exit 1
  end;
  setup data;
  let entry, model = load name in
  let c, (toks, label) = pick_input entry model index sentence in
  let program = Nn.Model.to_ir model in
  let x = Nn.Model.embed_tokens model toks in
  let wrap, trace, report = profiler ~model:name profile in
  let pred = Nn.Forward.predict program x in
  Printf.printf "sentence: %s\n" (Text.Corpus.sentence c toks);
  if pred <> label then Printf.printf "misclassified even without perturbation\n"
  else begin
    let deept_cfg base =
      let cfg = wrap (apply_domains ~jobs:1 domains base) in
      if refine then
        Deept.Config.with_refine (Some Deept.Config.default_refine) cfg
      else cfg
    in
    (* DeepT searches go through the reporting API so the probe budget,
       final bracket and refined radius can be shown. *)
    let deept base =
      let r =
        Deept.Certify.certified_radius_v (deept_cfg base) program ~p x ~word
          ~true_class:label ()
      in
      (r.Deept.Certify.radius, Some r)
    in
    let r, rep =
      match verifier with
      | Deept_fast -> deept Deept.Config.fast
      | Deept_precise -> deept Deept.Config.precise
      | Crown_baf ->
          ( Linrelax.Verify.certified_radius ~verifier:Linrelax.Verify.Baf
              ?trace program ~p x ~word ~true_class:label (),
            None )
      | Crown_backward ->
          ( Linrelax.Verify.certified_radius ~verifier:Linrelax.Verify.Backward
              ?trace program ~p x ~word ~true_class:label (),
            None )
    in
    Printf.printf "certified radius: %.6g\n" r;
    (match rep with
    | Some rep ->
        let good, bad = rep.Deept.Certify.bracket in
        let bad = if bad = infinity then "inf" else Printf.sprintf "%.6g" bad in
        Printf.printf
          "search: margin-guided, %d bracket + %d refine probes, final \
           bracket [%.6g, %s)\n"
          rep.Deept.Certify.bracket_probes rep.Deept.Certify.bisect_probes good
          bad
    | None -> ());
    (match rep with
    | Some { Deept.Certify.refined_radius = Some rr; _ } ->
        Printf.printf "refined radius: %.6g%s\n" rr
          (if rr > r && r > 0.0 then
             Printf.sprintf "  (+%.2f%% over the plain search)"
               ((rr /. r -. 1.0) *. 100.0)
           else if rr > r then "  (recovered from 0)"
           else "  (refinement could not move the failing edge)")
    | Some { Deept.Certify.refined_radius = None; _ } when refine ->
        Printf.printf
          "refined radius: n/a (the plain bracket never closed)\n"
    | _ -> ());
    report ()
  end

let radius_cmd =
  Cmd.v
    (Cmd.info "radius" ~doc:"Bracket-search the maximal certified radius.")
    Term.(
      const radius_search $ data_arg $ model_arg $ index_arg $ sentence_arg
      $ word_arg $ norm_arg $ verifier_arg $ refine_arg $ domains_arg
      $ profile_arg)

(* --- t2 --------------------------------------------------------------- *)

let certify_t2 data name index sentence =
  setup data;
  let entry, model = load name in
  let c, (toks, label) = pick_input entry model index sentence in
  let program = Nn.Model.to_ir model in
  let x = Nn.Model.embed_tokens model toks in
  let syn = Zoo.synonyms_for model c in
  let subs = Text.Synonyms.substitutions syn model toks in
  Printf.printf "sentence: %s\n" (Text.Corpus.sentence c toks);
  Array.iteri
    (fun pos tok ->
      match Text.Synonyms.names syn c tok with
      | [] -> ()
      | names ->
          Printf.printf "  %-12s -> %s\n" (Text.Corpus.word c tok)
            (String.concat ", " names);
          ignore pos)
    toks;
  let combos = Deept.Certify.count_combinations subs in
  Printf.printf "synonym combinations: %d\n" combos;
  let pred = Nn.Forward.predict program x in
  if pred <> label then Printf.printf "misclassified even without perturbation\n"
  else begin
    let ok = Deept.Certify.certify_synonyms Deept.Config.fast program x subs ~true_class:label in
    Printf.printf "DeepT-Fast: %s\n" (if ok then "CERTIFIED" else "not certified")
  end

let t2_cmd =
  Cmd.v
    (Cmd.info "t2" ~doc:"Certify a synonym-substitution attack on a sentence.")
    Term.(const certify_t2 $ data_arg $ model_arg $ index_arg $ sentence_arg)

(* --- batch ------------------------------------------------------------ *)

(* Hardened batch certification on the supervised worker pool: every
   sentence runs as an independent job on a forked worker, so a sentence
   that crashes, stalls or eats all memory cannot take down the run —
   cooperative budgets and the degradation ladder turn in-propagation
   faults into typed verdicts, while the supervisor's hard deadline
   (SIGTERM, then SIGKILL after --grace) and memory guard contain
   everything the worker cannot catch, reported as
   unknown(worker-killed) / unknown(worker-crashed). Completed jobs are
   appended to a crash-safe JSONL journal; --resume continues a killed
   batch, certifying only the missing sentences. *)

let fault_conv =
  let parse s =
    match String.rindex_opt s '@' with
    | None -> Error (`Msg "fault spec must look like nan@OP (see --help)")
    | Some at -> (
        let action = String.sub s 0 at in
        let op = String.sub s (at + 1) (String.length s - at - 1) in
        match int_of_string_opt op with
        | None -> Error (`Msg ("fault spec: bad op index " ^ op))
        | Some op when op < 0 -> Error (`Msg "fault spec: op index must be >= 0")
        | Some op -> (
            match String.split_on_char ':' action with
            | [ "nan" ] -> Ok (op, Deept.Config.Inject_nan)
            | [ "inf" ] -> Ok (op, Deept.Config.Inject_inf)
            | [ "unbounded" ] -> Ok (op, Deept.Config.Raise_unbounded)
            | [ "stall"; secs ] -> (
                match float_of_string_opt secs with
                | Some s when s >= 0.0 -> Ok (op, Deept.Config.Stall s)
                | _ -> Error (`Msg ("fault spec: bad stall duration " ^ secs)))
            | _ ->
                Error
                  (`Msg
                     ("unknown fault action " ^ action
                    ^ " (use nan, inf, unbounded or stall:SECS)"))))
  in
  let print ppf (op, action) =
    Format.fprintf ppf "%s@%d" (Deept.Config.fault_action_name action) op
  in
  Arg.conv (parse, print)

let count_arg =
  let doc = "Number of test sentences to certify." in
  Arg.(value & opt int 4 & info [ "count"; "n" ] ~doc)

let deadline_arg =
  let doc = "Wall-clock deadline per propagation attempt, in seconds." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let budget_arg =
  let doc = "Maximum live noise symbols per propagation attempt." in
  Arg.(value & opt (some int) None & info [ "budget" ] ~doc)

let fault_arg =
  let doc =
    "Deterministic fault injection: nan@OP, inf@OP, unbounded@OP or \
     stall:SECS@OP poisons (or stalls) the output of op OP in every \
     sentence's propagation."
  in
  Arg.(value & opt (some fault_conv) None & info [ "fault" ] ~doc)

let fault_rungs_arg =
  let doc =
    "How many ladder attempts the injected fault stays active for (0 or \
     less: all of them)."
  in
  Arg.(value & opt int 1 & info [ "fault-rungs" ] ~doc)

let jobs_arg =
  let doc = "Worker processes in the certification pool." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc)

let journal_arg =
  let doc =
    "Append every completed sentence to this crash-safe JSONL journal \
     (an existing file is emptied at start; use --resume to continue one)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~doc)

let resume_arg =
  let doc =
    "Resume a killed batch from its journal: already-journaled sentences \
     are skipped, new verdicts are appended to the same file."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~doc)

let max_retries_arg =
  let doc = "Re-runs of a job whose worker crashed (deadline kills are not retried)." in
  Arg.(value & opt int 1 & info [ "max-retries" ] ~doc)

let grace_arg =
  let doc = "Seconds between SIGTERM and SIGKILL when a worker overruns --hard-deadline." in
  Arg.(value & opt float 1.0 & info [ "grace" ] ~doc)

let hard_deadline_arg =
  let doc =
    "Per-sentence wall-clock deadline enforced by the supervisor from \
     outside the worker (contrast --deadline, the cooperative per-attempt \
     budget inside the propagation)."
  in
  Arg.(value & opt (some float) None & info [ "hard-deadline" ] ~doc)

let mem_limit_arg =
  let doc = "Per-worker major-heap cap in MB." in
  Arg.(value & opt (some int) None & info [ "mem-limit" ] ~doc)

let fault_sentence_arg =
  let doc =
    "Apply --fault only to this sentence index (default: every sentence) — \
     e.g. a stall beyond --hard-deadline on one sentence drills the \
     kill-containment path while the rest of the batch completes."
  in
  Arg.(value & opt (some int) None & info [ "fault-sentence" ] ~doc)

let crash_sentence_arg =
  let doc =
    "Hard-crash drill: the worker process running this sentence exits \
     uncleanly mid-job (simulating a segfault/OOM-class death), which must \
     surface as unknown(worker-crashed) after --max-retries."
  in
  Arg.(value & opt (some int) None & info [ "crash-sentence" ] ~doc)

let batch data name count word p radius verifier refine deadline budget fault
    fault_rungs jobs journal_path resume_path max_retries grace hard_deadline
    mem_limit fault_sentence crash_sentence domains =
  setup data;
  let entry, model = load name in
  let c = Zoo.corpus_of entry.Zoo.corpus in
  let program = Nn.Model.to_ir model in
  let base =
    match verifier with
    | Deept_fast -> Deept.Config.fast
    | Deept_precise -> Deept.Config.precise
    | Crown_baf | Crown_backward ->
        prerr_endline
          "certify: batch supports only deept-fast and deept-precise (the \
           degradation ladder is a DeepT engine feature)";
        exit 1
  in
  let base =
    if refine then
      Deept.Config.with_refine (Some Deept.Config.default_refine) base
    else base
  in
  let cfg =
    let cfg =
      apply_domains ~jobs domains
        (Deept.Config.with_budget ?deadline ?max_eps:budget base)
    in
    match fault with
    | None -> cfg
    | Some (op, action) ->
        let persist = if fault_rungs <= 0 then max_int else fault_rungs in
        { cfg with Deept.Config.fault = Some (Deept.Config.fault ~persist op action) }
  in
  let sentences =
    Array.of_list (List.filteri (fun i _ -> i < count) c.Text.Corpus.test)
  in
  let total = Array.length sentences in
  if total < count then
    Printf.printf "note: test set has only %d sentences\n" total;
  let journal =
    match (resume_path, journal_path) with
    | Some p, _ -> Some (Deept.Journal.resume p)
    | None, Some p -> Some (Deept.Journal.create p)
    | None, None -> None
  in
  let journaled id =
    match journal with Some j -> Deept.Journal.journaled j id | None -> false
  in
  let todo = ref [] in
  Array.iteri
    (fun i s -> if not (journaled i) then todo := (i, s) :: !todo)
    sentences;
  let todo = List.rev !todo in
  if List.length todo < total then
    Printf.printf "resume: %d sentence(s) already journaled, certifying %d\n%!"
      (total - List.length todo)
      (List.length todo);
  let pool =
    Deept.Config.pool ~workers:jobs ?hard_deadline_s:hard_deadline
      ~grace_s:grace ?mem_limit_mb:mem_limit ~max_retries ()
  in
  (* The job body, run on a forked worker: in-propagation faults become
     typed verdicts via the ladder; an unforeseen exception is contained
     here so only genuine process deaths (kill, crash, OOM) burn retries
     and surface as worker-* verdicts. *)
  let worker i (toks, label) =
    let word = max 0 (min word (Array.length toks - 1)) in
    if crash_sentence = Some i then exit 86;
    let cfg =
      match fault_sentence with
      | Some k when k <> i -> { cfg with Deept.Config.fault = None }
      | _ -> cfg
    in
    try
      let x = Nn.Model.embed_tokens model toks in
      let region = Deept.Region.lp_ball ~p x ~word ~radius in
      Deept.Engine.certify cfg program region ~true_class:label
    with exn ->
      let a =
        {
          Deept.Engine.rung_name = "crash:" ^ Printexc.to_string exn;
          verdict = Deept.Verdict.Unknown Deept.Verdict.Numerical_fault;
          direction = Deept.Engine.Down;
        }
      in
      {
        Deept.Engine.verdict = a.Deept.Engine.verdict;
        rung_name = a.Deept.Engine.rung_name;
        attempts = [ a ];
      }
  in
  let entry_of (r : Deept.Engine.outcome Deept.Supervisor.job_result) =
    match r.Deept.Supervisor.outcome with
    | Ok o ->
        {
          Deept.Journal.job = r.Deept.Supervisor.job;
          verdict = o.Deept.Engine.verdict;
          rung = o.Deept.Engine.rung_name;
          attempts = List.length o.Deept.Engine.attempts;
          retries = r.Deept.Supervisor.retries;
          wall_s = r.Deept.Supervisor.wall_s;
          detail = "";
        }
    | Error f -> Deept.Journal.of_failure r f
  in
  let fresh = ref [] in
  (* Histogram of every ladder rung attempted, with its direction —
     built from outcome.attempts of this run's fresh results (resumed
     journal rows only record the final rung, not the walk). *)
  let attempt_hist = ref [] in
  let note_attempts (r : Deept.Engine.outcome Deept.Supervisor.job_result) =
    match r.Deept.Supervisor.outcome with
    | Error _ -> ()
    | Ok o ->
        List.iter
          (fun (a : Deept.Engine.attempt) ->
            let k =
              match a.Deept.Engine.direction with
              | Deept.Engine.Down -> a.Deept.Engine.rung_name
              | Deept.Engine.Up -> a.Deept.Engine.rung_name ^ " (up)"
            in
            let n = try List.assoc k !attempt_hist with Not_found -> 0 in
            attempt_hist := (k, n + 1) :: List.remove_assoc k !attempt_hist)
          o.Deept.Engine.attempts
  in
  ignore
    (Deept.Supervisor.run ~pool
       ~on_result:(fun r ->
         let e = entry_of r in
         fresh := e :: !fresh;
         note_attempts r;
         (match journal with Some j -> Deept.Journal.append j e | None -> ());
         let i = e.Deept.Journal.job in
         let toks, _ = sentences.(i) in
         Printf.printf "[%2d] %-40s %s@%s%s  (%.2fs)\n%!" i
           (let s = Text.Corpus.sentence c toks in
            if String.length s <= 40 then s else String.sub s 0 37 ^ "...")
           (Deept.Verdict.to_string e.Deept.Journal.verdict)
           e.Deept.Journal.rung
           (if e.Deept.Journal.detail = "" then ""
            else " [" ^ e.Deept.Journal.detail ^ "]")
           e.Deept.Journal.wall_s)
       ~worker todo);
  (* The full batch: journaled entries (resumed + fresh) or, without a
     journal, just this run's results. *)
  let rows =
    match journal with
    | Some j -> Deept.Journal.entries j
    | None -> List.rev !fresh
  in
  (* summary: verdicts by reason, then rescues by ladder rung *)
  print_string ("\n" ^ Deept.Journal.summary ~noun:"sentences" rows);
  if !attempt_hist <> [] then begin
    Printf.printf "attempts by rung (this run):\n";
    List.iter
      (fun (r, n) -> Printf.printf "  %-28s %d\n" r n)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) !attempt_hist)
  end;
  let count_verdicts pred =
    List.length
      (List.filter (fun (e : Deept.Journal.entry) -> pred e.Deept.Journal.verdict) rows)
  in
  let dead =
    count_verdicts (function
      | Deept.Verdict.Unknown
          (Deept.Verdict.Worker_killed | Deept.Verdict.Worker_crashed) ->
          true
      | _ -> false)
  in
  let faults =
    count_verdicts (fun v ->
        v = Deept.Verdict.Unknown Deept.Verdict.Numerical_fault)
  in
  if dead > 0 then begin
    Printf.printf "%d sentence(s) lost their worker (killed or crashed)\n" dead;
    exit 3
  end;
  if faults > 0 then begin
    Printf.printf "%d sentence(s) ended in a numerical fault\n" faults;
    exit 2
  end

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Certify a batch of test sentences on a supervised pool of forked \
          workers, with budgets, fault containment, the \
          graceful-degradation ladder, hard per-sentence deadlines and a \
          crash-safe resume journal. Exit status: 3 if any worker died \
          (killed or crashed), else 2 if any sentence ended in a \
          numerical fault, else 0.")
    Term.(
      const batch $ data_arg $ model_arg $ count_arg $ word_arg $ norm_arg
      $ radius_arg $ verifier_arg $ refine_arg $ deadline_arg $ budget_arg
      $ fault_arg
      $ fault_rungs_arg $ jobs_arg $ journal_arg $ resume_arg
      $ max_retries_arg $ grace_arg $ hard_deadline_arg $ mem_limit_arg
      $ fault_sentence_arg $ crash_sentence_arg $ domains_arg)

let () =
  let info = Cmd.info "certify" ~doc:"DeepT robustness certification CLI." in
  exit (Cmd.eval (Cmd.group info [ show_cmd; t1_cmd; radius_cmd; t2_cmd; batch_cmd ]))
