(* Warm model cache, loaded in the daemon before the first fork.

   Parsing and lowering a zoo model is the expensive part of a cold
   certification; the daemon pays it once per model at startup, and the
   pre-forked workers inherit the loaded weights, corpus and lowered
   program read-only through fork's copy-on-write pages. The program is
   the plain lowering [Nn.Model.to_ir], the same graph every other
   front-end certifies. *)

type entry = {
  zoo : Zoo.entry;
  model : Nn.Model.t;
  corpus : Text.Corpus.t;
  program : Ir.program;
  digest : string;
  test_len : int;
}

type t = (string * entry) list

let load_one ?log name =
  let zoo = Zoo.entry name in
  let model = Zoo.load_or_train ?log name in
  let corpus = Zoo.corpus_of zoo.Zoo.corpus in
  let program = Nn.Model.to_ir model in
  let digest = Digest.to_hex (Digest.file (Zoo.path zoo)) in
  let test_len = List.length corpus.Text.Corpus.test in
  { zoo; model; corpus; program; digest; test_len }

let load ?log names =
  List.map
    (fun name ->
      (match log with
      | Some f -> f (Printf.sprintf "loading model %s" name)
      | None -> ());
      (name, load_one ?log name))
    names

let find t name = List.assoc_opt name t
let names t = List.map fst t
