(** Warm model cache — loaded once in the daemon, shared with workers.

    Parsing weights, regenerating the corpus and lowering to IR dominate
    a cold certification; the daemon pays that cost once per model at
    startup, then pre-forks workers that inherit every loaded structure
    read-only through fork's copy-on-write pages. The digest (weights
    file hash) keys the result cache, so a retrained model can never
    serve stale verdicts. *)

type entry = {
  zoo : Zoo.entry;
  model : Nn.Model.t;
  corpus : Text.Corpus.t;
  program : Ir.program;  (** [Nn.Model.to_ir model] *)
  digest : string;  (** hex digest of the weights file *)
  test_len : int;  (** test-set size, for index validation at admission *)
}

type t

val load : ?log:(string -> unit) -> string list -> t
(** Load (or train) each zoo model by name, in order.
    @raise Not_found on a name the zoo does not know. *)

val find : t -> string -> entry option
val names : t -> string list
