(** Generic abstract interpreter over {!Ir.program}s.

    Every analysis in this repository — concrete inference
    ([Nn.Forward]), interval bound propagation ([Interval.Ibp]), the
    Multi-norm Zonotope ([Deept.Propagate]) and the linear-relaxation
    baseline ([Linrelax.Verify]) — is an instance of one interpretation
    loop: walk the op array, apply a domain-specific transformer per op,
    and store one abstract value per IR value id.

    This module owns that loop. A domain plugs in through {!DOMAIN}
    (one transformer, plus poison/size/width hooks); the loop owns
    everything cross-cutting:

    - {b checkpoints} — a wall-clock deadline, a domain-size budget and
      a NaN/Inf poison scan run after every op, aborting with a typed
      exception supplied by the caller (the certifier maps them to
      [Verdict.Abort]);
    - {b fault injection} — a deterministic callback fired after one
      designated op, the test hook behind the degradation-ladder suites;
    - {b tracing} — a structured {!event} per op delivered to an
      optional {!sink}; per-op profiling ([certify --profile]) and the
      [DEEPT_TRACE] stderr dump are both sinks.

    Domains never re-implement dispatch, and a new abstract domain gets
    deadlines, budgets, poison containment and profiling for free (see
    DESIGN.md §8). *)

type finiteness = [ `Finite | `Nan | `Inf ]
(** Poison classification of an abstract value. [`Nan] dominates
    [`Inf]: a NaN means arithmetic already went through an undefined
    form, an Inf is still a sound (if vacuous) bound — but both poison
    everything downstream. *)

type event = {
  op_index : int;  (** index into [program.ops] *)
  kind : string;  (** {!Ir.kind_name} of the op *)
  wall_s : float;  (** wall-clock seconds spent in the transformer *)
  size : int;  (** domain size metric (ε symbols, entries, scalars) *)
  width : float;
      (** largest concretized bound width of the op output; [nan] when
          the domain cannot bound it (collapsed abstraction) *)
  density : float;
      (** live fraction of the op output's coefficient storage per the
          domain's sparsity tracking ({!DOMAIN.density}); 1.0 for
          domains without one *)
}
(** One per-op trace record. [wall_s], [size], [width] and [density]
    are computed only when a sink is installed — an idle trace stream
    costs one branch per op. *)

type sink = event -> unit

type abort =
  | Timeout  (** the wall-clock deadline passed *)
  | Size_budget  (** the domain size metric exceeded its cap *)
  | Poison of [ `Nan | `Inf ]  (** the op output failed the poison scan *)

type 'v checks = {
  deadline : float option;
      (** absolute wall-clock deadline (epoch seconds); checked after
          every op *)
  max_size : int option;
      (** cap on the domain's {!DOMAIN.size} metric — live ε symbols
          for the zonotope, relaxation scalars for linrelax *)
  poison : bool;  (** scan every op output for NaN/Inf *)
  fault : (int * ('v -> unit)) option;
      (** [(op, action)]: run [action] on the output of op [op] —
          deterministic fault injection (may mutate the value or raise) *)
  trace : sink option;
  abort : abort -> exn;
      (** the exception raised when a checkpoint trips; certification
          front-ends supply a [Verdict.Abort] constructor *)
}
(** Checkpoint configuration for one run. {!no_checks} disables
    everything; with it the loop is exactly the bare dispatch walk. *)

val no_checks : 'v checks
(** No deadline, no size cap, no poison scan, no fault, no trace. The
    [abort] hook is unreachable (raises [Failure] defensively). *)

(** An abstract domain: one value type, one transformer per {!Ir.op},
    and the hooks the generic loop needs. *)
module type DOMAIN = sig
  type state
  (** Per-run mutable state (symbol allocator, config, caches). *)

  type value
  (** The abstract value attached to each IR value id. *)

  val name : string
  (** Short domain name, used in diagnostics. *)

  val transfer :
    state ->
    op_index:int ->
    Ir.op ->
    get:(Ir.value_id -> value) ->
    set:(Ir.value_id -> value -> unit) ->
    value
  (** Abstract transformer for one op. [get] reads earlier values;
      [set] may replace one (the zonotope domain re-stores the reduced
      layer input so the residual [Add] sees it too). A domain whose
      arithmetic can collapse must catch its own collapse exception and
      re-raise the typed abort it wants callers to see. *)

  val transfer_pair :
    state ->
    op_index:int ->
    Ir.op ->
    Ir.op ->
    get:(Ir.value_id -> value) ->
    value option
  (** [transfer_pair st ~op_index:i op next ~get] is the output of op
      [i + 1] ([next]) computed in one pass with op [i]'s, or [None]
      when the domain has no one-pass transfer for the pair (the loop
      then runs the two ops one by one). The loop asks only when [next]
      reads op [i]'s output, once, and nothing else does. [Some v] must
      be what the two transfers give in turn, and must be poisoned
      whenever op [i]'s output would have been. The zonotope domain
      fuses a residual [Add] with the mean-only [Center_norm] after it;
      the other domains return [None]. *)

  val is_poisoned : value -> finiteness
  (** NaN/Inf scan used by the poison checkpoint. *)

  val size : state -> value -> int
  (** The metric compared against [checks.max_size], and reported in
      trace events. *)

  val width : state -> value -> float
  (** Largest concretized bound width of a value, for trace events.
      Only called when a sink is installed — may be expensive. *)

  val density : state -> value -> float
  (** Live fraction of the value's coefficient storage (live area /
      dense area) for trace events; domains without sparsity tracking
      return 1.0. Only called when a sink is installed. *)
end

module Make (D : DOMAIN) : sig
  val run_values :
    ?checks:D.value checks ->
    ?start:int ->
    D.state ->
    Ir.program ->
    D.value array ->
    unit
  (** [run_values st p vals] interprets ops [start] (default 0) to the
      end, writing the output of op [i] to [vals.(i + 1)]. Entries
      [0..start] must already be filled. The value array has
      {!Ir.num_values} entries.

      A pair of ops [i], [i + 1] runs as one {!DOMAIN.transfer_pair}
      when op [i + 1] is the only reader of op [i]'s output, no fault is
      armed at either op and no trace sink is installed. Op [i]'s output
      is then never formed and its slot is left as it was. Both ops'
      checkpoints run on the pair's output, op [i]'s first, and the
      output is scanned for poison once, at op [i]'s; op indices, fault
      sites and trace events still name the ops of [p]. *)

  val run_all :
    ?checks:D.value checks -> D.state -> Ir.program -> D.value -> D.value array
  (** All intermediate values; index 0 is the input. A value only a
      fused pair read (see {!run_values}) keeps the input. *)

  val run : ?checks:D.value checks -> D.state -> Ir.program -> D.value -> D.value
  (** The program output value. *)
end
