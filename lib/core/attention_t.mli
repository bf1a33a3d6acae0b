(** Multi-head self-attention abstract transformer.

    Composes the affine projections with the two perturbed-by-perturbed
    products of Section 4.8 and the softmax transformer of Section 5.2:

    [Z = softmax(Q·Kᵀ / √dk) · V], per head, then the output projection.

    [precise] selects the DeepT-Precise dot-product remainder bound for
    both products of each head.

    {b Symbols.} Each head runs with the ctx's symbol counter rewound to
    its value W at entry, and the output projection places the symbols
    it mints behind those of the heads before it
    ({!Zonotope.linear_join} [~own:W]). On return
    the counter is W plus every head's symbols, and every value,
    occupancy and symbol id is the one a single counter shared by all
    heads gives (DESIGN.md §19).

    {b Exceptions.} A head that raises leaves the counter in its own
    space, below the symbols earlier heads minted, so the ctx must not
    be used again. The one caller, {!Propagate}'s transfer, turns the
    exception into an abort and drops the ctx with the run. *)

val apply :
  cfg:Config.t ->
  precise:bool ->
  Zonotope.ctx -> Ir.attention -> Zonotope.t -> Zonotope.t
