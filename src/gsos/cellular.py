"""Cell certificates, constructive lifting, preservation, cartesianness.

A source arity morphism is always a finite composite of pushouts of the
generating source inclusions s^a; the certificate records the attachment
sequence (which label is glued at which state, and what the created cells
are called), so that replaying it through the colimit machinery rebuilds
the arity on the nose.  Certificates are what make lifting against a
functional bisimulation constructive: each attachment is one elementary
lifting problem, solved deterministically.

The same window discipline as everywhere else applies: two-layer systems
are truncated by flattened depth, which every construction here preserves
or decreases, so a single bound threads through the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    IncompatiblePair,
    NonCommutingSquare,
    NotAFunctionalBisim,
    ReplayMismatch,
)
from .familial import (
    Decomposition,
    decompose,
    generic_decomposition,
    recompose,
)
from .presheaf import (
    STAR,
    LabelSet,
    LiftingSquare,
    Presheaf,
    PresheafMorphism,
    WidePushout,
    _map,
    _system,
    bang,
    colimit,
    commutes,
    is_functional_bisimulation,
    presheaf_doc,
    pullback_report,
    representable,
    source_inclusion,
    terminal,
)
from .terms import (
    MU_LEAVES,
    TERMINAL_LEAVES,
    App,
    Axiom,
    Node,
    Proof,
    T_on_element,
    Term,
    Var,
    eta,
    lift_leaves,
    mu,
    proof_label,
    proof_source,
    random_presheaf,
    to_terminal,
    truncated_free,
    truncated_free_squared,
    window_map,
)


@dataclass(frozen=True)
class AttachStep:
    """Push out s^{label} along the map picking state ``at``.

    The fresh edge and its target state are given the recorded names, so a
    replay reproduces the arity's cells exactly.
    """

    label: str
    at: str
    edge: str
    tgt: str

    def to_dict(self) -> dict:
        return {"label": self.label, "at": self.at, "edge": self.edge, "tgt": self.tgt}


@dataclass(frozen=True)
class CellCertificate:
    """A shape's attachment steps and the source arity morphism they claim
    to rebuild: its domain, the points of the source occurrences, is the
    base the steps start from, and its codomain is the arity."""

    steps: tuple[AttachStep, ...]
    claimed_composite: PresheafMorphism

    def to_dict(self) -> dict:
        return {
            "base": presheaf_doc(self.claimed_composite.dom),
            "steps": [s.to_dict() for s in self.steps],
            "codomain": presheaf_doc(self.claimed_composite.cod),
        }


def cell_certificate(labels: LabelSet, r: Proof) -> CellCertificate:
    """Attachment sequence witnessing the source arity morphism of a shape."""
    if isinstance(r, (Var, App)):
        raise IncompatiblePair("certificates are for proof shapes")
    return _certificate(generic_decomposition(labels, r))


def _certificate(dec: Decomposition) -> CellCertificate:
    """The certificate of a proof's shape, read off its decomposition: the
    claimed composite is the source arity morphism, into the arity itself."""
    steps = tuple(AttachStep(*edge) for edge in dec.generic_edges())
    return CellCertificate(steps, dec.source_morphism())


def replay_certificate(cert: CellCertificate) -> tuple[Presheaf, PresheafMorphism]:
    """Rebuild the codomain by successive pushouts of the generators.

    Raises ReplayMismatch at the first step that cannot be performed.
    """
    base = cert.claimed_composite.dom
    labels = base.labels
    current = base
    point = representable(labels, STAR)
    for idx, step in enumerate(cert.steps):
        if step.label not in labels:
            raise ReplayMismatch(idx, f"label {step.label!r} undeclared")
        if step.at not in current.state_set():
            raise ReplayMismatch(idx, f"attach state {step.at!r} missing")
        if step.tgt in current.state_set():
            raise ReplayMismatch(idx, f"created state {step.tgt!r} already present")
        if any(step.edge in current.edge_set(a) for a in labels):
            raise ReplayMismatch(idx, f"created edge {step.edge!r} already present")
        pick = _map(point, current, {STAR: step.at})
        glued, (inj_gen, inj_cur) = colimit(
            WidePushout(point, (source_inclusion(labels, step.label), pick))
        )
        name = {o: {inj_cur.at(o)[c]: c for c in current.cells(o)} for o in labels.objects}
        name[STAR][inj_gen.state_map["t"]] = step.tgt
        name[step.label][inj_gen.edge_maps[step.label]["e"]] = step.edge
        current = _rename_cells(glued, name)
    composite = _map(base, current, {x: x for x in base.states})
    return current, composite


def _rename_cells(P: Presheaf, name: dict[str, dict[str, str]]) -> Presheaf:
    """P with each cell c at base object o renamed to ``name[o][c]``."""
    state = name[STAR]
    return _system(
        P.labels,
        [state[x] for x in P.states],
        [(a, name[a][e], state[P.src[a][e]], state[P.tgt[a][e]]) for a, e in P.all_edges()],
    )


def verify_certificate(cert: CellCertificate) -> bool:
    """Replay and compare, cell names included."""
    try:
        final, composite = replay_certificate(cert)
    except ReplayMismatch:
        return False
    return final == cert.claimed_composite.cod and composite == cert.claimed_composite


def lift_against(
    cert: CellCertificate,
    f: PresheafMorphism,
    top: PresheafMorphism,
    bottom: PresheafMorphism,
) -> PresheafMorphism:
    """Lift the certified map against a functional bisimulation, cell by cell.

    Solves one elementary source-lifting problem per attachment, always
    taking the least admissible edge, and verifies both triangle equations
    before returning.
    """
    if not is_functional_bisimulation(f):
        raise NotAFunctionalBisim("right leg fails the lifting property")
    gamma = cert.claimed_composite
    if top.dom != gamma.dom or bottom.dom != gamma.cod:
        raise NonCommutingSquare("square boundaries do not line up")
    if not commutes(f, top, bottom, gamma):
        raise NonCommutingSquare("outer square does not commute")
    X = f.dom
    k_state = {c: top.state_map[c] for c in gamma.dom.states}
    k_edges: dict[str, dict[str, str]] = {a: {} for a in X.labels}
    for step in cert.steps:
        x = k_state[step.at]
        ey = bottom.edge_maps[step.label][step.edge]
        picks = sorted(
            ex for ex in X.out_edges(x, step.label) if f.edge_maps[step.label][ex] == ey
        )
        if not picks:
            raise NotAFunctionalBisim(
                f"no edge over {ey!r} starts at {x!r} (label {step.label!r})"
            )
        ex = picks[0]
        k_edges[step.label][step.edge] = ex
        k_state[step.tgt] = X.tgt[step.label][ex]
    k = _map(bottom.dom, X, k_state, k_edges)
    if not (commutes(k, gamma, top) and commutes(f, k, bottom)):
        raise NonCommutingSquare("constructed lifting fails a triangle equation")
    return k


def preserve_bisim_lift(f: PresheafMorphism, M: Term, R: Proof) -> Proof:
    """Preimage of a transition along a functional bisimulation.

    Given M over the domain and R over the codomain with source T(f)(M),
    factor both generically, certify the source arity morphism of R's
    shape, lift it against f, and recompose.  The result R0 satisfies
    T(f)(R0) = R and src(R0) = M, both checked exactly.
    """
    X, Y = f.dom, f.cod
    if proof_source(Y, R) != T_on_element(f, M):
        raise NonCommutingSquare("source of the transition is not the image of the term")
    dec_m = decompose(X, M)
    dec_r = decompose(Y, R)
    if dec_m.shape != proof_source(terminal(X.labels), dec_r.shape):
        raise NonCommutingSquare("shapes disagree after stripping")
    cert = _certificate(dec_r)
    k = lift_against(cert, f, dec_m.filler, dec_r.filler)
    r0 = recompose(replace(dec_r, filler=k), X)
    if T_on_element(f, r0) != R or proof_source(X, r0) != M:
        raise NonCommutingSquare("recomposed preimage fails a postcondition")
    return r0


# ---------------------------------------------------------------------------
# Cartesianness of the monad structure.


def window_bang(spec, X: Presheaf, d: int) -> PresheafMorphism:
    """The map to 1 on the depth-d one-layer windows, T_X -> T_1.

    It is the bottom of both cartesianness squares, and its domain and
    codomain are their one-layer corners, so a caller that checks both
    builds it once.
    """
    T_1 = truncated_free(spec, terminal(X.labels), d)[0]
    return window_map(truncated_free(spec, X, d), T_1, *TERMINAL_LEAVES)


def check_mu_cartesian(spec, X: Presheaf, d: int, t_bang: PresheafMorphism) -> dict:
    """Is the flattening naturality square over 1 a pointwise pullback?

    Both two-layer corners are truncated by flattened depth <= d, the
    one-layer corners by depth <= d; the square is well-posed because
    flattening preserves the bound and the unique two-layer witness of a
    compatible pair lives inside the same window.  ``t_bang`` is
    :func:`window_bang` of X at depth d, the square's bottom.
    """
    T_X, T_1 = t_bang.dom, t_bang.cod
    # Each two-layer window keeps its decode tables only until its maps are
    # built; the presheaf is kept for the square and the report sizes.
    TT_1 = truncated_free_squared(spec, terminal(X.labels), d)
    mu_1 = window_map(TT_1, T_1, *MU_LEAVES)
    TT_1 = TT_1[0]
    TT_X = truncated_free_squared(spec, X, d)
    mu_X = window_map(TT_X, T_X, *MU_LEAVES)
    t2_bang = window_map(TT_X, TT_1, *lift_leaves(*TERMINAL_LEAVES))
    TT_X = TT_X[0]
    square = LiftingSquare(left=mu_X, top=t2_bang, right=mu_1, bottom=t_bang)
    per_object = pullback_report(square)
    return {
        "transformation": "mu",
        "depth": d,
        "sizes": {
            "two_layer": TT_X.size(),
            "one_layer": T_X.size(),
            "two_layer_over_1": TT_1.size(),
            "one_layer_over_1": T_1.size(),
        },
        "pullback": per_object,
        "ok": all(per_object.values()),
    }


def check_eta_cartesian(X: Presheaf, d: int, t_bang: PresheafMorphism) -> dict:
    """Is the unit naturality square over 1 a pointwise pullback?

    ``t_bang`` is as for :func:`check_mu_cartesian`.
    """
    T_X, T_1 = t_bang.dom, t_bang.cod
    eta_X = eta(X, T_X)
    eta_1 = eta(terminal(X.labels), T_1)
    square = LiftingSquare(left=eta_X, top=bang(X), right=eta_1, bottom=t_bang)
    per_object = pullback_report(square)
    return {
        "transformation": "eta",
        "depth": d,
        "sizes": {"system": X.size(), "free": T_X.size()},
        "pullback": per_object,
        "ok": all(per_object.values()),
    }


# ---------------------------------------------------------------------------
# The unique two-layer witness of a compatible pair.


def unique_R0(RR: Proof, R: Proof) -> Proof:
    """The unique two-layer proof flattening to R and stripping to RR.

    RR is a two-layer proof over 1 (leaf payloads are elements over 1), R a
    one-layer proof over some X with R stripped equal to RR flattened.
    Built by pairing leaves in the base case and recursing argumentwise,
    with the premise-less arguments handled through the term version.
    """
    if to_terminal(R) != mu(RR):
        raise IncompatiblePair("strip of the proof is not the flattening of the pair")
    return _pair_proof(RR, R)


def _pair_proof(RR: Proof, R: Proof) -> Proof:
    if isinstance(RR, Axiom):
        if to_terminal(R) != RR.edge:
            raise IncompatiblePair("axiom pairing mismatch")
        return Axiom(R, proof_label(R))
    if not isinstance(R, Node) or R.rule != RR.rule:
        raise IncompatiblePair("rule mismatch while pairing")
    args: list = []
    for arg_rr, arg_r in zip(RR.args, R.args):
        if isinstance(arg_rr, tuple):
            if not isinstance(arg_r, tuple) or len(arg_r) != len(arg_rr):
                raise IncompatiblePair("premise group mismatch while pairing")
            args.append(tuple(_pair_proof(rr, r) for rr, r in zip(arg_rr, arg_r)))
        else:
            if isinstance(arg_r, tuple):
                raise IncompatiblePair("argument kind mismatch while pairing")
            args.append(unique_M0(arg_rr, arg_r))
    return Node(R.rule, tuple(args))


def unique_M0(MM: Term, M: Term) -> Term:
    """Term analogue of :func:`unique_R0` (the star-object square)."""
    if isinstance(MM, Var):
        if to_terminal(M) != MM.name:
            raise IncompatiblePair("variable pairing mismatch")
        return Var(M)
    if not isinstance(M, App) or M.op != MM.op:
        raise IncompatiblePair("operation mismatch while pairing")
    return App(M.op, tuple(unique_M0(mm, m) for mm, m in zip(MM.args, M.args)))


# ---------------------------------------------------------------------------
# Seeded generation of functional bisimulations (coverings of a random base).


def random_functional_bisim(rng, labels: LabelSet) -> PresheafMorphism:
    """A random covering projection, a functional bisimulation by construction.

    Each base state of a random system with at most 3 states gets one or two
    copies; every base edge out of a state acquires at least one preimage
    from each copy of its source.
    """
    Y = random_presheaf(rng, labels, max_states=3, max_edges=4)
    copies = {y: rng.randint(1, 2) for y in Y.states}
    state_map = {f"{y}.{i}": y for y in Y.states for i in range(copies[y])}
    arrows = []
    edge_map: dict[str, dict[str, str]] = {a: {} for a in labels}
    for a in labels:
        for e in Y.edges[a]:
            ys, yt = Y.src[a][e], Y.tgt[a][e]
            for i in range(copies[ys]):
                for lift_idx in range(rng.randint(1, 2)):
                    name = f"{e}.{i}.{lift_idx}"
                    arrows.append((a, name, f"{ys}.{i}", f"{yt}.{rng.randrange(copies[yt])}"))
                    edge_map[a][name] = e
    X = _system(labels, state_map, arrows)
    f = _map(X, Y, state_map, edge_map)
    assert is_functional_bisimulation(f)
    return f
