"""Batch command-line surface.

Exit codes: 0 success, 1 domain violation, 2 usage error.  All randomness
flows from a single seed (GSOS_SEED overrides --seed), printed in every
report, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from importlib import resources
from pathlib import Path

from . import bisim as bisim_mod
from . import familial as familial_mod
from .cellular import (
    cell_certificate,
    check_eta_cartesian,
    check_mu_cartesian,
    preserve_bisim_lift,
    random_functional_bisim,
    verify_certificate,
    window_bang,
)
from .errors import GsosError, MalformedSystem, NestingTooDeep, SpecParseError, UnknownLabel
from .familial import decompose, is_generic, random_collapse
from .presheaf import (
    STAR,
    Presheaf,
    commutes,
    morphism_from_json,
    presheaf_doc,
    presheaf_from_json,
    presheaf_to_dot,
    representable,
    terminal,
)
from .specdsl import GsosSpec, parse_spec
from .terms import (
    App,
    T_on_element,
    Var,
    ambient_axioms,
    derive,
    monad_law_failures,
    parse_proof,
    parse_term,
    proof_depth,
    proof_label,
    proof_source,
    proof_target,
    random_layer_element,
    random_presheaf,
    random_term,
    render,
    to_terminal,
)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _usage_error(message: str) -> int:
    """Refuse a malformed invocation: one JSON line on stderr, exit code 2."""
    sys.stderr.write(json.dumps({"kind": "UsageError", "message": message}, sort_keys=True) + "\n")
    return 2


def _refuse(exc: GsosError) -> int:
    """Refuse a domain violation: one JSON line on stderr, exit code 1."""
    sys.stderr.write(
        json.dumps({"kind": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
    )
    return 1


def _load_spec(path: str) -> GsosSpec:
    return parse_spec(Path(path).read_text())


def _require_spec_labels(X: Presheaf, spec: GsosSpec, what: str) -> None:
    """Refuse a loaded system over another label set than the spec's (in any
    order): the builders trust their inputs, so a foreign label stops here."""
    if set(X.labels) != set(spec.labels):
        raise UnknownLabel(
            f"{what} is over labels {list(X.labels)}, not the spec's {list(spec.labels)}"
        )


def _load_presheaf(path: str | None, spec: GsosSpec) -> Presheaf:
    if path is None:
        return terminal(spec.labels)
    X = presheaf_from_json(Path(path).read_text())
    _require_spec_labels(X, spec, "--presheaf system")
    return X


def _load_list(option: str, path: str, is_item, what: str) -> list:
    """Read the JSON list file given to option; refuse any other document."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise MalformedSystem(f"{option} is not a JSON document: {exc}") from None
    if not isinstance(doc, list) or not all(is_item(item) for item in doc):
        raise MalformedSystem(f"{option} must be {what}")
    return doc


def _is_string_pair(item) -> bool:
    return isinstance(item, list) and len(item) == 2 and all(isinstance(t, str) for t in item)


def cmd_check(args) -> int:
    _load_spec(args.spec)
    _emit({"ok": True})
    return 0


def cmd_lts(args) -> int:
    spec = _load_spec(args.spec)
    seeds = [parse_term(spec, None, t) for t in args.term]
    frag = bisim_mod.reachable_fragment(spec, seeds, args.fuel, bisim_mod.proof_successors(spec))
    if args.format == "dot":
        sys.stdout.write(presheaf_to_dot(frag.carrier))
        return 0
    doc = {
        "carrier": presheaf_doc(frag.carrier),
        "frontier": sorted(frag.frontier),
        "states": len(frag.carrier.states),
        "transitions": frag.carrier.size()[1],
        "definitive": frag.definitive,
    }
    if args.format == "text":
        sys.stdout.write(
            f"states={doc['states']} transitions={doc['transitions']} "
            f"frontier={len(frag.frontier)}\n"
        )
        return 0
    _emit(doc)
    return 0


def cmd_bisim(args) -> int:
    spec = _load_spec(args.spec)
    t1 = parse_term(spec, None, args.t1)
    t2 = parse_term(spec, None, args.t2)
    bisim_mod.require_fuel(args.fuel, args.stratum)
    successors = bisim_mod.lean_successors(spec, False, {})
    frag = bisim_mod.reachable_fragment(spec, [t1, t2], args.fuel, successors)
    part = bisim_mod.stratified_partition(frag.carrier, args.stratum)[args.stratum]
    blocks: dict[int, list[str]] = {}
    for x, b in part.items():
        blocks.setdefault(b, []).append(x)
    _emit(
        {
            "t1": render(t1),
            "t2": render(t2),
            "k": args.stratum,
            "fuel": args.fuel,
            "bisimilar": part[render(t1)] == part[render(t2)],
            "definitive": frag.definitive,
            "states": len(frag.carrier.states),
            "blocks": sorted(sorted(b) for b in blocks.values()),
        }
    )
    return 0


def cmd_decompose(args) -> int:
    spec = _load_spec(args.spec)
    X = _load_presheaf(args.presheaf, spec)
    if args.proof:
        elem = parse_proof(spec, X, args.proof)
    elif args.term:
        elem = parse_term(spec, X, args.term)
    else:
        return _usage_error("decompose needs --proof or --term")
    dec = decompose(X, elem)
    doc = {
        "shape": render(dec.shape),
        "object": STAR if isinstance(dec.shape, (Var, App)) else proof_label(dec.shape),
        "arity": presheaf_doc(dec.arity),
        "filler": {
            "states": dict(dec.filler.state_map),
            "edges": {a: dict(dec.filler.edge_maps[a]) for a in X.labels if dec.filler.edge_maps[a]},
        },
        "generic": is_generic(X, elem),
    }
    _emit(doc)
    return 0


def cmd_certify(args) -> int:
    spec = _load_spec(args.spec)
    X = _load_presheaf(args.presheaf, spec)
    p = parse_proof(spec, X, args.proof)
    cert = cell_certificate(spec.labels, to_terminal(p))
    ok = verify_certificate(cert)
    doc = cert.to_dict()
    doc["verified"] = ok
    _emit(doc)
    return 0 if ok else 1


def cmd_lift(args) -> int:
    """Trace a transition of a collapsed system back through a covering."""
    spec = _load_spec(args.spec)
    f = morphism_from_json(Path(args.fbisim).read_text())
    _require_spec_labels(f.dom, spec, "--fbisim morphism")
    M = parse_term(spec, f.dom, args.term)
    R = parse_proof(spec, f.cod, args.proof)
    r0 = preserve_bisim_lift(f, M, R)
    _emit({"term": render(M), "proof": render(R), "preimage": render(r0)})
    return 0


def cmd_congruence(args) -> int:
    spec = _load_spec(args.spec)
    pairs_doc = _load_list(
        "--pairs", args.pairs, _is_string_pair, "a JSON list of [t1, t2] string pairs"
    )
    pairs = [
        (parse_term(spec, None, u), parse_term(spec, None, v)) for u, v in pairs_doc
    ]
    if args.contexts:
        ctx_doc = _load_list(
            "--contexts", args.contexts, lambda c: isinstance(c, str), "a JSON list of strings"
        )
        contexts = [parse_term(spec, None, c, allow_hole=True) for c in ctx_doc]
    elif args.exhaustive_contexts:
        contexts = bisim_mod.enumerate_contexts(spec, args.context_height)
    else:
        contexts = bisim_mod.sample_contexts(
            spec, args.context_height, args.sample, random.Random(args.seed)
        )
    report = bisim_mod.congruence_test(
        spec, pairs, contexts, args.stratum, args.fuel, drop_last_premise=args.mutate
    )
    report["seed"] = args.seed
    _emit(report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Property suites.  A seeded suite is a check of one case, called as
# check(spec, rng, d) and returning its failures; the others run whole.


def run_cases(check, spec: GsosSpec, seed: int, cases: int, d: int) -> dict:
    """Report the failures of check on cases 0..cases-1, each prefixed with
    its case.  Case i draws from ``random.Random(seed + i)``, so
    ``--seed <seed+i> --cases 1`` reruns it alone."""
    failures = []
    for case in range(cases):
        failures += [f"case {case}: {msg}" for msg in check(spec, random.Random(seed + case), d)]
    return {"seed": seed, "cases": cases, "failures": failures, "ok": not failures}


def _familial_failures(spec: GsosSpec, rng, d: int) -> list[str]:
    """recompose undoes decompose, and decompose is natural in the system and the base."""
    X = random_presheaf(rng, spec.labels)
    kind = rng.choice(["term", "proof"])
    try:
        elem = random_layer_element(spec, X, rng, 1, d, kind)
    except GsosError:
        return []
    dec = decompose(X, elem)
    if familial_mod.recompose(dec, X) != elem:
        return [f"recompose . decompose != id on {render(elem)}"]
    failures = []
    B, u = random_collapse(X, rng)
    dec2 = decompose(B, T_on_element(u, elem))
    if dec2.shape != dec.shape:
        failures.append("shape not natural in the ambient system")
    if not commutes(u, dec.filler, dec2.filler):
        failures.append("filler not natural in the ambient system")
    if kind == "proof":
        src_dec = decompose(X, proof_source(X, elem))
        if not commutes(dec.filler, dec.source_morphism(), src_dec.filler):
            failures.append("source filler not natural in the base")
        tgt_dec = decompose(X, proof_target(X, elem))
        if not commutes(dec.filler, dec.target_morphism(), tgt_dec.filler):
            failures.append("target filler not natural in the base")
    return failures


def _cellular_failures(spec: GsosSpec, rng, d: int) -> list[str]:
    """A proof shape's certificate replays to its source arity morphism."""
    try:
        p = random_layer_element(spec, terminal(spec.labels), rng, 1, d, "proof")
    except GsosError:
        return []
    shape = to_terminal(p)
    if not verify_certificate(cell_certificate(spec.labels, shape)):
        return [f"certificate fails on {render(shape)}"]
    return []


def _preserve_failures(spec: GsosSpec, rng, d: int) -> list[str]:
    """Each transition of depth <= d out of f(M) lifts along f to one out of M."""
    f = random_functional_bisim(rng, spec.labels)
    try:
        M = random_term(spec, rng, f.dom.states, d)
    except GsosError:
        return []
    problems = [
        R
        for R, _ in derive(spec, T_on_element(f, M), ambient_axioms(f.cod))
        if proof_depth(R) <= d
    ]
    failures = []
    for R in problems:
        try:
            preserve_bisim_lift(f, M, R)
        except GsosError as exc:
            failures.append(f"{exc} on {render(R)}")
    return failures


_CASE_CHECKS = {
    "laws": monad_law_failures,
    "familial": _familial_failures,
    "cellular": _cellular_failures,
    "preserve": _preserve_failures,
}


def _suite_cartesian(spec: GsosSpec, seed: int, d: int) -> dict:
    X = representable(spec.labels, list(spec.labels)[0])
    t_bang = window_bang(spec, X, d)
    mu_rep = check_mu_cartesian(spec, X, d, t_bang)
    eta_rep = check_eta_cartesian(X, d, t_bang)
    return {
        "seed": seed,
        "mu": mu_rep,
        "eta": eta_rep,
        "failures": [] if (mu_rep["ok"] and eta_rep["ok"]) else ["pullback failed"],
        "ok": mu_rep["ok"] and eta_rep["ok"],
    }


def _suite_congruence(spec: GsosSpec, seed: int, k: int, mutate: bool) -> dict:
    pairs_text = (resources.files("gsos") / "specs" / "ccs_pairs.json").read_text()
    pairs = [
        (parse_term(spec, None, u), parse_term(spec, None, v))
        for u, v in json.loads(pairs_text)
    ]
    contexts = bisim_mod.enumerate_contexts(spec, 2)
    report = bisim_mod.congruence_test(
        spec, pairs, contexts, k, max(k + 1, 4), drop_last_premise=mutate
    )
    report["seed"] = seed
    report["failures"] = report["violations"]
    return report


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    if args.suite in _CASE_CHECKS:
        report = run_cases(_CASE_CHECKS[args.suite], spec, args.seed, args.cases, args.depth)
    elif args.suite == "cartesian":
        report = _suite_cartesian(spec, args.seed, args.depth)
    elif args.suite == "congruence":
        report = _suite_congruence(spec, args.seed, args.stratum, args.mutate)
    else:
        return _usage_error(f"unknown suite {args.suite!r}")
    report["suite"] = args.suite
    _emit(report)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsos", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a specification")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lts", help="reachable fragment from seed terms")
    p.add_argument("spec")
    p.add_argument("--term", action="append", required=True)
    p.add_argument("--fuel", type=int, default=3)
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("bisim", help="stratified equivalence of two closed terms")
    p.add_argument("spec")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("-k", "--stratum", type=int, default=3)
    p.add_argument("--fuel", type=int, default=4)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("decompose", help="generic-free factorisation of an element")
    p.add_argument("spec")
    p.add_argument("--proof")
    p.add_argument("--term")
    p.add_argument("--presheaf", help="ambient system (JSON file); defaults to the terminal one")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("certify", help="cellularity certificate of a proof's shape")
    p.add_argument("spec")
    p.add_argument("--proof", required=True)
    p.add_argument("--presheaf")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("lift", help="preimage of a transition along a functional bisimulation")
    p.add_argument("spec")
    p.add_argument("--fbisim", required=True, help="morphism JSON file (must be a functional bisimulation)")
    p.add_argument("--term", required=True, help="term over the morphism's domain")
    p.add_argument("--proof", required=True, help="transition over the codomain with source the term's image")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("spec")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("-d", "--depth", type=int, default=2)
    p.add_argument("-k", "--stratum", type=int, default=3)
    p.add_argument("--mutate", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("congruence", help="context preservation of stratified equivalence")
    p.add_argument("spec")
    p.add_argument("--pairs", required=True, help="JSON file: list of [t1, t2] term strings")
    p.add_argument("--contexts", help="JSON file: list of one-hole context strings")
    p.add_argument("--context-height", type=int, default=3)
    p.add_argument("--sample", type=int, default=60, help="number of sampled contexts")
    p.add_argument(
        "--exhaustive-contexts",
        action="store_true",
        help="enumerate every context up to the height bound (tiny signatures)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-k", "--stratum", type=int, default=3)
    p.add_argument("--fuel", type=int, default=4)
    p.add_argument("--mutate", action="store_true")
    p.set_defaults(func=cmd_congruence)

    return ap


# Options that count steps, strata, levels or cases, by argparse destination.
_COUNT_OPTIONS = {
    "fuel": "--fuel",
    "stratum": "-k/--stratum",
    "depth": "-d/--depth",
    "cases": "--cases",
    "sample": "--sample",
    "context_height": "--context-height",
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for dest, option in _COUNT_OPTIONS.items():
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            return _usage_error(f"{option} must be non-negative, got {value}")
    if "GSOS_SEED" in os.environ and hasattr(args, "seed"):
        try:
            args.seed = int(os.environ["GSOS_SEED"])
        except ValueError:
            return _usage_error(
                f"GSOS_SEED must be an integer, not {os.environ['GSOS_SEED']!r}"
            )
    try:
        return args.func(args)
    except SpecParseError as exc:
        for v in exc.violations:
            sys.stderr.write(json.dumps(v.to_dict(), sort_keys=True) + "\n")
        return 1
    except GsosError as exc:
        return _refuse(exc)
    except RecursionError:
        # parse, render, derive and the arity walk recurse once per level
        return _refuse(
            NestingTooDeep(
                f"input nested too deeply (interpreter recursion limit {sys.getrecursionlimit()})"
            )
        )
    except OSError as exc:
        sys.stderr.write(json.dumps({"kind": "IOError", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
