"""Spans and counters around the public functions of each gsos layer.

The program is not changed: :meth:`Tracer.install` replaces every binding
of a traced function in the loaded ``gsos`` modules by a wrapper, so calls
made through names imported with ``from .x import f`` are seen too.  Inner
recursions and per-node helpers (``render``, ``map_leaves``, ``go``) are
left alone; a run makes hundreds of thousands of calls to them and their
spans would swamp the timings.

A span's self time is its duration minus the time its child spans cover.
Counter hooks run after the span has closed, and their cost is charged to
no span, so it shows only as tracing overhead.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer module, attribute path) of every traced function.  A metric is
# named <layer>.<path>.<measure>.
TRACED = (
    ("specdsl", "parse_spec"),
    ("cli", "main"),
    ("terms", "derive"),
    ("terms", "truncated_free"),
    ("terms", "truncated_free_squared"),
    ("terms", "mu"),
    ("terms", "parse_term"),
    ("terms", "parse_proof"),
    ("presheaf", "make_presheaf"),
    ("presheaf", "Presheaf.out_edges"),
    ("presheaf", "pullback_report"),
    ("presheaf", "colimit"),
    ("presheaf", "is_functional_bisimulation"),
    ("familial", "decompose"),
    ("familial", "recompose"),
    ("familial", "arity_label"),
    ("familial", "arity_tgt_morphism"),
    ("cellular", "cell_certificate"),
    ("cellular", "replay_certificate"),
    ("cellular", "lift_against"),
    ("cellular", "preserve_bisim_lift"),
    ("cellular", "check_mu_cartesian"),
    ("cellular", "check_eta_cartesian"),
    ("bisim", "reachable_fragment"),
    ("bisim", "stratified_partition"),
    ("bisim", "enumerate_contexts"),
    ("bisim", "congruence_test"),
)
SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)

WINDOW_BUILDERS = ("terms.truncated_free", "terms.truncated_free_squared")

# Exact counts, identical in every pass of one workload and seed.
COUNTERS = (
    "terms.derive.proofs",
    "terms.window_states",
    "terms.window_edges",
    "terms.window_proofs",
    "bisim.fragment_states",
    "bisim.fragment_edges",
    "bisim.fragment_distinct_states",
    "bisim.refine_rounds",
)


def refine_rounds(history: list[dict]) -> int:
    """Rounds a stratified refiner needs before its partition is stable.

    Refinement only splits blocks, so the partition is stable at the first
    stratum whose block count equals the previous one; if none, all k
    rounds are needed.  Read from the returned strata, so the count does
    not depend on how the refiner numbers its blocks.
    """
    counts = [len(set(level.values())) for level in history]
    for i in range(1, len(counts)):
        if counts[i] == counts[i - 1]:
            return i
    return len(counts) - 1


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.fragment_keys: set[str] = set()
        self.layer_s = 0.0  # time inside spans called directly by cli.main
        self.missing: list[str] = []

    # -- counter hooks: (tracer, parent span name, call args, result) --------

    def _derive(self, parent, args, result):
        self.counts["terms.derive.proofs"] += len(result)
        if parent in WINDOW_BUILDERS:
            self.counts["terms.window_proofs"] += len(result)

    def _window(self, parent, args, result):
        states, edges = result[0].size()
        self.counts["terms.window_states"] += states
        self.counts["terms.window_edges"] += edges

    def _fragment(self, parent, args, result):
        states, edges = result.carrier.size()
        self.counts["bisim.fragment_states"] += states
        self.counts["bisim.fragment_edges"] += edges
        self.fragment_keys.update(result.carrier.states)
        self.counts["bisim.fragment_distinct_states"] = len(self.fragment_keys)

    def _partition(self, parent, args, result):
        self.counts["bisim.refine_rounds"] += refine_rounds(result)

    HOOKS = {
        "terms.derive": _derive,
        "terms.truncated_free": _window,
        "terms.truncated_free_squared": _window,
        "bisim.reachable_fragment": _fragment,
        "bisim.stratified_partition": _partition,
    }

    def wrap(self, name: str, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        hook = self.HOOKS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[name] += t1 - t0 - frame[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                if hook is not None and not raised:
                    hook(self, parent and parent[0], args, result)
                if parent is not None:
                    parent[1] += perf_counter() - t0
                    if parent[0] == "cli.main":
                        self.layer_s += t1 - t0

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding in the gsos modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "gsos" or n.startswith("gsos.")]
        for mod, path in TRACED:
            owner = sys.modules.get(f"gsos.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod}.{path}")
                continue
            wrapper = self.wrap(f"{mod}.{path}", original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-span self time and calls, the counters, and span coverage."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["trace.layer_cover_ratio"] = self.layer_s / wall_s if wall_s else 0.0
        return out
