"""Writers and loaders that only the tests call.

No ``gsos`` subcommand prints a spec, writes a morphism file or loads a
bundled spec by name, so these left the package: ``pretty_print`` writes
a spec in canonical form, which ``parse_spec`` reads back as an equal spec,
and ``morphism_to_json`` writes the document that ``morphism_from_json``
reads.  The tests write a system file as ``json.dumps(presheaf_doc(X))``.
"""

import json
from importlib import resources

from gsos.presheaf import PresheafMorphism, presheaf_doc
from gsos.specdsl import GsosSpec, parse_spec
from gsos.terms import Term, Var


def bundled_spec_path(name: str):
    """Filesystem path of a bundled .gsos spec ("ccs" or "toy")."""
    return resources.files("gsos") / "specs" / f"{name}.gsos"


def load_bundled_spec(name: str) -> GsosSpec:
    return parse_spec(bundled_spec_path(name).read_text())


def morphism_to_json(f: PresheafMorphism) -> str:
    doc = {
        "dom": presheaf_doc(f.dom),
        "cod": presheaf_doc(f.cod),
        "states": {x: f.state_map[x] for x in f.dom.states},
        "edges": {a: {e: f.edge_maps[a][e] for e in f.dom.edges[a]} for a in f.dom.labels},
    }
    return json.dumps(doc, separators=(",", ":"))


def pretty_print(spec: GsosSpec) -> str:
    lines = []
    lines.append("labels " + ", ".join(spec.labels) + " ;")
    for name, members in spec.label_classes:
        lines.append(f"class {name} = {{ " + ", ".join(members) + " } ;")
    lines.append("")
    for f, n in spec.signature.operations:
        lines.append(f"op {f} : {n} ;")
    lines.append("")
    for tpl in spec.templates:
        head = f"rule {tpl.name}"
        if tpl.foralls:
            head += " [forall " + ", ".join(f"{v} in {c}" for v, c in tpl.foralls) + "]"
        head += " :"
        lines.append(head)
        if tpl.premises:
            prems = " ; ".join(
                f"{pr.subject} -[{pr.label}]-> {pr.binder}" for pr in tpl.premises
            )
            lines.append(f"  premises {prems} ;")
        lines.append(
            f"  conclusion {_rule_term_str(tpl.conclusion_source)}"
            f" -[{tpl.conclusion_label}]-> {_rule_term_str(tpl.target)} ;"
        )
    return "\n".join(lines) + "\n"


def _rule_term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}(" + ", ".join(_rule_term_str(a) for a in t.args) + ")"
