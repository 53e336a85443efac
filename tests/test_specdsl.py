import pytest

from gsos.errors import SpecParseError
from gsos.specdsl import parse_spec, validate
from gsos.terms import App, Var

from oracles import rule_named
from round_trips import pretty_print


def kinds(exc: SpecParseError) -> set[str]:
    return {v.kind for v in exc.violations}


def test_ccs_parses_and_validates(ccs):
    assert validate(ccs) == []
    names = [r.name for r in ccs.rules]
    assert "sync" in names and "rsync" in names
    # 3 prefixes + 4 templated families over a 3-class + sync + rsync
    assert len(ccs.rules) == 3 + 4 * 3 + 2


def test_every_expanded_rule_is_well_formed(ccs, toy):
    """Distinct binders, bound target variables, matching group sizes."""
    from gsos.terms import term_vars

    for spec in (ccs, toy):
        for r in spec.rules:
            n = spec.signature.arity(r.op)
            assert len(r.premise_labels) == n
            assert r.premise_counts == tuple(len(g) for g in r.premise_labels)
            binders = {f"x{i + 1}" for i in range(n)}
            for i, group in enumerate(r.premise_labels):
                for j, lab in enumerate(group):
                    assert lab in spec.labels
                    binder = f"y{i + 1}_{j + 1}"
                    assert binder not in binders
                    binders.add(binder)
            assert set(term_vars(r.target)) <= binders
            assert r.label in spec.labels


def test_lpar_template_expands_per_label(ccs):
    lpars = [r for r in ccs.rules if r.base_name == "lpar"]
    assert [r.label for r in lpars] == ["a", "a_bar", "tau"]
    for r in lpars:
        assert r.premise_counts == (1, 0)
        assert r.premise_labels[0] == (r.label,)


def test_rsync_has_two_premises_on_one_argument(ccs):
    r = rule_named(ccs, "rsync")
    assert r.premise_counts == (2,)
    assert r.premise_labels == (("a_bar", "a"),)
    assert r.target == App(
        "par", (App("bang", (Var("x1"),)), App("par", (Var("y1_1"), Var("y1_2"))))
    )


def test_nested_source_rejected_as_non_gsos():
    text = """
labels a ;
op f : 1 ;
op g : 1 ;
rule bad : premises x1 -[a]-> y1_1 ; conclusion f(g(x1)) -[a]-> f(g(y1_1)) ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "NonGsosSource" in kinds(exc.value)


@pytest.mark.parametrize(
    "source, kind",
    [
        ("f(x2,x1)", "NonGsosSource"),
        ("f(x1,x1)", "NonGsosSource"),
        ("f(x1)", "ArityMismatch"),
        ("f(x1,x2,x3)", "ArityMismatch"),
        ("f(x1,nil)", "NonGsosSource"),
    ],
)
def test_rejection_is_complete_for_malformed_sources(source, kind):
    text = f"""
labels a ;
op f : 2 ;
op nil : 0 ;
rule bad : premises x1 -[a]-> y1_1 ; conclusion {source} -[a]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert kind in kinds(exc.value)


def test_premise_subject_beyond_arity():
    text = """
labels a ;
op f : 2 ;
rule bad : premises x3 -[a]-> y3_1 ; conclusion f(x1,x2) -[a]-> x1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "ArityMismatch" in kinds(exc.value)


@pytest.mark.parametrize(
    "subject, kind",
    [
        ("x01", "NonGsosSource"),
        ("x0", "ArityMismatch"),
        ("x3", "ArityMismatch"),
        pytest.param("x" + "1" * 5000, "ArityMismatch", id="x-5000-digits"),
    ],
)
def test_premise_subject_is_literally_an_argument_variable(subject, kind):
    text = f"""
labels a ;
op f : 2 ;
rule bad : premises {subject} -[a]-> y1_1 ; conclusion f(x1,x2) -[a]-> x1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert [v.kind for v in exc.value.violations] == [kind]


# Checks that no single-token edit of ccs.gsos reaches.
@pytest.mark.parametrize(
    "text, kind",
    [
        (
            "labels a ;\nop f : 2 ;\nrule r : premises x1 -[a]-> y1_1 ; x2 -[a]-> y2_1 ; x1 -[a]-> y1_2 ;"
            " conclusion f(x1,x2) -[a]-> x1 ;\n",
            "NonGsosSource",
        ),
        (
            "labels a ;\nclass C = { a } ;\nop f : 1 ;\nrule r [forall L in C, L in C] : conclusion f(x1) -[L]-> x1 ;\n",
            "DuplicateBoundVariable",
        ),
        ("labels a ;\nop f : 1 ;\nrule r : premises x1 -[a]-> y1_1 ;\n", "SyntaxError"),
        ("labels a ; $\n", "SyntaxError"),
    ],
)
def test_rule_checks_beyond_ccs_mutants(text, kind):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert [v.kind for v in exc.value.violations] == [kind]


def test_unbound_target_variable():
    text = """
labels a ;
op f : 1 ;
rule bad : premises x1 -[a]-> y1_1 ; conclusion f(x1) -[a]-> y1_2 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "UnboundTargetVariable" in kinds(exc.value)


def test_duplicate_bound_variable():
    text = """
labels a, b ;
op f : 1 ;
rule bad : premises x1 -[a]-> y1_1 ; x1 -[b]-> y1_1 ; conclusion f(x1) -[a]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "DuplicateBoundVariable" in kinds(exc.value)


def test_unknown_label_in_premise():
    text = """
labels a ;
op f : 1 ;
rule bad : premises x1 -[c]-> y1_1 ; conclusion f(x1) -[a]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "UnknownLabel" in kinds(exc.value)


def test_empty_spec_is_a_syntax_error():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("")
    assert "SyntaxError" in kinds(exc.value)


def test_expansion_counts_single_variable():
    text = """
labels a, b, c ;
class Act = { a, b, c } ;
op f : 1 ;
rule r [forall L in Act] : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;
"""
    spec = parse_spec(text)
    assert len(spec.rules) == 3


def test_expansion_counts_two_variables():
    text = """
labels a, b ;
class Act = { a, b } ;
op f : 1 ;
rule r [forall L in Act, K in Act] :
  premises x1 -[L]-> y1_1 ;
  conclusion f(x1) -[K]-> y1_1 ;
"""
    spec = parse_spec(text)
    assert len(spec.rules) == 4
    assert [r.name for r in spec.rules] == [
        "r[L=a,K=a]",
        "r[L=a,K=b]",
        "r[L=b,K=a]",
        "r[L=b,K=b]",
    ]


def test_no_variables_is_singleton(toy):
    assert len(toy.rules) == 1
    assert toy.rules[0].name == "step"


def test_forall_without_brackets_accepted():
    text = """
labels a, b ;
class Act = { a, b } ;
op f : 1 ;
rule r forall L in Act : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;
"""
    assert len(parse_spec(text).rules) == 2


def test_empty_label_class_reported():
    text = """
labels a ;
class Act = { } ;
op f : 1 ;
rule r [forall L in Act] : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert kinds(exc.value) == {"SyntaxError"}


def test_duplicate_label_class_rejected():
    text = """
labels a, b ;
class Act = { a } ;
class Act = { b } ;
op f : 1 ;
rule r [forall L in Act] : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert [v.kind for v in exc.value.violations] == ["DuplicateId"]


def test_round_trip_bundled(ccs, toy):
    for spec in (ccs, toy):
        assert parse_spec(pretty_print(spec)) == spec


def test_round_trip_inline():
    text = """
labels a, b ;
class Act = { a, b } ;
op nil : 0 ;
op f : 2 ;
rule r [forall L in Act] :
  premises x2 -[L]-> y2_1 ;
  conclusion f(x1,x2) -[L]-> f(y2_1, nil) ;
"""
    spec = parse_spec(text)
    assert parse_spec(pretty_print(spec)) == spec


def test_zero_premise_rule_and_dedup():
    text = """
labels a, b ;
class Act = { a, b } ;
op k : 0 ;
# the label variable is unused, so expansion collapses to one rule
rule r [forall L in Act] : conclusion k -[a]-> k ;
"""
    spec = parse_spec(text)
    assert len(spec.rules) == 1
    assert spec.rules[0].premise_counts == ()


def test_reserved_operation_names_rejected():
    text = """
labels a ;
op var : 1 ;
rule r : premises x1 -[a]-> y1_1 ; conclusion var(x1) -[a]-> y1_1 ;
"""
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert "SyntaxError" in kinds(exc.value)
    # rule names share the proof syntax: ax(...) and term(...) would misread
    for name in ("ax", "term"):
        text = f"labels a ;\nop p : 1 ;\nrule {name} : conclusion p(x1) -[a]-> x1 ;\n"
        with pytest.raises(SpecParseError) as exc:
            parse_spec(text)
        assert [(v.kind, v.rule) for v in exc.value.violations] == [("SyntaxError", name)]
