import pytest
from hypothesis import example, given, settings, strategies as st

from grothkit import build
from grothkit.fincat import (
    FunctorData,
    id_name,
    identity_functor,
    make_category,
    validate_category,
    validate_diagram,
    validate_functor,
    validate_nat_trans,
)
from grothkit.report import ValidationError

import corpus
from helpers import associativity_witnesses, group_axiom_failures, reference_strict_composition


def z3_arrows_and_comp(mutate=None):
    arrows = [("r1", "*", "*"), ("r2", "*", "*")]
    comp = {
        ("r1", "r1"): "r2",
        ("r1", "r2"): id_name("*"),
        ("r2", "r1"): id_name("*"),
        ("r2", "r2"): "r1",
    }
    if mutate:
        comp[mutate[0]] = mutate[1]
    return arrows, comp


class TestValidateCategory:
    def test_walking_arrow_tables(self):
        c = make_category("wa", ["a", "b"], [("f", "a", "b")], {})
        assert len(c.mors) == 3
        assert c.comp[(c.identity["b"], "f")] == "f"

    def test_z3_delooping_table(self):
        elems, table = build.cyclic_table(3)
        # oracle: the table really is a group before we build on it
        assert group_axiom_failures(elems, table, "r0") == []
        c = build.delooping(elems, table)
        assert len(c.objects) == 1 and len(c.mors) == 3

    def test_mutated_z3_reports_associativity_triple(self):
        arrows, comp = z3_arrows_and_comp(mutate=(("r2", "r2"), "r2"))
        with pytest.raises(ValidationError) as err:
            make_category("bad", ["*"], arrows, comp)
        failures = [c for c in err.value.report.checks if not c.passed]
        assert any(c.name == "associativity" for c in failures)
        assert all("∘" in c.counterexample for c in failures)

    def test_dangling_identifier_named(self):
        with pytest.raises(ValidationError) as err:
            make_category("bad", ["a"], [("f", "a", "zz")], {})
        assert any(c.name == "dangling-identifier" for c in err.value.report.checks)

    def test_partial_composition_table(self):
        with pytest.raises(ValidationError) as err:
            make_category("bad", ["a"], [("f", "a", "a"), ("g", "a", "a")], {})
        bad = [c for c in err.value.report.checks if not c.passed]
        assert all(c.name == "composition-total" for c in bad)
        assert len(bad) == 4

    def test_explicit_validate_category(self):
        c = validate_category(
            ["x"],
            [("id_x", "x", "x")],
            {"x": "id_x"},
            {("id_x", "id_x"): "id_x"},
        )
        assert c.is_discrete()


class TestBuilders:
    def test_discrete_zero_is_empty(self):
        c = build.discrete(0)
        assert c.objects == () and c.mors == ()

    def test_product_counts(self):
        p = build.product(build.walking_arrow(), build.walking_arrow())
        assert len(p.objects) == 4
        assert len(p.mors) == 9  # 3 x 3 morphism pairs

    def test_opposite_involution(self):
        for c in (build.walking_arrow(), build.chain(3), build.commuting_square_poset()):
            assert build.opposite(build.opposite(c)).tables_equal(c)

    def test_poset_closure(self):
        c = build.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert "le(a,c)" in c.mors

    def test_poset_antisymmetry_rejected(self):
        with pytest.raises(ValidationError):
            build.poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_delooping_rejects_non_group(self):
        table = {("a", "a"): "a", ("a", "e"): "a", ("e", "a"): "a", ("e", "e"): "e"}
        with pytest.raises(ValidationError) as err:
            build.delooping(["e", "a"], table)
        assert any("inverse" in (c.counterexample or "") or c.name == "inverses"
                   for c in err.value.report.checks)

    def test_delooping_refuses_a_loop_that_is_not_associative(self):
        # a loop of order 5: a unit and two-sided inverses, but (b·a)·a != b·(a·a)
        names, rows = ["e", "a", "b", "c", "d"], ["eabcd", "aecdb", "bdeac", "cbdea", "dcabe"]
        table = {(x, y): rows[i][j] for i, x in enumerate(names) for j, y in enumerate(names)}
        assert {fail.split()[0] for fail in group_axiom_failures(names, table, "e")} == {"associativity"}
        with pytest.raises(ValidationError) as err:
            build.delooping(names, table, name="L5")
        checks = err.value.report.checks
        assert err.value.report.title == "validate category L5"
        assert {c.name for c in checks} == {"associativity"}
        assert checks[0].counterexample == "(b∘a)∘a = c but b∘(a∘a) = b"

    def test_slice_object_count_law(self):
        c = build.commuting_square_poset()
        for target in c.objects:
            sl = build.slice_category(c, target)
            assert len(sl.objects) == sum(len(c.hom(x, target)) for x in c.objects)

    def test_slice_unknown_object(self):
        with pytest.raises(ValidationError):
            build.slice_category(build.terminal(), "nope")

    def test_coslice_dual_to_slice(self):
        c = build.chain(3)
        cos = build.coslice_category(c, "0")
        sl = build.slice_category(build.opposite(c), "0")
        assert len(cos.objects) == len(sl.objects)
        assert len(cos.mors) == len(sl.mors)

    def test_walking_iso_is_groupoid(self):
        c = build.walking_iso()
        assert all(c.inverse(m) is not None for m in c.mors)


class TestValidators:
    def test_identity_functor_valid(self):
        c = build.chain(3)
        t = identity_functor(c)
        validate_functor(c, c, t.ob_map, t.mor_map)

    def test_constant_diagram_valid(self):
        d = build.constant_diagram(build.walking_arrow(), build.walking_iso())
        assert d.at_mor["f"].is_identity_functor()

    def test_diagram_strictness_violation_names_pair(self):
        ch = build.chain(3)
        wi = build.walking_iso()
        swap = validate_functor(
            wi, wi, {"a": "b", "b": "a"},
            {id_name("a"): id_name("b"), id_name("b"): id_name("a"), "f": "g", "g": "f"},
            name="swap",
        )
        with pytest.raises(ValidationError) as err:
            validate_diagram(
                ch,
                {x: wi for x in ch.objects},
                {
                    id_name("0"): identity_functor(wi),
                    id_name("1"): identity_functor(wi),
                    id_name("2"): identity_functor(wi),
                    "le(0,1)": swap,
                    "le(1,2)": swap,
                    "le(0,2)": swap,  # should be swap∘swap = id
                },
            )
        bad = err.value.report.first_failure()
        assert bad.name == "strict-composition"
        assert "le(0,2)" in bad.counterexample

    def test_strict_composition_lines_match_reference(self):
        """One functor of a valid diagram is replaced by an unvalidated copy that differs
        at one object, then at one morphism; the lines match a composite-building scan.
        A copy at an identity breaks strict identity, so the pairs with an identity,
        skipped otherwise, are compared as well."""
        failing = 0
        for d in corpus.corpus_diagrams():
            base = d.base
            if all(base.is_identity(g) or base.is_identity(f) for g, f in base.composable_pairs()):
                continue
            for h in base.mors:
                t = d.at_mor[h]
                x, m = t.dom.objects[0], t.dom.mors[0]
                other_ob = next((y for y in t.cod.objects if y != t.ob_map[x]), None)
                other_mor = next((n for n in t.cod.mors if n != t.mor_map[m]), None)
                copies = []
                if other_ob is not None:
                    copies.append(FunctorData("copy", t.dom, t.cod, {**t.ob_map, x: other_ob}, t.mor_map))
                if other_mor is not None:
                    copies.append(FunctorData("copy", t.dom, t.cod, t.ob_map, {**t.mor_map, m: other_mor}))
                for copy in copies:
                    at_mor = {**d.at_mor, h: copy}
                    expected = reference_strict_composition(base, at_mor)
                    try:
                        validate_diagram(base, d.at_ob, at_mor)
                        lines = []
                    except ValidationError as err:
                        lines = [(c.name, c.counterexample) for c in err.report.checks]
                    assert [line for line in lines if line[0] == "strict-composition"] == expected
                    failing += bool(expected)
        assert failing > 0

    def test_nat_trans_naturality_violation(self):
        wa = build.walking_arrow()
        wi = build.walking_iso()
        into = validate_functor(
            wa, wi, {"a": "a", "b": "b"},
            {id_name("a"): id_name("a"), id_name("b"): id_name("b"), "f": "f"},
        )
        const_a = validate_functor(
            wa, wi, {"a": "a", "b": "a"},
            {id_name("a"): id_name("a"), id_name("b"): id_name("a"), "f": id_name("a")},
        )
        # component at b must be g: b -> a; picking id_a breaks the boundary
        with pytest.raises(ValidationError):
            validate_nat_trans(into, const_a, {"a": id_name("a"), "b": id_name("a")})
        validate_nat_trans(into, const_a, {"a": id_name("a"), "b": "g"})


BASES = st.sampled_from(["terminal", "walking_arrow", "walking_iso", "discrete2", "chain3"])


def _stock(name):
    return {
        "terminal": build.terminal,
        "walking_arrow": build.walking_arrow,
        "walking_iso": build.walking_iso,
        "discrete2": lambda: build.discrete(2),
        "chain3": lambda: build.chain(3),
        # b∘a = c∘a = u: two maps u -> b and u -> c of the slice over x share w = a and m1 = u
        "parallel": lambda: make_category("parallel", ["p", "q", "x"],
                                          [("a", "p", "q"), ("b", "q", "x"), ("c", "q", "x"), ("u", "p", "x")],
                                          {("b", "a"): "u", ("c", "a"): "u"}),
    }[name]()


class TestBuilderProperties:
    @settings(max_examples=25, deadline=None)
    @given(BASES, BASES)
    def test_product_laws(self, a, b):
        c, d = _stock(a), _stock(b)
        p = build.product(c, d)  # construction re-validates all laws
        assert len(p.objects) == len(c.objects) * len(d.objects)
        assert len(p.mors) == len(c.mors) * len(d.mors)

    @settings(max_examples=25, deadline=None)
    @given(BASES)
    def test_opposite_preserves_counts_and_laws(self, a):
        c = _stock(a)
        op = build.opposite(c)
        assert sorted(op.objects) == sorted(c.objects)
        assert sorted(op.mors) == sorted(c.mors)
        assert associativity_witnesses(op) == []

    @settings(max_examples=25, deadline=None)
    @given(BASES, st.integers(min_value=0, max_value=3))
    @example("parallel", 2)
    def test_slice_is_a_category(self, a, idx):
        c = _stock(a)
        if not c.objects:
            return
        target = c.objects[idx % len(c.objects)]
        sl = build.slice_category(c, target)
        assert associativity_witnesses(sl) == []

