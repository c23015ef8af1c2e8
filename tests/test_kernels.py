"""The shared kernels: cartesian fill-ins, functor comparison, inverse functors, pair names,
categories of pairs and report summaries and verdicts."""

import pytest
from hypothesis import given, settings, strategies as st

from grothkit import build
from grothkit.fincat import (
    FunctorData,
    first_disagreement,
    identity_functor,
    inverse_functor,
    pair_mor_id,
    validate_functor,
)
from grothkit.groth import groth
from grothkit.opfib import _fill_ins, pullback_opfib
from grothkit.report import Check, Report, UsageError

import corpus
from helpers import all_functor_tables, reference_first_disagreement
from test_messages import inversion3, swap2, two_fill_in_functor


class TestFillIns:
    def test_none(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "id_u") == []

    def test_one(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "m") == ["id_v"]

    def test_two_in_listing_order(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "e") == ["n1", "n2"]

    def test_respects_over(self):
        assert _fill_ins(two_fill_in_functor(), "m", "f", "e") == []


class TestFirstDisagreement:
    def test_equal_functors(self):
        bz3, inv = inversion3()
        assert first_disagreement((inv,), (inv,)) is None
        assert first_disagreement((identity_functor(bz3),), (identity_functor(bz3),)) is None

    def test_object_before_morphism(self):
        d2, swap = swap2()
        assert first_disagreement((swap,), (identity_functor(d2),)) == ("object", "x0")

    def test_morphism_in_listing_order(self):
        bz3, inv = inversion3()
        assert first_disagreement((inv,), (identity_functor(bz3),)) == ("morphism", "r1")

    def test_path_that_does_not_compose(self):
        wa, one = build.walking_arrow(), build.terminal()
        bang = validate_functor(wa, one, {"a": "*", "b": "*"}, {"id_a": "id_*", "id_b": "id_*", "f": "id_*"})
        with pytest.raises(UsageError):
            first_disagreement((bang, bang), (bang,))
        with pytest.raises(UsageError):
            first_disagreement((bang,), (bang, bang))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_paths_match_reference(self, data):
        start, end = data.draw(st.integers(0, len(PATH_CATS) - 1)), data.draw(st.integers(0, len(PATH_CATS) - 1))
        left, right = data.draw(functor_paths(start, end)), data.draw(functor_paths(start, end))
        assert first_disagreement(left, right) == reference_first_disagreement(left, right)


# small categories with few functors between each pair, so that random paths often agree
PATH_CATS = [build.terminal(), build.discrete(2), build.walking_arrow(), build.walking_iso(), corpus.bz(2)]
PATH_TABLES = {(i, j): all_functor_tables(c, d) for i, c in enumerate(PATH_CATS) for j, d in enumerate(PATH_CATS)}


@st.composite
def functor_paths(draw, start: int, end: int):
    """A path of 0 to 3 functors from PATH_CATS[start] to PATH_CATS[end], in composition order."""
    length = draw(st.integers(0 if start == end else 1, 3))
    stops = [start] + [draw(st.integers(0, len(PATH_CATS) - 1)) for _ in range(length - 1)] + [end]
    functors = [
        FunctorData(f"F{k}", PATH_CATS[i], PATH_CATS[j], *draw(st.sampled_from(PATH_TABLES[(i, j)])))
        for k, (i, j) in enumerate(zip(stops[:length], stops[1:]))
    ]
    return tuple(reversed(functors))


class TestInverseFunctor:
    def test_inverts_an_isomorphism(self):
        bz3, inv = inversion3()
        back = inverse_functor(inv, "back")
        assert back.name == "back" and back.dom is bz3 and back.cod is bz3
        assert dict(back.mor_map) == {"id_*": "id_*", "r2": "r1", "r1": "r2"}


class TestPairMorId:
    def test_identity_pair_is_named_after_its_object(self):
        wa, ch = build.walking_arrow(), build.chain(2)
        assert pair_mor_id(wa, ch, "id_a", "id_1") == "id_(a,1)"
        assert pair_mor_id(wa, ch, "f", "id_1") == "(f,id_1)"
        assert pair_mor_id(wa, ch, "id_b", "le(0,1)") == "(id_b,le(0,1))"


def _non_identity_composites(c):
    return [(gf, h) for gf, h in c.comp.items() if not (c.is_identity(gf[0]) or c.is_identity(gf[1]))]


class TestPairCategoryOrders:
    """Listing orders of products and pullbacks; CLI output and search cost depend on them."""

    def test_product(self):
        p = build.product(build.walking_arrow(), build.chain(3))
        assert p.name == "product(walking_arrow,chain(3))"
        assert list(p.objects) == ["(a,0)", "(a,1)", "(a,2)", "(b,0)", "(b,1)", "(b,2)"]
        assert list(p.non_identity_mors()) == [
            "(id_a,le(0,1))", "(id_a,le(0,2))", "(id_a,le(1,2))",
            "(id_b,le(0,1))", "(id_b,le(0,2))", "(id_b,le(1,2))",
            "(f,id_0)", "(f,id_1)", "(f,id_2)", "(f,le(0,1))", "(f,le(0,2))", "(f,le(1,2))",
        ]
        composites = [
            (("(id_a,le(1,2))", "(id_a,le(0,1))"), "(id_a,le(0,2))"),
            (("(f,id_1)", "(id_a,le(0,1))"), "(f,le(0,1))"),
            (("(f,le(1,2))", "(id_a,le(0,1))"), "(f,le(0,2))"),
            (("(f,id_2)", "(id_a,le(0,2))"), "(f,le(0,2))"),
            (("(f,id_2)", "(id_a,le(1,2))"), "(f,le(1,2))"),
            (("(id_b,le(1,2))", "(id_b,le(0,1))"), "(id_b,le(0,2))"),
            (("(id_b,le(0,1))", "(f,id_0)"), "(f,le(0,1))"),
            (("(id_b,le(0,2))", "(f,id_0)"), "(f,le(0,2))"),
            (("(id_b,le(1,2))", "(f,id_1)"), "(f,le(1,2))"),
            (("(id_b,le(1,2))", "(f,le(0,1))"), "(f,le(0,2))"),
        ]
        # the non-identity composites are inserted first, in this order
        assert list(p.comp.items())[: len(composites)] == composites
        assert _non_identity_composites(p) == composites

    def test_product_projections(self):
        p, fst, snd = build.product_projections(build.walking_arrow(), build.chain(3))
        assert (fst.name, snd.name) == ("fst[product(walking_arrow,chain(3))]", "snd[product(walking_arrow,chain(3))]")
        assert list(fst.ob_map.items()) == [
            ("(a,0)", "a"), ("(a,1)", "a"), ("(a,2)", "a"), ("(b,0)", "b"), ("(b,1)", "b"), ("(b,2)", "b"),
        ]
        assert list(snd.ob_map.items()) == [
            ("(a,0)", "0"), ("(a,1)", "1"), ("(a,2)", "2"), ("(b,0)", "0"), ("(b,1)", "1"), ("(b,2)", "2"),
        ]
        assert list(fst.mor_map.items()) == [
            ("id_(a,0)", "id_a"), ("id_(a,1)", "id_a"), ("id_(a,2)", "id_a"),
            ("(id_a,le(0,1))", "id_a"), ("(id_a,le(0,2))", "id_a"), ("(id_a,le(1,2))", "id_a"),
            ("id_(b,0)", "id_b"), ("id_(b,1)", "id_b"), ("id_(b,2)", "id_b"),
            ("(id_b,le(0,1))", "id_b"), ("(id_b,le(0,2))", "id_b"), ("(id_b,le(1,2))", "id_b"),
            ("(f,id_0)", "f"), ("(f,id_1)", "f"), ("(f,id_2)", "f"),
            ("(f,le(0,1))", "f"), ("(f,le(0,2))", "f"), ("(f,le(1,2))", "f"),
        ]
        assert list(snd.mor_map.items()) == [
            ("id_(a,0)", "id_0"), ("id_(a,1)", "id_1"), ("id_(a,2)", "id_2"),
            ("(id_a,le(0,1))", "le(0,1)"), ("(id_a,le(0,2))", "le(0,2)"), ("(id_a,le(1,2))", "le(1,2)"),
            ("id_(b,0)", "id_0"), ("id_(b,1)", "id_1"), ("id_(b,2)", "id_2"),
            ("(id_b,le(0,1))", "le(0,1)"), ("(id_b,le(0,2))", "le(0,2)"), ("(id_b,le(1,2))", "le(1,2)"),
            ("(f,id_0)", "id_0"), ("(f,id_1)", "id_1"), ("(f,id_2)", "id_2"),
            ("(f,le(0,1))", "le(0,1)"), ("(f,le(0,2))", "le(0,2)"), ("(f,le(1,2))", "le(1,2)"),
        ]
        assert p.tables_equal(build.product(build.walking_arrow(), build.chain(3)))

    def test_pullback_along_a_chain_inclusion(self):
        c4, c3 = build.chain(4), build.chain(3)
        gt = groth(build.constant_diagram(c4, build.discrete(2)))
        h = validate_functor(
            c3, c4, {"0": "0", "1": "1", "2": "3"},
            {"id_0": "id_0", "id_1": "id_1", "id_2": "id_3",
             "le(0,1)": "le(0,1)", "le(0,2)": "le(0,3)", "le(1,2)": "le(1,3)"},
            name="h",
        )
        pb = pullback_opfib(h, gt.opfib())
        total = pb.opfib.total
        assert total.name == "pb(h,proj[groth(const(chain(4),discrete(2)))])"
        objects = ["(0,(0,x0))", "(0,(0,x1))", "(1,(1,x0))", "(1,(1,x1))", "(2,(3,x0))", "(2,(3,x1))"]
        arrows = [
            "(le(0,1),(le(0,1),id_x0)@x0)", "(le(0,1),(le(0,1),id_x1)@x1)",
            "(le(0,2),(le(0,3),id_x0)@x0)", "(le(0,2),(le(0,3),id_x1)@x1)",
            "(le(1,2),(le(1,3),id_x0)@x0)", "(le(1,2),(le(1,3),id_x1)@x1)",
        ]
        assert list(total.objects) == objects
        assert list(total.non_identity_mors()) == arrows
        composites = [
            (("(le(1,2),(le(1,3),id_x0)@x0)", "(le(0,1),(le(0,1),id_x0)@x0)"), "(le(0,2),(le(0,3),id_x0)@x0)"),
            (("(le(1,2),(le(1,3),id_x1)@x1)", "(le(0,1),(le(0,1),id_x1)@x1)"), "(le(0,2),(le(0,3),id_x1)@x1)"),
        ]
        assert list(total.comp.items())[: len(composites)] == composites
        assert _non_identity_composites(total) == composites

        proj, into = pb.opfib.p, pb.to_total
        assert (proj.name, into.name) == (f"proj[{total.name}]", f"into[{total.name}]")
        ids = [f"id_{x}" for x in objects]
        assert list(proj.ob_map.items()) == list(zip(objects, ["0", "0", "1", "1", "2", "2"]))
        assert list(proj.mor_map.items()) == list(zip(
            ids + arrows,
            ["id_0", "id_0", "id_1", "id_1", "id_2", "id_2"] + ["le(0,1)"] * 2 + ["le(0,2)"] * 2 + ["le(1,2)"] * 2,
        ))
        assert list(into.ob_map.items()) == list(zip(objects, ["(0,x0)", "(0,x1)", "(1,x0)", "(1,x1)", "(3,x0)", "(3,x1)"]))
        assert list(into.mor_map.items()) == list(zip(
            ids + arrows,
            ["id_(0,x0)", "id_(0,x1)", "id_(1,x0)", "id_(1,x1)", "id_(3,x0)", "id_(3,x1)",
             "(le(0,1),id_x0)@x0", "(le(0,1),id_x1)@x1", "(le(0,3),id_x0)@x0", "(le(0,3),id_x1)@x1",
             "(le(1,3),id_x0)@x0", "(le(1,3),id_x1)@x1"],
        ))


class TestReportSummary:
    def test_none_when_every_check_passes(self):
        rep = Report("all good")
        rep.ok("first")
        rep.record("second", None)
        assert rep.summary() is None

    def test_first_failure_when_two_fail(self):
        rep = Report("two failures")
        rep.ok("fine")
        rep.fail("early", "x0 has no image")
        rep.fail("late", "f has no image")
        assert rep.summary() == "early: x0 has no image"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["ok", "fail", "record"]), st.booleans()), max_size=8))
    def test_passed_agrees_with_a_scan_of_the_checks(self, steps):
        rep = Report("counted")
        for k, (how, good) in enumerate(steps):
            if how == "ok":
                rep.ok(f"c{k}")
            elif how == "fail":
                rep.fail(f"c{k}", "refuted")
            else:
                rep.record(f"c{k}", None if good else "refuted")
            assert rep.passed == all(c.passed for c in rep.checks)
            assert rep.verdict == ("pass" if rep.passed else "fail")

    def test_passed_counts_the_checks_a_report_is_made_with(self):
        assert not Report("given", [Check("a", True), Check("b", False, "x")]).passed
        assert Report("given", [Check("a", True)]).passed
