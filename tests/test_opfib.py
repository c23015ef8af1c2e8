import pytest

from grothkit import build, examples
from grothkit.fincat import id_name, identity_functor, reindex, validate_functor
from grothkit.groth import groth, groth_map
from grothkit.isosearch import FOUND, diagram_iso_search, over_base_iso_search
from grothkit.fincat import validate_diagram_mor
from grothkit.opfib import (
    _cartesian_failure,
    check_cleavage_preserving,
    check_discrete_opfib,
    check_split_opfib,
    cleaved_opfib,
    fibres,
    find_cartesian_lifts,
    pullback_opfib,
)
from grothkit.report import Check, UsageError, ValidationError

from helpers import reference_cartesian_failure
from test_messages import two_fill_in_functor


def identity_opfib(c):
    p = identity_functor(c)
    lifts = {(e, f): f for e in c.objects for f in c.mors if c.src[f] == e}
    return cleaved_opfib(p, lifts)


class TestFindCartesianLifts:
    def test_groth_projection_contains_canonical_lift(self):
        gt = groth(examples.semidirect_diagram())
        for (e, f), m in gt.lifts.items():
            if not gt.diagram.base.is_identity(f):
                assert m in find_cartesian_lifts(gt.projection, e, f)

    def test_identity_lift_is_identity(self):
        gt = groth(build.terminal_diagram(build.walking_arrow()))
        e = gt.total.objects[0]
        f = gt.diagram.base.identity[gt.projection.ob_map[e]]
        assert gt.total.identity[e] in find_cartesian_lifts(gt.projection, e, f)

    def test_no_lift_over_missing_morphism(self):
        wa = build.walking_arrow()
        one = build.discrete(1)
        p = validate_functor(one, wa, {"x0": "a"}, {id_name("x0"): id_name("a")})
        assert find_cartesian_lifts(p, "x0", "f") == []

    def test_precondition_violated(self):
        wa = build.walking_arrow()
        one = build.discrete(1)
        p = validate_functor(one, wa, {"x0": "b"}, {id_name("x0"): id_name("b")})
        with pytest.raises(UsageError):
            find_cartesian_lifts(p, "x0", "f")

    def test_discrete_opfibration_has_exactly_one_lift(self):
        d = [x for x in examples.corpus_diagrams() if x.name == "set_function"][0]
        gt = groth(d)
        p = gt.projection
        for e in gt.total.objects:
            for f in gt.diagram.base.mors:
                if gt.diagram.base.src[f] == p.ob_map[e]:
                    assert len(find_cartesian_lifts(p, e, f)) == 1


class TestCheckSplitOpfib:
    def test_groth_canonical_cleavage_passes(self):
        for d in examples.corpus_diagrams()[:6]:
            rep = check_split_opfib(groth(d).opfib())
            assert rep.passed, f"{d.name}: {rep.describe()}"

    def test_identity_with_identity_cleavage_passes(self):
        assert check_split_opfib(identity_opfib(build.chain(3))).passed

    def test_mutated_cleavage_fails_with_witness(self):
        dB = build.constant_diagram(build.walking_arrow(), build.walking_arrow())
        gt = groth(dB)
        lifts = dict(gt.lifts)
        victim = gt.obj_of[("a", "a")]
        lifts[(victim, "f")] = gt.mor_of[("f", "f", "a")]  # a genuinely composite morphism
        q = cleaved_opfib(gt.projection, lifts)
        rep = check_split_opfib(q)
        assert not rep.passed
        assert rep.counterexamples()  # a concrete witness is printed


def cleavage_cases():
    """(projection, cleavage) for the canonical cleavage of every corpus total, for each
    copy with the lift at one (e, f) swapped for another morphism over f, and for the
    lift of two_fill_in_functor with two fill-ins."""
    cases = []
    for d in examples.corpus_diagrams():
        gt = groth(d)
        cases.append((gt.projection, dict(gt.lifts)))
        for (e, f), m in sorted(gt.lifts.items()):
            for other in gt.total.out(e):
                if other != m and gt.projection.mor_map[other] == f:
                    cases.append((gt.projection, {**gt.lifts, (e, f): other}))
    lifts = {("u", "id_a"): "id_u", ("u", "f"): "m", ("v", "id_b"): "id_v", ("t", "id_b"): "id_t"}
    cases.append((two_fill_in_functor(), lifts))
    return cases


class TestCartesianAgainstReference:
    """The one-pass count of fill-ins against a scan of one hom-set per (e, w) pair."""

    def test_cartesian_failure_and_split_check(self):
        failures = []
        for p, lifts in cleavage_cases():
            expected = None
            for (e, f), m in sorted(lifts.items()):
                ref = reference_cartesian_failure(p, m, f)
                assert _cartesian_failure(p, m, f) == ref
                if ref is not None:
                    failures.append(ref)
                    expected = expected or f"at ({e},{f}): {ref}"
            rep = check_split_opfib(cleaved_opfib(p, lifts))
            assert rep.checks[0] == Check("lifts-cartesian", expected is None, expected)
        # both ways to fail occur
        assert any(": 0 fill-ins" in r for r in failures) and any(": 2 fill-ins" in r for r in failures)

    def test_find_cartesian_lifts(self):
        for p, lifts in {id(p): (p, lifts) for p, lifts in cleavage_cases()}.values():
            for e, f in lifts:
                ref = [m for m in p.dom.out(e) if p.mor_map[m] == f and reference_cartesian_failure(p, m, f) is None]
                assert find_cartesian_lifts(p, e, f) == ref


class TestCheckDiscreteOpfib:
    def test_groth_of_set_valued_diagram_is_discrete(self):
        d = [x for x in examples.corpus_diagrams() if x.name == "z2_swap_sets"][0]
        assert check_discrete_opfib(groth(d).projection).passed

    def test_identity_on_terminal(self):
        assert check_discrete_opfib(identity_functor(build.terminal())).passed

    def test_product_projection_not_discrete(self):
        wa = build.walking_arrow()
        p, fst, _ = build.product_projections(wa, wa)
        rep = check_discrete_opfib(fst)
        assert not rep.passed
        assert rep.first_failure().counterexample == "object (a,a), morphism id_a: 2 lifts ['id_(a,a)', '(id_a,f)']"

    def test_object_without_lift_not_discrete(self):
        wa, one = build.walking_arrow(), build.discrete(1)
        p = validate_functor(one, wa, {"x0": "a"}, {id_name("x0"): id_name("a")})
        assert check_discrete_opfib(p).first_failure().counterexample == "object x0, morphism f: 0 lifts []"


class TestCheckCleavagePreserving:
    def test_identity_square(self):
        q = identity_opfib(build.walking_iso())
        h = identity_functor(q.total)
        rep = check_cleavage_preserving(h, h, q, q)
        assert rep.passed

    def test_pullback_universal_square(self):
        d = build.constant_diagram(build.chain(3), build.walking_arrow())
        gt = groth(d)
        h = validate_functor(
            build.walking_arrow(), build.chain(3), {"a": "0", "b": "2"},
            {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"},
        )
        pb = pullback_opfib(h, gt.opfib())
        rep = check_cleavage_preserving(pb.to_total, h, pb.opfib, gt.opfib())
        assert rep.passed

    def test_groth_map_over_identity_base(self):
        base = build.walking_arrow()
        d2 = build.discrete(2)
        wa = build.walking_arrow()
        f_diag = build.constant_diagram(base, d2, name="F")
        g_diag = build.constant_diagram(base, wa, name="G")
        incl = validate_functor(
            d2, wa, {"x0": "a", "x1": "b"},
            {id_name("x0"): id_name("a"), id_name("x1"): id_name("b")}, name="incl",
        )
        gamma = validate_diagram_mor(f_diag, g_diag, {"a": incl, "b": incl}, name="gamma")
        gf, gg = groth(f_diag), groth(g_diag)
        t = groth_map(gamma, gf, gg)
        rep = check_cleavage_preserving(t, identity_functor(base), gf.opfib(), gg.opfib())
        assert rep.passed
        # concretely: (f, id) goes to (f, id)
        for (e, f), m in gf.lifts.items():
            ff, alpha, _ = gg.mor_pair[t.mor_map[m]]
            assert ff == f and gg.diagram.at_ob[gg.diagram.base.tgt[f]].is_identity(alpha)

    def test_non_commuting_square_is_distinct_failure(self):
        wa = build.walking_arrow()
        q = identity_opfib(wa)
        const = validate_functor(
            wa, wa, {"a": "a", "b": "a"},
            {id_name("a"): id_name("a"), id_name("b"): id_name("a"), "f": id_name("a")},
        )
        rep = check_cleavage_preserving(const, identity_functor(wa), q, q)
        assert not rep.passed
        assert rep.first_failure().name == "square-commutes"


class TestFibres:
    def test_fibres_of_groth_recovers_diagram(self):
        for d in examples.corpus_diagrams()[:6]:
            z = fibres(groth(d).opfib())
            res = diagram_iso_search(z, d)
            assert res.status == FOUND, d.name

    def test_fibres_of_identity_is_constant_terminal(self):
        c = build.chain(3)
        z = fibres(identity_opfib(c))
        for x in c.objects:
            assert len(z.at_ob[x].objects) == 1 and len(z.at_ob[x].mors) == 1

    def test_fibres_of_product_projection_is_constant(self):
        wa = build.walking_arrow()
        wi = build.walking_iso()
        p, fst, snd = build.product_projections(wa, wi)
        lifts = {}
        for e in p.objects:
            for f in wa.mors:
                if wa.src[f] != fst.ob_map[e]:
                    continue
                lifts[(e, f)] = (
                    p.identity[e]
                    if wa.is_identity(f)
                    else f"({f},{wi.identity[snd.ob_map[e]]})"
                )
        q = cleaved_opfib(fst, lifts)
        z = fibres(q)
        res = diagram_iso_search(z, build.constant_diagram(wa, wi))
        assert res.status == FOUND

    def test_non_split_input_refused(self):
        dB = build.constant_diagram(build.walking_arrow(), build.walking_arrow())
        gt = groth(dB)
        lifts = dict(gt.lifts)
        victim = gt.obj_of[("a", "a")]
        lifts[(victim, "f")] = gt.mor_of[("f", "f", "a")]
        q = cleaved_opfib(gt.projection, lifts)
        with pytest.raises(ValidationError) as err:
            fibres(q)
        assert "input-split" in {c.name for c in err.value.report.checks}


class TestPullback:
    def test_pullback_along_identity_relabels(self):
        d = examples.semidirect_diagram()
        gt = groth(d)
        pb = pullback_opfib(identity_functor(d.base), gt.opfib())
        res = over_base_iso_search(gt.total, gt.projection, pb.opfib.total, pb.opfib.p)
        assert res.status == FOUND

    def test_pullback_matches_reindexed_groth(self):
        d = build.constant_diagram(build.chain(3), build.walking_arrow())
        h = validate_functor(
            build.walking_arrow(), build.chain(3), {"a": "0", "b": "2"},
            {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"},
        )
        gt = groth(d)
        pb = pullback_opfib(h, gt.opfib())
        gh = groth(reindex(d, h))
        res = over_base_iso_search(gh.total, gh.projection, pb.opfib.total, pb.opfib.p)
        assert res.status == FOUND

    def test_object_count_is_sum_of_fibres(self):
        d = [x for x in examples.corpus_diagrams() if x.name == "poset_fibres"][0]
        h = validate_functor(
            build.walking_arrow(), build.chain(3), {"a": "0", "b": "2"},
            {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"},
        )
        gt = groth(d)
        pb = pullback_opfib(h, gt.opfib())
        expected = sum(
            sum(1 for e in gt.total.objects if gt.projection.ob_map[e] == h.ob_map[x])
            for x in h.dom.objects
        )
        assert len(pb.opfib.total.objects) == expected

    def test_pullback_is_split(self):
        d = examples.semidirect_diagram()
        gt = groth(d)
        pt = validate_functor(
            build.terminal(), d.base, {"*": "*"}, {id_name("*"): id_name("*")}
        )
        pb = pullback_opfib(pt, gt.opfib())
        assert check_split_opfib(pb.opfib).passed
