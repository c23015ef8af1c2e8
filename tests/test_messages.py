"""Exact counterexample strings of the checkers built on the shared kernels.

Cartesian fill-ins and functor comparison each have one implementation that
several checkers call; these tests pin what the reports say, so a change of
kernel cannot change a message.
"""

import pytest

from grothkit import build
from grothkit.fincat import (
    diagram_iso_of_tables,
    id_name,
    identity_functor,
    make_category,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from grothkit.groth import groth
from grothkit.indexed import (
    DiagramOpfibMor,
    check_diagram_opfib,
    check_diagram_opfib_mor,
    diagram_opfib,
    identity_diagram_opfib,
    validate_diagram_modification,
)
from grothkit.opfib import _cartesian_failure, check_cleavage_preserving, check_split_opfib, cleaved_opfib
from grothkit.report import UsageError, ValidationError

import corpus


def identity_opfib(c):
    p = identity_functor(c)
    return cleaved_opfib(p, {(e, f): f for e in c.objects for f in c.mors if c.src[f] == e})


def checks(rep):
    return [(c.name, c.counterexample) for c in rep.checks]


def two_fill_in_functor():
    """p: E -> walking arrow where m: u -> v over f has two fill-ins n1, n2 towards e."""
    e_cat = make_category(
        "E",
        ["u", "v", "t"],
        [("m", "u", "v"), ("e", "u", "t"), ("n1", "v", "t"), ("n2", "v", "t")],
        {("n1", "m"): "e", ("n2", "m"): "e"},
    )
    return validate_functor(
        e_cat,
        build.walking_arrow(),
        {"u": "a", "v": "b", "t": "b"},
        {"id_u": "id_a", "id_v": "id_b", "id_t": "id_b", "m": "f", "e": "f", "n1": "id_b", "n2": "id_b"},
        name="p",
    )


def twisted_opfib(fibre, twist):
    """Constant diagrams on the walking arrow; the component at b is `twist`, at a the identity."""
    wa = build.walking_arrow()
    over = build.constant_diagram(wa, fibre, name="over")
    total = build.constant_diagram(wa, fibre, name="total")
    straight = {(e, f): f for e in fibre.objects for f in fibre.out(e)}
    twisted = {(e, f): twist.mor_map[f] for e in fibre.objects for f in fibre.out(twist.ob_map[e])}
    return over, diagram_opfib(
        over, total, {"a": identity_functor(fibre), "b": twist}, {"a": straight, "b": twisted}, name="bad"
    )


def arrow_times_iso_opfib(twisted_at, name):
    """Constant diagrams over chain(2): walking arrow below, walking arrow × walking iso
    above, the first projection as both components.  The cleavage at the base objects in
    `twisted_at` lifts f at (a,a) to (f,f) and at (a,b) to (f,g); the others lift it
    straight, to (f,id_x)."""
    base = build.chain(2)
    e, p, _ = build.product_projections(build.walking_arrow(), build.walking_iso())
    over = build.constant_diagram(base, build.walking_arrow(), name="over")
    total = build.constant_diagram(base, e, name="total")
    lifts = {}
    for v in base.objects:
        twisted = {"(a,a)": "(f,f)", "(a,b)": "(f,g)"} if v in twisted_at else {}
        lifts[v] = {(x, f): e.identity[x] if f.startswith("id_") else twisted.get(x, f"(f,id_{x[3]})")
                    for x in e.objects for f in p.cod.out(p.ob_map[x])}
    return diagram_opfib(over, total, {v: p for v in base.objects}, lifts, name=name)


UNPRESERVED_LIFT = "lifts-preserved: H(lift((a,a),f)) = (f,id_a) but lift((a,a),f) = (f,f)"


def swap2():
    d2 = build.discrete(2)
    return d2, corpus.swap_functor(d2)


def inversion3():
    bz3 = corpus.bz(3)
    return bz3, corpus.inversion_functor(bz3)


class TestPinnedMessages:
    def test_cleavage_preserving_square_on_object(self):
        wa = build.walking_arrow()
        q = identity_opfib(wa)
        const = validate_functor(
            wa, wa, {"a": "a", "b": "a"},
            {id_name("a"): id_name("a"), id_name("b"): id_name("a"), "f": id_name("a")},
        )
        rep = check_cleavage_preserving(const, identity_functor(wa), q, q)
        assert checks(rep) == [("square-commutes", "on object b: a != b")]

    def test_cleavage_preserving_square_on_morphism(self):
        bz3, inv = inversion3()
        q = identity_opfib(bz3)
        rep = check_cleavage_preserving(inv, identity_functor(bz3), q, q)
        assert checks(rep) == [("square-commutes", "on morphism r1: r2 != r1")]

    def test_diagram_opfib_naturality(self):
        for (fibre, twist), where in ((swap2(), "on object x0"), (inversion3(), "on morphism r1")):
            _, phi = twisted_opfib(fibre, twist)
            assert checks(check_diagram_opfib(phi)) == [
                ("naturality@id_a", None),
                ("naturality@id_b", None),
                ("naturality@f", where),
            ]

    def test_diagram_opfib_mor_triangle(self):
        for (fibre, twist), where in ((swap2(), "on object x0"), (inversion3(), "on morphism r1")):
            over, _ = twisted_opfib(fibre, twist)
            phi = identity_diagram_opfib(over)
            xi = DiagramOpfibMor("twist", phi, phi, {"a": identity_functor(fibre), "b": twist})
            assert checks(check_diagram_opfib_mor(xi)) == [("triangle@a", None), ("triangle@b", where)]

    def test_diagram_opfib_mor_naturality(self):
        wa, one = build.walking_arrow(), build.terminal()
        d2, swap = swap2()
        over = build.constant_diagram(wa, one, name="over")
        total = build.constant_diagram(wa, d2, name="total")
        bang = validate_functor(d2, one, {"x0": "*", "x1": "*"}, {"id_x0": "id_*", "id_x1": "id_*"}, name="bang")
        cl = {(e, "id_*"): id_name(e) for e in d2.objects}
        phi = diagram_opfib(over, total, {"a": bang, "b": bang}, {"a": cl, "b": cl}, name="phi")
        xi = DiagramOpfibMor("xi", phi, phi, {"a": identity_functor(d2), "b": swap})
        assert checks(check_diagram_opfib_mor(xi)) == [
            ("triangle@a", None),
            ("triangle@b", None),
            ("naturality@id_a", None),
            ("naturality@id_b", None),
            ("naturality@f", "square of totals does not commute"),
            ("cleavage-preserving@a", None),
            ("cleavage-preserving@b", None),
        ]

    def test_diagram_iso_component_not_inverted(self):
        wa = build.walking_arrow()
        z1, z2 = build.constant_diagram(wa, build.discrete(2)), build.constant_diagram(wa, build.terminal())
        to_point = ({"x0": "*", "x1": "*"}, {"id_x0": "id_*", "id_x1": "id_*"})
        with pytest.raises(ValidationError) as err:
            diagram_iso_of_tables(z1, z2, {"a": to_point, "b": to_point})
        assert err.value.report.title == "verify diagram iso"
        assert checks(err.value.report) == [
            ("backward∘forward", "component at a is not inverted"),
            ("backward∘forward", "component at b is not inverted"),
        ]

    def test_cartesian_failure_no_fill_in(self):
        gt = groth(build.constant_diagram(build.walking_arrow(), build.walking_arrow()))
        lifts = dict(gt.lifts)
        lifts[(gt.obj_of[("a", "a")], "f")] = gt.mor_of[("f", "f", "a")]
        rep = check_split_opfib(cleaved_opfib(gt.projection, lifts))
        assert checks(rep) == [
            ("lifts-cartesian",
             "at ((a,a),f): lift (f,f)@a of f: 0 fill-ins for (e=(f,id_a)@a, w=id_b), expected exactly one"),
            ("identity-law", None),
            ("composition-law", None),
        ]

    def test_cartesian_failure_two_fill_ins(self):
        p = two_fill_in_functor()
        assert _cartesian_failure(p, "m", "f") == "lift m of f: 2 fill-ins for (e=e, w=id_b), expected exactly one"
        q = cleaved_opfib(p, {("u", "id_a"): "id_u", ("u", "f"): "m", ("v", "id_b"): "id_v", ("t", "id_b"): "id_t"})
        assert checks(check_split_opfib(q))[0] == (
            "lifts-cartesian", "at (u,f): lift m of f: 2 fill-ins for (e=e, w=id_b), expected exactly one"
        )

    def test_diagram_opfib_square_loses_a_chosen_lift(self):
        phi = arrow_times_iso_opfib({"1"}, "half_twisted")
        assert checks(check_diagram_opfib(phi)) == [
            ("naturality@id_0", None),
            ("naturality@id_1", None),
            ("naturality@le(0,1)", None),
            ("component@0", None),
            ("component@1", None),
            ("square@id_0", None),
            ("square@id_1", None),
            ("square@le(0,1)", UNPRESERVED_LIFT),
        ]

    def test_diagram_opfib_mor_loses_a_chosen_lift(self):
        straight = arrow_times_iso_opfib(set(), "straight")
        twisted = arrow_times_iso_opfib({"0", "1"}, "twisted")
        comps = {v: identity_functor(straight.total.at_ob[v]) for v in straight.base.objects}
        xi = DiagramOpfibMor("untwist", straight, twisted, comps)
        assert checks(check_diagram_opfib_mor(xi)) == [
            ("triangle@0", None),
            ("triangle@1", None),
            ("naturality@id_0", None),
            ("naturality@id_1", None),
            ("naturality@le(0,1)", None),
            ("cleavage-preserving@0", UNPRESERVED_LIFT),
            ("cleavage-preserving@1", UNPRESERVED_LIFT),
        ]

    @staticmethod
    def discrete_over_point(point):
        """discrete(2) over the constant diagram of `point` on the walking arrow, whose
        components send x0 and x1 to the object *."""
        wa, d2 = build.walking_arrow(), build.discrete(2)
        over = build.constant_diagram(wa, point, name="over")
        total = build.constant_diagram(wa, d2, name="total")
        bang = validate_functor(d2, point, {"x0": "*", "x1": "*"}, {"id_x0": "id_*", "id_x1": "id_*"}, name="bang")
        cl = {(e, "id_*"): id_name(e) for e in d2.objects}
        return diagram_opfib(over, total, {"a": bang, "b": bang}, {"a": cl, "b": cl}, name=f"over_{point.name}")

    def test_diagram_opfib_mor_refuses_a_component_off_its_totals(self):
        # the component at a starts at the walking arrow on x0, x1, not at discrete(2),
        # yet it agrees with both triangles
        d2 = build.discrete(2)
        phi = self.discrete_over_point(build.terminal())
        arrow = make_category("arrow", ["x0", "x1"], [("u", "x0", "x1")], {})
        squash = validate_functor(arrow, d2, {"x0": "x0", "x1": "x0"},
                                  {"id_x0": "id_x0", "id_x1": "id_x0", "u": "id_x0"}, name="squash")
        xi = DiagramOpfibMor("xi", phi, phi, {"a": squash, "b": identity_functor(d2)})
        with pytest.raises(UsageError, match=r"^component squash at a does not run total\(a\) -> total\(a\)$"):
            check_diagram_opfib_mor(xi)

    def test_diagram_opfib_mor_refuses_a_codomain_over_another_diagram(self):
        # the codomain's fibres hold an object z besides *, which no component reaches,
        # so both triangles and every naturality square agree
        phi = self.discrete_over_point(build.terminal())
        psi = self.discrete_over_point(make_category("point_and_z", ["*", "z"], [], {}))
        d2 = phi.total.at_ob["a"]
        xi = DiagramOpfibMor("xi", phi, psi, {"a": identity_functor(d2), "b": identity_functor(d2)})
        with pytest.raises(UsageError, match="^over_terminal and over_point_and_z do not lie over the same diagram$"):
            check_diagram_opfib_mor(xi)

    def test_validate_diagram_mor_naturality(self):
        wa = build.walking_arrow()
        d2, swap = swap2()
        z = build.constant_diagram(wa, d2)
        with pytest.raises(ValidationError) as err:
            validate_diagram_mor(z, z, {"a": identity_functor(d2), "b": swap}, name="half_swap")
        assert checks(err.value.report) == [("naturality", "square at f does not commute strictly")]

    def test_validate_diagram_modification_parallel(self):
        # alpha and beta start at equal tables built twice, so only the other codomain refuses them
        wa, pt = build.walking_arrow(), build.terminal()
        at_a = validate_functor(pt, wa, {"*": "a"}, {"id_*": "id_a"})
        pick = lambda c, name: build.one_object_diagram(c, name=name)
        alpha = validate_diagram_mor(pick(pt, "p"), pick(wa, "f"), {"*": at_a}, name="alpha")
        same = validate_diagram_mor(pick(pt, "q"), pick(wa, "g"), {"*": at_a}, name="same")
        cell = validate_nat_trans(at_a, at_a, {"*": "id_a"})
        assert validate_diagram_modification(alpha, same, {"*": cell}).components["*"] is cell
        other = validate_diagram_mor(pick(pt, "p"), pick(pt, "h"), {"*": identity_functor(pt)}, name="other")
        with pytest.raises(ValidationError) as err:
            validate_diagram_modification(alpha, other, {"*": cell})
        assert checks(err.value.report) == [("parallel", "boundary diagram morphisms are not parallel")]
