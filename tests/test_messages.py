"""Exact counterexample strings of the checkers built on the shared kernels.

Cartesian fill-ins and functor comparison each have one implementation that
several checkers call; these tests pin what the reports say, so a change of
kernel cannot change a message.
"""

import pytest

from grothkit import build, examples
from grothkit.fincat import diagram_iso_of_tables, id_name, identity_functor, make_category, validate_functor
from grothkit.groth import groth
from grothkit.indexed import (
    DiagramOpfibMor,
    check_diagram_opfib,
    check_diagram_opfib_mor,
    diagram_opfib,
    identity_diagram_opfib,
)
from grothkit.opfib import _cartesian_failure, check_cleavage_preserving, check_split_opfib, cleaved_opfib
from grothkit.report import ValidationError


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


def swap2():
    d2 = build.discrete(2)
    return d2, examples.swap_functor(d2)


def inversion3():
    bz3 = examples.bz(3)
    return bz3, examples.inversion_functor(bz3)


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
