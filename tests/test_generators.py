"""Generating sets, and the law checks that decide on them.

`FinCat.generators()` is a generating set S of a category's morphisms under
composition.  Every law over composable pairs (associativity, a functor
preserving composites, a strict diagram, a lax cocone's composition law, a
split cleavage) is decided on the pairs whose outer morphism is in S, and
scanned over every pair only when that finds a violation.  The properties
here hold each decision against a full-scan reference from helpers.py, on
valid inputs and on their one-entry mutations: the same verdict, and the
same report, byte for byte.
"""

import dataclasses
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from grothkit import build, fincat, opfib
from grothkit.fincat import (
    FinCat,
    FunctorData,
    NatTransData,
    make_category,
    validate_category,
    validate_diagram,
    validate_functor,
)
from grothkit.groth import groth, inc_cocone, validate_lax_cocone
from grothkit.opfib import check_split_opfib, cleaved_opfib
from grothkit.report import Report, ValidationError

import corpus
from helpers import (
    all_functor_tables,
    composite_closure,
    involution_arrow,
    reference_category_violations,
    reference_cocone_violations,
    reference_diagram_violations,
    reference_functor_violations,
    reference_split_verdicts,
)


def bz(n):
    return build.delooping(*build.cyclic_table(n), name=f"BZ{n}")


def members(c: FinCat) -> list[str]:
    return [m for gens in c.generators().values() for m in gens]


def shift_diagram(n: int, m: int, t: int):
    """chain(m) at every object of chain(n), i <= j acting by the clamped shift k -> min(k + t(j-i), m-1)."""
    base, fibre = build.chain(n), build.chain(m)

    def shift(u):
        img = {str(k): str(min(k + t * (int(base.tgt[u]) - int(base.src[u])), m - 1)) for k in range(m)}
        return validate_functor(fibre, fibre, img, {a: fibre.hom(img[fibre.src[a]], img[fibre.tgt[a]])[0]
                                                    for a in fibre.mors})
    return base, {x: fibre for x in base.objects}, {u: shift(u) for u in base.mors}


def described(title: str, failures) -> str:
    rep = Report(title)
    for law, message in failures:
        rep.fail(law, message)
    return rep.describe() if failures else "pass"


def outcome(call, *args) -> str:
    try:
        call(*args)
    except ValidationError as err:
        return err.report.describe()
    return "pass"


# ---------------------------------------------------------------------------
# the generating set


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_generators_are_its_covers(n):
    assert sorted(members(build.chain(n))) == sorted(f"le({i},{i + 1})" for i in range(n - 1))


def corpus_categories() -> list[FinCat]:
    cats = list(corpus.stock_bases().values())
    cats += [build.chain(5), build.product(build.chain(3), build.walking_iso()), bz(6),
             build.product(bz(2), bz(3)), build.product(build.chain(3), involution_arrow()),
             build.slice_category(build.chain(3), "2"), build.opposite(build.product(build.chain(2), build.chain(3))),
             groth(corpus.semidirect_diagram()).total]
    for d in corpus.corpus_diagrams():
        cats += [d.base, *d.at_ob.values(), groth(d).total]
    for phi in corpus.corpus_opfibs():
        cats += [*phi.over.at_ob.values(), *phi.total.at_ob.values()]
    return cats


def test_generators_reach_every_morphism_and_hold_every_irreducible():
    for c in corpus_categories():
        gens = members(c)
        assert len(set(gens)) == len(gens) and not any(c.is_identity(m) for m in gens), c.name
        assert composite_closure(c, gens) == set(c.mors), c.name
        composites = {c.comp[(g, f)] for f in c.non_identity_mors() for g in c.non_identity_mors()
                      if c.src[g] == c.tgt[f]}
        assert set(c.non_identity_mors()) - composites <= set(gens), c.name


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_group_listed_from_a_generator_has_one_generator(n):
    elems, table = build.cyclic_table(n)
    for k in range(1, n):
        if gcd(k, n) == 1:
            listed = [elems[0], elems[k]] + [x for x in elems[1:] if x != elems[k]]
            assert members(build.delooping(listed, table)) == [elems[k]]


def test_generators_and_factorizations_are_derived_once_into_a_declared_field():
    c = bz(6)
    assert c.generators() is c.generators() and c.factorizations is c.factorizations
    assert set(vars(c)) == {f.name for f in dataclasses.fields(FinCat)}


# ---------------------------------------------------------------------------
# cost pins, by call counts


def counting(monkeypatch, module, name) -> list[int]:
    calls, real = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def mutated_identity_lift(gt):
    """The canonical lifts with one identity's lift moved to a non-identity vertical morphism,
    at the middle of the sorted keys that have one."""
    lifts, p, total = dict(gt.lifts), gt.projection, gt.total
    vertical = {(e, u): sorted(v for v in total.out(e) if p.mor_map[v] == u and not total.is_identity(v))
                for (e, u) in lifts if gt.diagram.base.is_identity(u)}
    keys = sorted(k for k, vs in vertical.items() if vs)
    lifts[keys[len(keys) // 2]] = vertical[keys[len(keys) // 2]][0]
    return lifts


def test_split_check_tests_cartesianness_over_generators_only(monkeypatch):
    gt = groth(validate_diagram(*shift_diagram(5, 5, 1)))
    calls = counting(monkeypatch, opfib, "_cartesian_failure")
    assert check_split_opfib(gt.opfib()).passed
    assert calls[0] == 20  # the lifts over the 4 covers of chain(5), of all 75


def test_split_check_of_a_mutated_cleavage_costs_no_more_than_one_full_scan(monkeypatch):
    gt = groth(validate_diagram(*shift_diagram(5, 5, 0)))
    q = cleaved_opfib(gt.projection, mutated_identity_lift(gt))
    calls = counting(monkeypatch, opfib, "_cartesian_failure")
    rep = check_split_opfib(q)
    assert [c.passed for c in rep.checks] == [False, False, False]
    assert calls[0] == 52  # the full scan up to its first counterexample, as before generating sets


def test_strict_composition_over_chain12_compares_generator_pairs(monkeypatch):
    args = shift_diagram(12, 3, 1)
    calls = counting(monkeypatch, fincat, "first_disagreement")
    validate_diagram(*args)
    assert calls[0] == 12 + 55  # strict identity at each object, then (cover, f) for each non-identity f


# ---------------------------------------------------------------------------
# generator decision against full scans, on valid inputs and one-entry mutations

def left_zero_monoid() -> FinCat:
    """The monoid {1, a, b} with x∘y = x for x, y in {a, b}.  It is not cancellative, so a
    violation of a law can hide from some outer morphisms and show to others."""
    return make_category("left_zero", ["*"], [("a", "*", "*"), ("b", "*", "*")],
                         {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"})


def absorbing_monoid() -> FinCat:
    """The monoid {1, e, z} with e idempotent and z absorbing."""
    return make_category("absorbing", ["*"], [("e", "*", "*"), ("z", "*", "*")],
                         {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "z"})


CATS = [build.chain(4), build.commuting_square_poset(), build.walking_iso(), bz(2), bz(3), bz(5), bz(6),
        build.product(bz(2), bz(3)), build.product(bz(2), bz(2)), groth(corpus.semidirect_diagram()).total,
        involution_arrow(), build.product(build.chain(3), involution_arrow()),
        build.product(build.chain(2), bz(3)), left_zero_monoid(), absorbing_monoid(),
        build.product(build.chain(2), left_zero_monoid()), build.product(build.chain(2), absorbing_monoid())]


def raw(c: FinCat):
    return list(c.objects), [(m, c.src[m], c.tgt[m]) for m in c.mors], dict(c.identity), dict(c.comp)


@st.composite
def category_tables(draw):
    """A category of CATS, as raw tables with none, one composite moved inside its hom-set,
    or one identity composite moved (so that the identity law fails)."""
    c = draw(st.sampled_from(CATS))
    objects, arrows, identity, comp = raw(c)
    kind = draw(st.sampled_from(["none", "hom", "hom", "hom", "identity"]))
    ids = set(identity.values())
    keys = [(g, f) for g, f in comp if (g in ids or f in ids) == (kind == "identity")]
    if kind != "none" and keys:
        g, f = draw(st.sampled_from(keys))
        comp[(g, f)] = draw(st.sampled_from(c.hom(c.src[f], c.tgt[g])))
    return objects, arrows, identity, comp


@settings(max_examples=200, deadline=None)
@given(category_tables())
def test_category_decision_matches_full_scan(t):
    expected = described("validate category category", reference_category_violations(*t))
    assert outcome(validate_category, *t) == expected


def power(i: int, n: int) -> str:
    """The name of r^i in BZ<n>."""
    return f"r{i % n}" if i % n else "id_*"


def test_every_one_entry_mutation_of_small_non_cancellative_categories_matches_full_scan():
    for c in [left_zero_monoid(), absorbing_monoid(), involution_arrow(), build.product(build.chain(2), left_zero_monoid())]:
        for g, f in c.comp:
            for h in c.hom(c.src[f], c.tgt[g]):
                objects, arrows, identity, comp = raw(c)
                comp[(g, f)] = h
                t = objects, arrows, identity, comp
                assert outcome(validate_category, *t) == described("validate category category",
                                                                    reference_category_violations(*t)), (g, f, h)


FUNCTORS = [(c, c, {x: x for x in c.objects}, {m: m for m in c.mors}) for c in CATS]
FUNCTORS.append((bz(6), bz(3), {"*": "*"}, {power(i, 6): power(i, 3) for i in range(6)}))
FUNCTORS += [(f.dom, f.cod, f.ob_map, f.mor_map)
             for c, d in [(bz(2), bz(3)), (bz(2), bz(2)), (build.chain(3), involution_arrow())]
             for f in build.product_projections(c, d)[1:]]


@st.composite
def functor_tables(draw):
    """A functor of FUNCTORS with none or one non-identity image moved inside its hom-set."""
    dom, cod, ob_map, mor_map = draw(st.sampled_from(FUNCTORS))
    ob_map, mor_map = dict(ob_map), dict(mor_map)
    non_ids = dom.non_identity_mors()
    if non_ids and draw(st.booleans()):
        m = draw(st.sampled_from(non_ids))
        mor_map[m] = draw(st.sampled_from(cod.hom(ob_map[dom.src[m]], ob_map[dom.tgt[m]])))
    return dom, cod, ob_map, mor_map


@settings(max_examples=200, deadline=None)
@given(functor_tables())
def test_functor_decision_matches_full_scan(t):
    assert outcome(validate_functor, *t) == described("validate functor functor", reference_functor_violations(*t))


DIAGRAMS = [corpus.semidirect_diagram(), *corpus.corpus_diagrams(),
            validate_diagram(*shift_diagram(4, 3, 1)), build.constant_diagram(bz(3), build.walking_iso()),
            build.constant_diagram(left_zero_monoid(), build.walking_iso()),
            build.constant_diagram(absorbing_monoid(), build.chain(2))]
_FUNCTOR_TABLES: dict = {}


def functors_between(c: FinCat, d: FinCat) -> list[FunctorData]:
    key = (c.canonical_key(), d.canonical_key())
    if key not in _FUNCTOR_TABLES:
        _FUNCTOR_TABLES[key] = [validate_functor(c, d, ob, mor, name="drawn") for ob, mor in all_functor_tables(c, d)]
    return _FUNCTOR_TABLES[key]


@st.composite
def diagram_tables(draw):
    """A diagram of DIAGRAMS with none or one functor replaced by a functor between the same fibres."""
    z = draw(st.sampled_from(DIAGRAMS))
    at_mor = dict(z.at_mor)
    if draw(st.integers(0, 3)):
        u = draw(st.sampled_from(z.base.mors))
        at_mor[u] = draw(st.sampled_from(functors_between(z.at_ob[z.base.src[u]], z.at_ob[z.base.tgt[u]])))
    return z.base, z.at_ob, at_mor


@settings(max_examples=200, deadline=None)
@given(diagram_tables())
def test_diagram_decision_matches_full_scan(t):
    base, _, at_mor = t
    assert outcome(validate_diagram, *t) == described("validate diagram diagram",
                                                       reference_diagram_violations(base, at_mor))


COCONES = [inc_cocone(d) for d in DIAGRAMS]


@st.composite
def cocone_tables(draw):
    """The universal cocone of a diagram of DIAGRAMS with none or one cell component moved
    inside its hom-set of the vertex."""
    sigma = draw(st.sampled_from(COCONES))
    base, cells = sigma.diagram.base, dict(sigma.cells)
    if draw(st.integers(0, 3)):
        u = draw(st.sampled_from(base.mors))
        cell = cells[u]
        comps = dict(cell.components)
        x = draw(st.sampled_from(sorted(comps)))
        comps[x] = draw(st.sampled_from(sigma.vertex.hom(sigma.vertex.src[comps[x]], sigma.vertex.tgt[comps[x]])))
        cells[u] = NatTransData(cell.name, cell.dom, cell.cod, comps)
    return sigma.diagram, sigma.vertex, sigma.legs, cells


@settings(max_examples=200, deadline=None)
@given(cocone_tables())
def test_cocone_decision_matches_full_scan(t):
    diagram, vertex, _, cells = t
    assert outcome(validate_lax_cocone, *t) == described("validate lax cocone cocone",
                                                          reference_cocone_violations(diagram, vertex, cells))


TOTALS = [groth(d) for d in DIAGRAMS + [validate_diagram(*shift_diagram(3, 3, 0))]]


@st.composite
def cleavages(draw):
    """The canonical cleavage of a total of TOTALS with none or one lift replaced by another
    morphism out of its object over its base morphism."""
    gt = draw(st.sampled_from(TOTALS))
    lifts, p = dict(gt.lifts), gt.projection
    keys = [(e, f) for (e, f) in sorted(lifts) if len([m for m in p.dom.out(e) if p.mor_map[m] == f]) > 1]
    if keys and draw(st.integers(0, 3)):
        e, f = draw(st.sampled_from(keys))
        lifts[(e, f)] = draw(st.sampled_from([m for m in p.dom.out(e) if p.mor_map[m] == f]))
    return p, lifts


@settings(max_examples=200, deadline=None)
@given(cleavages())
def test_split_decision_matches_full_scan(t):
    p, lifts = t
    expected = Report(f"split opfibration check for {p.name}")
    for law, fail in zip(("lifts-cartesian", "identity-law", "composition-law"), reference_split_verdicts(p, lifts)):
        expected.record(law, fail)
    assert check_split_opfib(cleaved_opfib(p, lifts)).describe() == expected.describe()
