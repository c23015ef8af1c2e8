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

from grothkit import build, fincat, indexed, opfib
from grothkit.fincat import (
    FinCat,
    FunctorData,
    NatTransData,
    identity_diagram_mor,
    identity_functor,
    make_category,
    validate_category,
    validate_diagram,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from grothkit.groth import groth, inc_cocone, validate_lax_cocone
from grothkit.indexed import identity_diagram_opfib, indexed_fibres, indexed_groth, pullback_diagram_opfib
from grothkit.opfib import check_split_opfib, cleaved_opfib, fibres
from grothkit.report import Report, ValidationError

import corpus
from helpers import (
    all_functor_tables,
    composite_closure,
    involution_arrow,
    reference_category_violations,
    reference_cocone_violations,
    reference_diagram_opfib_mor_report,
    reference_diagram_opfib_report,
    reference_diagram_violations,
    reference_fibres_actions,
    reference_first_disagreement,
    reference_functor_violations,
    reference_indexed_fibres_actions,
    reference_indexed_groth_actions,
    reference_naturality_violations,
    reference_pullback_actions,
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

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
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


# ---------------------------------------------------------------------------
# naturality squares, decided at the generators


def test_identity_dmor_over_chain12_compares_generator_squares(monkeypatch):
    z = validate_diagram(*shift_diagram(12, 3, 1))
    calls = counting(monkeypatch, fincat, "first_disagreement")
    validate_diagram_mor(z, z, {x: identity_functor(z.at_ob[x]) for x in z.base.objects})
    assert calls[0] == 11  # the squares at the 11 covers of chain(12), of all 78


def test_non_natural_component_reports_every_square():
    z = validate_diagram(*shift_diagram(4, 3, 1))
    comps = {x: identity_functor(z.at_ob[x]) for x in z.base.objects}
    comps["1"] = build.constant_functor(z.at_ob["1"], z.at_ob["1"], "0")
    assert outcome(validate_diagram_mor, z, z, comps) == (
        "validate diagram morphism dmor: fail\n"
        "  [FAIL] naturality -- square at le(0,1) does not commute strictly\n"
        "  [FAIL] naturality -- square at le(1,2) does not commute strictly")


def test_non_natural_transformation_reports_every_square():
    # the identity of BZ3 to its inversion: no component is natural, at r1 (the one
    # generator) nor at r2
    c = corpus.bz(3)
    assert outcome(validate_nat_trans, identity_functor(c), corpus.inversion_functor(c), {"*": "r1"}) == (
        "validate nattrans nattrans: fail\n"
        "  [FAIL] naturality -- square at r1: r1∘r1 = r2 but r2∘r1 = id_*\n"
        "  [FAIL] naturality -- square at r2: r1∘r2 = id_* but r1∘r1 = r2")


def dmor_square(z, comps):
    base = z.base

    def square(h):
        a, b = base.src[h], base.tgt[h]
        if reference_first_disagreement((z.at_mor[h], comps[a]), (comps[b], z.at_mor[h])) is None:
            return None
        return f"square at {h} does not commute strictly"
    return square


def test_dmor_decision_matches_full_scan_on_every_one_component_change():
    for z in DIAGRAMS[:8] + [validate_diagram(*shift_diagram(4, 3, 1))]:
        ident = {x: identity_functor(z.at_ob[x]) for x in z.base.objects}
        for x in z.base.objects:
            for t in functors_between(z.at_ob[x], z.at_ob[x]):
                comps = {**ident, x: t}
                expected = described("validate diagram morphism dmor",
                                     reference_naturality_violations(z.base, dmor_square(z, comps)))
                assert outcome(validate_diagram_mor, z, z, comps) == expected, (z.name, x, t.mor_map)


def test_nat_trans_decision_matches_full_scan_on_every_one_component_change():
    for c in CATS:
        ident = identity_functor(c)
        for x in c.objects:
            for m in c.hom(x, x):
                comps = {**c.identity, x: m}

                def square(f):
                    lhs, rhs = c.comp[(comps[c.tgt[f]], f)], c.comp[(f, comps[c.src[f]])]
                    return None if lhs == rhs else (f"square at {f}: {comps[c.tgt[f]]}∘{f} = {lhs} "
                                                    f"but {f}∘{comps[c.src[f]]} = {rhs}")
                expected = described("validate nattrans nattrans", reference_naturality_violations(c, square))
                assert outcome(validate_nat_trans, ident, ident, comps) == expected, (c.name, x, m)


# ---------------------------------------------------------------------------
# constructed diagrams: actions built at the generators, composed elsewhere


def assert_same_actions(z, reference):
    """The actions of z have the tables, names and order of the per-morphism reference."""
    assert list(z.at_mor) == list(reference), z.name
    for m, t in reference.items():
        u = z.at_mor[m]
        assert (u.name, u.ob_map, u.mor_map) == (t.name, t.ob_map, t.mor_map), (z.name, m)
        assert u.dom.tables_equal(t.dom) and u.cod.tables_equal(t.cod), (z.name, m)


SHIFTS = [(1, 3, 1), (2, 2, 1), (3, 3, 0), (3, 4, 2), (4, 3, 1), (5, 5, 1), (6, 6, 1)]


def test_fibres_match_per_morphism_actions():
    qs = [groth(d).opfib() for d in DIAGRAMS]
    qs += [phi.component_opfib(a) for phi in corpus.corpus_opfibs() for a in phi.base.objects]
    qs += [groth(validate_diagram(*shift_diagram(*shape))).opfib() for shape in SHIFTS]
    for q in qs:
        z = fibres(q)
        assert_same_actions(z, reference_fibres_actions(q, z))


def shift_opfibs():
    return [identity_diagram_opfib(validate_diagram(*shift_diagram(*shape)), name="phi") for shape in SHIFTS]


def test_indexed_fibres_match_per_morphism_actions():
    for phi in corpus.corpus_opfibs() + shift_opfibs():
        g = groth(phi.over)
        z = indexed_fibres(phi, g)
        assert_same_actions(z, reference_indexed_fibres_actions(phi, g, z))


def test_indexed_groth_matches_per_morphism_actions():
    cases = corpus.corpus_z_instances()
    cases += [(build.terminal_diagram(groth(phi.over).total), phi.over) for phi in shift_opfibs()]
    cases += [(indexed_fibres(phi), phi.over) for phi in corpus.corpus_opfibs()]
    for z, f in cases:
        g = groth(f)
        phi = indexed_groth(z, f, g)
        assert_same_actions(phi.total, reference_indexed_groth_actions(z, f, g, phi))


def test_pullback_diagram_opfib_matches_per_morphism_actions():
    cases = corpus.pseudonat_instances() + [(identity_diagram_mor(phi.over), phi) for phi in shift_opfibs()]
    for alpha, phi in cases:
        pulled = pullback_diagram_opfib(alpha, phi)
        assert_same_actions(pulled.total, reference_pullback_actions(alpha, phi, pulled))


def comparisons(monkeypatch) -> list[int]:
    """One count of the first_disagreement calls made from fincat and from indexed."""
    calls = counting(monkeypatch, fincat, "first_disagreement")
    monkeypatch.setattr(indexed, "first_disagreement", fincat.first_disagreement)
    return calls


def test_fibres_of_shift661_build_the_actions_of_covers_only(monkeypatch):
    q = groth(validate_diagram(*shift_diagram(6, 6, 1))).opfib()
    built = counting(monkeypatch, opfib, "validate_functor")
    composed = counting(monkeypatch, fincat, "compose_functors")
    fibres(q)
    # the 5 covers of the 21 morphisms of chain(6); the actions of the 6 identities are made
    # as identity functors, by the split identity law, and not solved
    assert (built[0], composed[0]) == (5, 10)


def test_indexed_fibres_of_shift551_build_36_of_160_actions(monkeypatch):
    d = validate_diagram(*shift_diagram(5, 5, 1))
    phi, g = identity_diagram_opfib(d, name="phi"), groth(d)
    built = counting(monkeypatch, indexed, "validate_functor")
    composed = counting(monkeypatch, fincat, "compose_functors")
    indexed_fibres(phi, g)
    # the generators of the total, whose 25 identities are made as identity functors
    assert (len(g.total.mors), len(g.total.objects), built[0], composed[0]) == (160, 25, 36, 99)


def test_fibres_of_shift661_compare_no_composite_with_itself(monkeypatch):
    q = groth(validate_diagram(*shift_diagram(6, 6, 1))).opfib()
    calls = comparisons(monkeypatch)
    fibres(q)
    # each of the 10 generator pairs (cover, f) of chain(6) is a pair an action was composed
    # from, and no identity action is compared with the identity it was made as
    assert calls[0] == 0


def test_indexed_fibres_of_shift551_compare_35_generator_pairs_and_4_squares(monkeypatch):
    d = validate_diagram(*shift_diagram(5, 5, 1))
    phi, g = identity_diagram_opfib(d, name="phi"), groth(d)
    calls = comparisons(monkeypatch)
    assert indexed.check_diagram_opfib(phi).passed
    assert calls[0] == 4  # the naturality squares at the 4 covers of chain(5), of all 15
    calls[0] = 0
    indexed_fibres(phi, g)
    assert calls[0] == 4 + 35  # and the 134 generator pairs of the total less the 99 composed


def test_diagram_opfib_check_over_chain6_decides_5_of_21_squares(monkeypatch):
    phi = identity_diagram_opfib(validate_diagram(*shift_diagram(6, 6, 1)), name="phi")
    calls = comparisons(monkeypatch)
    lifts = counting(monkeypatch, indexed, "_unpreserved_lift")
    rep = indexed.check_diagram_opfib(phi)
    # naturality and lift preservation at the 5 covers; 21 + 6 + 21 verdicts, as before
    assert (calls[0], lifts[0], len(rep.checks), rep.passed) == (5, 5, 48, True)
    assert rep.describe() == reference_diagram_opfib_report(phi)


def trivial_action_at(monkeypatch, module, wrong):
    """Make the action named `wrong`, between one-object fibres, send every morphism to the identity."""
    real = module.validate_functor

    def patched(dom, cod, ob_map, mor_map, name="functor"):
        if name == wrong:
            mor_map = {m: cod.identity[ob_map[dom.src[m]]] for m in dom.mors}
        return real(dom, cod, ob_map, mor_map, name=name)
    monkeypatch.setattr(module, "validate_functor", patched)


def test_a_wrong_generator_action_is_refuted_by_strict_composition(monkeypatch):
    # Z/2 acting on BZ3 by inversion: push(s1) sent to the trivial endofunctor no longer squares to
    # the identity that push(id_*) is
    q = groth(corpus.semidirect_diagram()).opfib()
    assert [m for ms in q.base.generators().values() for m in ms] == ["s1"]
    trivial_action_at(monkeypatch, opfib, "push(s1)")
    with pytest.raises(ValidationError) as err:
        fibres(q)
    assert err.value.report.describe().splitlines()[1:] == [
        "  [FAIL] strict-composition -- functor at id_* differs from composite over (s1,s1)"]


def test_generated_actions_refuse_a_morphism_that_no_generator_reaches():
    c = corpus.bz(2, prefix="s")
    unreached = dataclasses.replace(c, cache={"generators": {"*": ()}})
    with pytest.raises(KeyError):
        fincat.generated_diagram(unreached, {"*": build.chain(2)}, lambda m: identity_functor(build.chain(2)),
                                 "act", "d")


# ---------------------------------------------------------------------------
# exactness controls: what the constructions no longer compare is compared elsewhere


def test_a_wrong_composite_given_to_validate_diagram_is_refused():
    # the public validator compares every generator pair; only generated_diagram skips the
    # pairs it composed itself
    base, at_ob, at_mor = shift_diagram(4, 3, 1)
    at_mor["le(0,2)"] = identity_functor(at_ob["0"])
    assert outcome(validate_diagram, base, at_ob, at_mor) == (
        "validate diagram diagram: fail\n"
        "  [FAIL] strict-composition -- functor at le(0,2) differs from composite over (le(1,2),le(0,1))\n"
        "  [FAIL] strict-composition -- functor at le(0,3) differs from composite over (le(2,3),le(0,2))")


def test_a_moved_identity_lift_is_refused_before_any_action_is_built(monkeypatch):
    # fibres and indexed_fibres make each identity action the identity functor on the strength
    # of the split identity law, so a cleavage that breaks it must not get that far
    gt = groth(validate_diagram(*shift_diagram(5, 5, 0)))
    lifts = mutated_identity_lift(gt)
    base = build.chain(2)
    phi = indexed.diagram_opfib(build.constant_diagram(base, gt.diagram.base), build.constant_diagram(base, gt.total),
                                {x: gt.projection for x in base.objects}, {x: lifts for x in base.objects})
    built = [counting(monkeypatch, module, "validate_functor") for module in (opfib, indexed)]
    composed = counting(monkeypatch, fincat, "compose_functors")
    with pytest.raises(ValidationError) as split:
        fibres(cleaved_opfib(gt.projection, lifts))
    with pytest.raises(ValidationError) as opfibration:
        indexed_fibres(phi)
    assert [c.name for c in split.value.report.checks] == ["input-split"]
    assert [c.name for c in opfibration.value.report.checks] == ["input-opfibration"]
    assert "identity-law" in [c.name for c in check_split_opfib(cleaved_opfib(gt.projection, lifts)).checks
                              if not c.passed]
    assert (built[0][0], built[1][0], composed[0]) == (0, 0, 0)


def swapped_opfib(n: int, at: str):
    """The identity opfibration of the constant diagram of discrete(2) on chain(n), with the
    swap as its component at `at`: naturality fails at each morphism into or out of `at`."""
    base, d2 = build.chain(n), build.discrete(2)
    z = build.constant_diagram(base, d2)
    comps = {x: corpus.swap_functor(d2) if x == at else identity_functor(d2) for x in base.objects}
    cleavs = {x: {(e, d2.identity[t.ob_map[e]]): d2.identity[e] for e in d2.objects} for x, t in comps.items()}
    return indexed.diagram_opfib(z, z, comps, cleavs, name="swapped")


def projection_opfib(n: int, twisted: str | None = None):
    """The first projection walking_arrow × walking_iso -> walking_arrow at each object of
    chain(n), between constant diagrams, lifting f at (x, y) to (f, id_y); at `twisted` it
    lifts f to (f, u) for the iso u out of y, a split cleavage that the squares at the
    morphisms into and out of `twisted` do not preserve."""
    base, wa, wi = build.chain(n), build.walking_arrow(), build.walking_iso()
    p, fst, snd = build.product_projections(wa, wi)

    def lifts(x):
        def second(f, y):
            return wi.out(y)[1] if x == twisted and not wa.is_identity(f) else wi.identity[y]
        return {(e, f): fincat.pair_mor_id(wa, wi, f, second(f, snd.ob_map[e]))
                for e in p.objects for f in wa.out(fst.ob_map[e])}
    return indexed.diagram_opfib(build.constant_diagram(base, wa), build.constant_diagram(base, p),
                                 {x: fst for x in base.objects}, {x: lifts(x) for x in base.objects},
                                 name="projection")


def test_diagram_opfib_check_matches_full_scan_on_every_failing_square():
    for n in (2, 4, 5):
        assert indexed.check_diagram_opfib(projection_opfib(n)).passed
        for at in map(str, range(n)):
            for phi in (swapped_opfib(n, at), projection_opfib(n, at)):
                for discrete in (False, True):
                    rep = indexed.check_diagram_opfib(phi, discrete)
                    assert rep.describe() == reference_diagram_opfib_report(phi, discrete), (n, at, phi.name)
    # a failure at one generator, le(0,1), and at the composites through it
    assert [c.name for c in indexed.check_diagram_opfib(swapped_opfib(4, "0")).checks if not c.passed] == [
        "naturality@le(0,1)", "naturality@le(0,2)", "naturality@le(0,3)"]
    assert [c.name for c in indexed.check_diagram_opfib(projection_opfib(4, "0")).checks if not c.passed] == [
        "square@le(0,1)", "square@le(0,2)", "square@le(0,3)"]


def twisted_mor(n: int, at: str):
    """The endomorphism of projection_opfib(n) that is the identity at each object but `at`,
    where it swaps the walking_iso factor: the squares into and out of `at` do not commute."""
    phi = projection_opfib(n)
    p = phi.total.at_ob["0"]
    fst, snd = phi.components["0"], build.product_projections(build.walking_arrow(), build.walking_iso())[2]
    swap = {"a": "b", "b": "a", "f": "g", "g": "f", "id_a": "id_b", "id_b": "id_a"}
    ob_of = {(fst.ob_map[v], snd.ob_map[v]): v for v in p.objects}
    mor_of = {(fst.mor_map[m], snd.mor_map[m]): m for m in p.mors}
    twist = validate_functor(p, p, {v: ob_of[(fst.ob_map[v], swap[snd.ob_map[v]])] for v in p.objects},
                             {m: mor_of[(fst.mor_map[m], swap[snd.mor_map[m]])] for m in p.mors}, name="twist")
    comps = {x: twist if x == at else identity_functor(p) for x in phi.base.objects}
    return indexed.DiagramOpfibMor("twisted", phi, phi, comps)


def test_diagram_opfib_mor_check_matches_full_scan_on_every_failing_square():
    for n in (2, 4, 5):
        for at in map(str, range(n)):
            xi = twisted_mor(n, at)
            assert indexed.check_diagram_opfib_mor(xi).describe() == reference_diagram_opfib_mor_report(xi), (n, at)
    assert [c.name for c in indexed.check_diagram_opfib_mor(twisted_mor(4, "0")).checks if not c.passed] == [
        "naturality@le(0,1)", "naturality@le(0,2)", "naturality@le(0,3)"]
