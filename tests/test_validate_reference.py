"""The hom-indexed validators and the poset builder against all-pairs reference scans.

`validate_category` walks only composable pairs and triples, and
`validate_functor` only composable pairs; both skip the equations whose two
sides lie in a one-morphism hom-set.  The references in helpers.py scan every
pair and triple of morphisms.  Both must report the same violations, with the
same laws and messages, in the same order.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import grothkit
from grothkit import build
from grothkit.fincat import FinCat, id_name, validate_category, validate_functor
from grothkit.groth import groth
from grothkit.report import ValidationError

import corpus
from helpers import (
    all_functor_tables,
    brute_composable_pairs,
    involution_arrow,
    reference_category_violations,
    reference_derived_tables,
    reference_functor_violations,
    reference_poset,
)


def raw(cat: FinCat):
    """The tables validate_category reads, as fresh mutable copies."""
    arrows = [(m, cat.src[m], cat.tgt[m]) for m in cat.mors]
    return list(cat.objects), arrows, dict(cat.identity), dict(cat.comp)


def violations(objects, arrows, identity, comp) -> list[tuple[str, str]]:
    try:
        validate_category(objects, arrows, identity, comp)
    except ValidationError as err:
        return [(c.name, c.counterexample) for c in err.report.checks]
    return []


def assert_same(objects, arrows, identity, comp):
    expected = reference_category_violations(objects, arrows, identity, comp)
    assert violations(objects, arrows, identity, comp) == expected
    return expected


def stock() -> list[FinCat]:
    cats = [
        build.terminal(),
        build.walking_arrow(),
        build.walking_iso(),
        build.chain(4),
        build.commuting_square_poset(),
        build.delooping(*build.cyclic_table(4)),
        build.product(build.chain(3), build.walking_iso()),
        build.slice_category(build.chain(3), "2"),
        build.opposite(build.product(build.chain(2), build.chain(3))),
        groth(corpus.semidirect_diagram()).total,
    ]
    cats += [groth(d).total for d in corpus.corpus_diagrams()]
    return cats


def test_wide_sources_are_the_sources_of_wide_hom_sets():
    for c in stock() + [mixed()]:
        assert c.wide_sources == {x for x in c.objects for y in c.objects if len(c.hom(x, y)) > 1}, c.name


def test_stock_categories_validate_and_pairs_match():
    for c in stock():
        assert assert_same(*raw(c)) == []
        assert list(c.composable_pairs()) == brute_composable_pairs(c)


def derived_tables(c: FinCat):
    """The lookups validate_category derives; factorizations sorted, since their order follows the scan."""
    fact = {m: sorted(pairs) for m, pairs in c.factorizations.items()}
    return dict(c.hom_table), dict(c.out_table), c.wide_sources, fact


def test_stock_derived_tables_match_reference():
    for c in stock():
        objects, arrows, _, comp = raw(c)
        assert derived_tables(c) == reference_derived_tables(objects, arrows, comp), c.name


def report_of(objects, arrows, identity, comp) -> str:
    with pytest.raises(ValidationError) as err:
        validate_category(objects, arrows, identity, comp)
    return err.value.report.describe()


def test_report_of_one_non_composable_entry():
    objects, arrows, identity, comp = raw(build.walking_arrow())
    comp[("f", "f")] = "f"
    assert report_of(objects, arrows, identity, comp) == (
        "validate category category: fail\n"
        "  [FAIL] composition-domain -- entry for non-composable pair (f,f)"
    )


def test_undeclared_composite_reported_before_missing_composite():
    objects, arrows, identity, comp = raw(build.chain(3))
    del comp[("le(1,2)", "le(0,1)")]
    comp[("le(0,2)", "id_0")] = "nosuch"
    assert report_of(objects, arrows, identity, comp) == (
        "validate category category: fail\n"
        "  [FAIL] dangling-identifier -- compose entry (le(0,2),id_0) = nosuch uses undeclared morphism"
    )


def square():
    """chain(2) x chain(2): several hom-sets and two composable paths across the square."""
    return raw(build.product(build.chain(2), build.chain(2)))


def test_missing_composite():
    objects, arrows, identity, comp = square()
    g, f = next((g, f) for (g, f) in comp if g not in identity.values() and f not in identity.values())
    del comp[(g, f)]
    out = assert_same(objects, arrows, identity, comp)
    assert out == [("composition-total", f"missing composite {g}∘{f}")]


def test_wrong_boundary_composite():
    objects, arrows, identity, comp = square()
    key = next(k for k in comp if k[0] not in identity.values() and k[1] not in identity.values())
    comp[key] = key[1]
    out = assert_same(objects, arrows, identity, comp)
    assert [law for law, _ in out] == ["composition-boundary"]


def test_non_composable_entry():
    objects, arrows, identity, comp = square()
    m = next(m for m, s, t in arrows if s != t)
    comp[(m, m)] = m
    out = assert_same(objects, arrows, identity, comp)
    assert out == [("composition-domain", f"entry for non-composable pair ({m},{m})")]


def test_broken_associativity():
    elems, table = build.cyclic_table(4)
    objects, arrows, identity, comp = raw(build.delooping(elems, table))
    comp[(elems[1], elems[2])] = elems[2]
    out = assert_same(objects, arrows, identity, comp)
    assert out and all(law == "associativity" for law, _ in out)


def test_several_violations_interleave_in_scan_order():
    objects, arrows, identity, comp = square()
    non_ids = [m for m, _, _ in arrows if m not in identity.values()]
    pairs = [k for k in comp if k[0] in non_ids and k[1] in non_ids]
    g, f = pairs[0]
    del comp[(g, f)]
    for m in non_ids:
        comp.setdefault((m, m), m)  # non-composable: every non-identity arrow of a poset is not an endo
    comp[(identity[objects[0]], identity[objects[-1]])] = identity[objects[0]]
    out = assert_same(objects, arrows, identity, comp)
    laws = [law for law, _ in out]
    assert laws.count("composition-total") == 1
    assert laws.count("composition-domain") == len(non_ids) + 1
    assert laws != sorted(laws)  # the report interleaves laws by pair, not by kind


# ---------------------------------------------------------------------------
# random small tables


@st.composite
def tables(draw):
    """Small raw tables: mostly well-bounded, with every kind of defect drawn at random."""
    objects = [f"o{i}" for i in range(draw(st.integers(1, 3)))]
    identity = {x: id_name(x) for x in objects}
    arrows = [(identity[x], x, x) for x in objects]
    for i in range(draw(st.integers(0, 4))):
        arrows.append((f"m{i}", draw(st.sampled_from(objects)), draw(st.sampled_from(objects))))
    src = {m: s for m, s, _ in arrows}
    tgt = {m: t for m, _, t in arrows}
    mors = [m for m, _, _ in arrows]
    comp = {}
    for f in mors:
        for g in mors:
            if src[g] == tgt[f]:
                if g == identity[src[g]]:
                    comp[(g, f)] = f
                elif f == identity[tgt[f]]:
                    comp[(g, f)] = g
                else:
                    hom = [h for h in mors if src[h] == src[f] and tgt[h] == tgt[g]]
                    kind = draw(st.sampled_from(["hom", "hom", "hom", "any", "missing"]))
                    if kind == "hom" and hom:
                        comp[(g, f)] = draw(st.sampled_from(hom))
                    elif kind != "missing":
                        comp[(g, f)] = draw(st.sampled_from(mors))
            elif draw(st.integers(0, 9)) == 0:
                comp[(g, f)] = draw(st.sampled_from(mors))
    return objects, arrows, identity, comp


@settings(max_examples=300, deadline=None)
@given(tables())
def test_random_tables_match_reference(t):
    objects, arrows, identity, comp = t
    if not assert_same(objects, arrows, identity, comp):
        c = validate_category(objects, arrows, identity, comp)
        assert list(c.composable_pairs()) == brute_composable_pairs(c)
        assert derived_tables(c) == reference_derived_tables(objects, arrows, comp)


def test_tables_equal_agrees_with_canonical_key():
    cats = stock()
    relisted = []
    for c in cats:
        objects, arrows, identity, comp = raw(c)
        relisted.append(validate_category(objects[::-1], arrows[::-1], identity, dict(reversed(comp.items()))))
    for a in cats + relisted:
        for b in cats + relisted:
            assert a.tables_equal(b) == (a.canonical_key() == b.canonical_key())
    assert all(c.tables_equal(r) for c, r in zip(cats, relisted))


# ---------------------------------------------------------------------------
# one-morphism and wider hom-sets side by side


def mixed() -> FinCat:
    """chain(3) x involution_arrow: every hom-set out of (i,b) has at most one
    morphism, and every (i,a) has a hom-set of two."""
    return build.product(build.chain(3), involution_arrow())


def bz(n):
    return build.delooping(*build.cyclic_table(n), name=f"BZ{n}")


def test_mixed_category_broken_inside_a_wide_hom_set():
    objects, arrows, identity, comp = raw(mixed())
    assert comp[("(le(0,1),s)", "(id_0,s)")] == "(le(0,1),id_a)"
    comp[("(le(0,1),s)", "(id_0,s)")] = "(le(0,1),s)"  # the other morphism of hom((0,a), (1,a))
    out = assert_same(objects, arrows, identity, comp)
    assert len(out) == 5 and all(law == "associativity" for law, _ in out)
    assert out[0] == (
        "associativity",
        "((le(0,1),id_a)∘(id_0,s))∘(id_0,s) = (le(0,1),s) but (le(0,1),id_a)∘((id_0,s)∘(id_0,s)) = (le(0,1),id_a)",
    )


def functor_violations(dom, cod, ob_map, mor_map) -> list[tuple[str, str]]:
    try:
        validate_functor(dom, cod, ob_map, mor_map)
    except ValidationError as err:
        return [(c.name, c.counterexample) for c in err.report.checks]
    return []


def test_functor_into_mixed_broken_only_in_a_wide_hom_set():
    # Z/3 sends both generators to the involution, so r1∘r1 = r2 and r2∘r2 = r1 break
    z3, c = bz(3), mixed()
    ob_map = {"*": "(0,a)"}
    mor_map = {"id_*": "id_(0,a)", "r1": "(id_0,s)", "r2": "(id_0,s)"}
    expected = [
        ("composition-preserved", "image of r1∘r1 is (id_0,s), but images compose to id_(0,a)"),
        ("composition-preserved", "image of r2∘r2 is (id_0,s), but images compose to id_(0,a)"),
    ]
    assert functor_violations(z3, c, ob_map, mor_map) == expected
    assert reference_functor_violations(z3, c, ob_map, mor_map) == expected


def test_identity_of_mixed_with_one_image_moved_inside_its_hom_set():
    c = mixed()
    mor_map = {m: m for m in c.mors}
    mor_map["(le(0,1),s)"] = "(le(0,1),id_a)"
    ob_map = {x: x for x in c.objects}
    out = functor_violations(c, c, ob_map, mor_map)
    assert out == reference_functor_violations(c, c, ob_map, mor_map)
    assert out and all(law == "composition-preserved" for law, _ in out)


# random functor tables into codomains with and without wide hom-sets

DOMAINS = [build.terminal(), build.walking_arrow(), build.walking_iso(), build.chain(3),
           build.commuting_square_poset(), bz(2), bz(3), involution_arrow()]
CODOMAINS = [build.chain(3), build.walking_iso(), build.commuting_square_poset(), bz(3), involution_arrow(),
             build.product(build.chain(2), involution_arrow()), build.product(build.chain(2), bz(3))]
FUNCTORS = {(i, j): all_functor_tables(c, d) for i, c in enumerate(DOMAINS) for j, d in enumerate(CODOMAINS)}


@st.composite
def functor_tables(draw):
    """A functor between small categories with at most one defect of a kind drawn at random.

    "hom" moves the image of a non-identity morphism inside its hom-set and
    "redraw" draws every non-identity image from its hom-set, so that only
    composition-preserved can fail; the other kinds reach the earlier stages.
    """
    i, j = draw(st.integers(0, len(DOMAINS) - 1)), draw(st.integers(0, len(CODOMAINS) - 1))
    dom, cod = DOMAINS[i], CODOMAINS[j]
    ob_map, mor_map = (dict(t) for t in draw(st.sampled_from(FUNCTORS[(i, j)])))
    non_ids = list(dom.non_identity_mors())
    kind = draw(st.sampled_from(["none", "hom", "hom", "hom", "redraw", "object", "identity", "drop", "dangle"]))
    if kind in ("hom", "dangle") and non_ids:
        m = draw(st.sampled_from(non_ids))
        pool = cod.hom(ob_map[dom.src[m]], ob_map[dom.tgt[m]]) if kind == "hom" else ["nosuch"]
        mor_map[m] = draw(st.sampled_from(pool))
    elif kind == "redraw":
        for m in non_ids:
            mor_map[m] = draw(st.sampled_from(cod.hom(ob_map[dom.src[m]], ob_map[dom.tgt[m]])))
    elif kind == "object":
        ob_map[draw(st.sampled_from(dom.objects))] = draw(st.sampled_from(cod.objects))
    elif kind == "identity":
        x = draw(st.sampled_from(dom.objects))
        mor_map[dom.identity[x]] = draw(st.sampled_from(cod.hom(ob_map[x], ob_map[x])))
    elif kind == "drop":
        table = draw(st.sampled_from([ob_map, mor_map]))
        del table[draw(st.sampled_from(sorted(table)))]
    return dom, cod, ob_map, mor_map


@settings(max_examples=400, deadline=None)
@given(functor_tables())
def test_random_functors_match_reference(t):
    assert functor_violations(*t) == reference_functor_violations(*t)


# ---------------------------------------------------------------------------
# the poset builder against the fixpoint closure

NAMES = ["a", "b", "c", "d", "x1", "x10", "x2"]


@st.composite
def relations(draw):
    """Elements and a relation on them: acyclic along a random order, or any pairs at all,
    now and then with a duplicate element or an undeclared one."""
    elements = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=draw(st.integers(0, 4)) > 0))
    pool = elements + ["q"] * draw(st.integers(0, 1))
    if not pool:
        return elements, []
    if draw(st.booleans()):
        order = draw(st.permutations(pool))
        pairs = st.tuples(st.integers(0, len(order) - 1), st.integers(0, len(order) - 1))
        relation = [(order[min(p)], order[max(p)]) for p in draw(st.lists(pairs, max_size=10))]
    else:
        relation = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=8))
    return elements, relation


def poset_outcome(make, elements, relation):
    """The category's listing orders, or the checks of the error it raises."""
    try:
        c = make(elements, relation)
    except ValidationError as err:
        return [(check.name, check.counterexample) for check in err.report.checks]
    return c.objects, c.mors, list(c.comp.items()), c.factorizations, c.name


@settings(max_examples=300, deadline=None)
@given(relations())
def test_poset_matches_fixpoint_reference(t):
    assert poset_outcome(build.poset, *t) == poset_outcome(reference_poset, *t)


CYCLE = (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "c")])


def test_poset_cycle_reported_by_first_sorted_pair():
    assert poset_outcome(build.poset, *CYCLE) == [("antisymmetry", "a <= b and b <= a")]


def test_poset_cycle_report_ignores_hash_seed():
    src = os.path.dirname(os.path.dirname(grothkit.__file__))
    script = (
        "from grothkit import build\n"
        "try:\n"
        f"    build.poset(*{CYCLE!r})\n"
        "except Exception as err:\n"
        "    print(err.report.checks[0].counterexample)\n"
    )
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.stdout == "a <= b and b <= a\n", seed
