"""The hom-indexed category validator against the all-pairs reference scan.

`validate_category` walks only composable pairs and triples; the reference in
helpers.py scans every pair and triple of morphisms.  Both must report the
same violations, with the same laws and messages, in the same order.
"""

from hypothesis import given, settings, strategies as st

from grothkit import build, examples
from grothkit.fincat import FinCat, id_name, validate_category
from grothkit.groth import groth
from grothkit.report import ValidationError

from helpers import brute_composable_pairs, reference_category_violations


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
        groth(examples.semidirect_diagram()).total,
    ]
    cats += [groth(d).total for d in examples.corpus_diagrams()]
    return cats


def test_stock_categories_validate_and_pairs_match():
    for c in stock():
        assert assert_same(*raw(c)) == []
        assert list(c.composable_pairs()) == brute_composable_pairs(c)


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
