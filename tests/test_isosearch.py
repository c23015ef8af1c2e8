import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from grothkit import build, isosearch
from grothkit.fincat import (
    compose_functors,
    identity_functor,
    make_category,
    validate_diagram,
    validate_functor,
)
from grothkit.groth import groth
from grothkit.isosearch import (
    BUDGET,
    FOUND,
    NONE,
    Budget,
    _power_cycles,
    _refine,
    diagram_iso_search,
    iter_iso_tables,
    iso_search,
    over_base_iso_search,
)
from grothkit.opfib import fibres
from grothkit.report import UsageError, ValidationError

import corpus
from helpers import (
    all_functor_tables,
    brute_isos,
    center_size,
    freeze_tables,
    involution_arrow,
    quaternion_table,
    reference_iso_tables,
    reference_refine,
    relabelled,
    semidirect_table,
    walked_cycle,
)


def bz(n):
    elems, table = build.cyclic_table(n)
    return build.delooping(elems, table, name=f"BZ{n}")


def bs3():
    elems, table, unit = semidirect_table(3)
    return build.delooping(elems, table, name="BS3")


NODES_Z12_RELABELLED = 16


def _link_breaking_posets():
    """Two posets on p0..p6 whose objects get seven colours, the same on both sides."""
    elements = [f"p{i}" for i in range(7)]
    relation = [("p0", "p3"), ("p0", "p5"), ("p0", "p6"), ("p1", "p2"), ("p1", "p3"), ("p4", "p6")]
    return (build.poset(elements, relation + [("p2", "p3")], name="c"),
            build.poset(elements, relation + [("p5", "p6")], name="d"))


class TestIsoSearch:
    def test_identity_witness(self):
        c = build.chain(3)
        res = iso_search(c, c)
        assert res.status == FOUND
        assert compose_functors(res.witness.backward, res.witness.forward).is_identity_functor()

    def test_morphism_count_precheck(self):
        res = iso_search(build.walking_arrow(), build.discrete(2))
        assert res.status == NONE
        assert res.nodes == 0  # refuted by the invariant precheck alone

    def test_z6_vs_relabeled_s3(self):
        z6, s3 = bz(6), bs3()
        # oracle: the centers have different sizes, so no iso can exist
        assert center_size(z6) == 6 and center_size(s3) == 1
        # the cheap invariants agree, so only the refined classes tell them apart
        assert len(z6.objects) == len(s3.objects) and len(z6.mors) == len(s3.mors)
        hom_sizes = lambda c: sorted(len(ms) for ms in c.hom_table.values())
        assert hom_sizes(z6) == hom_sizes(s3)
        res = iso_search(z6, s3)
        assert res.status == NONE
        assert res.refuted_by == "morphism classes"

    def test_same_classes_search_runs(self):
        z4 = bz(4)
        elems, table, _ = quaternion_table()
        c = build.product(z4, z4)
        d = build.product(build.delooping(elems, table, name="Q8"), bz(2))
        # oracle: one is abelian and the other is not
        assert center_size(c) == 16 and center_size(d) == 4
        # every element order occurs equally often on both sides, so the classes agree
        assert _refine(c, d)[0] is None
        res = iso_search(c, d)
        assert res.status == NONE
        assert (res.nodes, res.refuted_by) == (1381, None)

    def test_z16_vs_z8_x_z2_refuted_at_root(self):
        res = iso_search(bz(16), build.product(bz(8), bz(2)))
        assert res.status == NONE
        assert (res.nodes, res.refuted_by) == (0, "morphism classes")

    def test_semidirect_z16_vs_z32_refuted_at_root(self):
        elems, table, _ = semidirect_table(16)
        res = iso_search(build.delooping(elems, table, name="Z16xZ2"), bz(32))
        assert res.status == NONE
        assert (res.nodes, res.refuted_by) == (0, "morphism classes")

    def test_z12_vs_relabelled_node_count(self):
        z12 = bz(12)
        mors = list(z12.mors)
        random.Random(12).shuffle(mors)
        copy, _, _ = relabelled(z12, z12.objects, mors)
        res = iso_search(z12, copy)
        assert res.status == FOUND
        assert res.refuted_by is None
        assert res.nodes == NODES_Z12_RELABELLED  # node counts repeat exactly

    def test_discrete_colours_still_refute_by_object_classes(self):
        # after one round every object has its own colour, the same seven on
        # both sides, and the bijection they fix breaks links: it sends p1 to
        # p1 and p2 to p5, but p1 <= p2 holds in c and p1 <= p5 fails in d
        c, d = _link_breaking_posets()
        assert len(c.mors) == len(d.mors)
        res = iso_search(c, d)
        assert res.status == NONE
        assert (res.nodes, res.refuted_by) == (0, "object classes")

    def test_placed_links_are_counted_on_both_sides(self):
        # b2 is placed first; a1 -> a2 then keeps every placed link of a1 (it
        # has none), but a2's link to b2 is placed, so the count rejects it
        arrows = [("f1", "a1", "b1"), ("f2", "a2", "b2")]
        c = make_category("c", ["b2", "a1", "a2", "b1"], arrows, {})
        d = make_category("d", ["b2", "a2", "a1", "b1"], arrows, {})
        res = iso_search(c, d)
        assert res.status == FOUND
        assert res.nodes == 5  # 6 without the count

    def test_budget_exceeded_is_distinct(self):
        z6 = bz(6)
        res = iso_search(z6, bz(6), budget=3)
        assert res.status == BUDGET
        assert res.witness is None

    def test_a_candidate_taken_already_costs_no_node(self):
        # each object is placed on its first untaken candidate, one node apiece;
        # ticking the taken ones too cost n(n+1)/2 nodes, over the default budget here
        for n in (300, 1100):
            res = iso_search(build.discrete(n), build.discrete(n))
            assert (res.status, res.nodes) == (FOUND, n)

    def test_seeded_order_still_finds(self):
        c = build.product(build.walking_arrow(), build.walking_iso())
        res = iso_search(c, c, rng=random.Random(7))
        assert res.status == FOUND

    def test_found_witness_is_machine_checked(self):
        a = build.product(build.walking_arrow(), build.discrete(2))
        b = build.product(build.discrete(2), build.walking_arrow())
        res = iso_search(a, b)
        assert res.status == FOUND
        fwd, bwd = res.witness.forward, res.witness.backward
        assert compose_functors(bwd, fwd).is_identity_functor()
        assert compose_functors(fwd, bwd).is_identity_functor()


# Deeper than Python's recursion limit: chain(8)² has 64 objects and 1,232
# non-identity morphisms.
NODES_CHAIN8_SQUARED = 76
# chain(n)² against a shuffled copy, n = 4..8: every hom-set has at most one
# morphism, so every morphism is a forced move and only object placements take nodes
NODES_CHAIN_SQUARED = {4: 21, 5: 31, 6: 45, 7: 63, 8: NODES_CHAIN8_SQUARED}


def _shuffled(c, seed):
    """A copy of c under new names, listed in orders shuffled by the seed."""
    obs, mors = list(c.objects), list(c.mors)
    random.Random(seed).shuffle(obs)
    random.Random(seed).shuffle(mors)
    return relabelled(c, obs, mors)[0]


def _chain_squared_and_shuffled(n):
    c = build.chain(n)
    p = build.product(c, c)
    return p, _shuffled(p, n)


# chain(n) x chain(m) against chain(m) x chain(n), n < m: no automorphism, so the
# stable partition is discrete and refinement ends with the round that checks
# the one bijection its colours fix; every node places an object
NODES_SWAPPED_CHAIN_PRODUCTS = {(3, 5): 15, (4, 5): 20}


class TestDepth:
    def test_chain8_squared_against_itself_and_a_relabelled_copy(self):
        p, copy = _chain_squared_and_shuffled(8)
        # every node tries to place an object; against itself the first candidate always fits
        for d, nodes in ((p, len(p.objects)), (copy, NODES_CHAIN8_SQUARED)):
            res = iso_search(p, d)
            assert res.status == FOUND
            assert compose_functors(res.witness.backward, res.witness.forward).is_identity_functor()
            assert res.nodes == nodes

    def test_chain_squared_node_counts(self):
        for n, nodes in NODES_CHAIN_SQUARED.items():
            res = iso_search(*_chain_squared_and_shuffled(n))
            assert res.status == FOUND
            assert res.nodes == nodes, n
        assert NODES_CHAIN_SQUARED[6] < 60

    def test_swapped_chain_products_with_a_discrete_partition(self):
        for (n, m), nodes in NODES_SWAPPED_CHAIN_PRODUCTS.items():
            c, d = build.product(build.chain(n), build.chain(m)), build.product(build.chain(m), build.chain(n))
            refuted_by, ((ob_c, _), (ob_d, _)) = _refine(c, d)
            assert refuted_by is None
            assert len(set(ob_c.values())) == len(c.objects)
            res = iso_search(c, d)
            assert res.status == FOUND
            assert res.nodes == nodes, (n, m)

    def test_a_budget_that_runs_out_while_the_lone_objects_are_placed(self):
        # every object of chain(3) x chain(5) is alone in its class, so all fifteen
        # are placed at once; the budget still ticks once per object
        c, d = build.product(build.chain(3), build.chain(5)), build.product(build.chain(5), build.chain(3))
        for limit, nodes in ((0, 1), (1, 2), (7, 8), (14, 15)):
            res = iso_search(c, d, budget=limit)
            assert (res.status, res.nodes, res.witness) == (BUDGET, nodes, None), limit
        res = iso_search(c, d, budget=15)
        assert (res.status, res.nodes) == (FOUND, 15)

    def test_forced_moves_take_no_budget(self):
        # a forced move is no node, so the budget still bounds the work: each
        # object placement leads to at most |mors| forced moves
        res = iso_search(*_chain_squared_and_shuffled(8), budget=10)
        assert res.status == BUDGET
        assert res.witness is None

    def test_diagram_iso_over_many_base_objects(self):
        z = build.constant_diagram(build.discrete(1100), build.terminal())
        res = diagram_iso_search(z, z)
        assert res.status == FOUND
        assert res.nodes == 2200  # one fibre iso per base object, then one node each


def _shift(n, m, t):
    """chain(m) at every object of chain(n), i <= j acting by the clamped shift k -> min(k + t(j-i), m-1)."""
    base, fibre = build.chain(n), build.chain(m)

    def shift(u):
        img = {str(k): str(min(k + t * (int(base.tgt[u]) - int(base.src[u])), m - 1)) for k in range(m)}
        return validate_functor(fibre, fibre, img, {a: fibre.hom(img[fibre.src[a]], img[fibre.tgt[a]])[0]
                                                    for a in fibre.mors})
    return validate_diagram(base, {x: fibre for x in base.objects}, {u: shift(u) for u in base.mors})


# groth(fibres(groth(F))) against groth(F) over chain(n), for the shift diagram F of shape (n, m, t)
NODES_ROUNDTRIP_TOTAL = {(4, 4, 1): 16, (5, 4, 1): 20, (5, 5, 1): 25, (6, 6, 1): 36}


class TestStructuredSearches:
    def test_over_base_respects_projection(self):
        wa = build.walking_arrow()
        d2 = build.discrete(2)
        p, fst, snd = build.product_projections(wa, d2)
        res = over_base_iso_search(p, fst, p, fst)
        assert res.status == FOUND
        fwd = res.witness.forward
        assert all(fst.ob_map[fwd.ob_map[x]] == fst.ob_map[x] for x in p.objects)

    def test_over_base_witness_is_rechecked_over_the_base(self, monkeypatch):
        # swapping the discrete(2) factor is a category iso that does not lie over the first projection
        p, fst, _ = build.product_projections(build.discrete(2), build.walking_arrow())
        swap = str.maketrans("01", "10")
        tables = ({x: x.translate(swap) for x in p.objects}, {m: m.translate(swap) for m in p.mors})
        monkeypatch.setattr(isosearch, "iter_iso_tables", lambda *args: iter([tables]))
        with pytest.raises(ValidationError, match=r"\[FAIL\] over-base -- proj2∘forward and proj1 differ on object \(x0,a\)$"):
            over_base_iso_search(p, fst, p, fst)

    def test_over_base_refuted_by_seeded_object_classes(self):
        # terminal() at 0 and chain(3) at 1 over chain(2), against the fibres swapped: both
        # totals are chain(4), but the fibres have other sizes, so the seeded classes differ
        base, one, three = build.chain(2), build.terminal(), build.chain(3)
        up = base.hom("0", "1")[0]
        into = validate_functor(one, three, {"*": "0"}, {"id_*": three.identity["0"]})
        onto = validate_functor(three, one, {x: "*" for x in three.objects}, {m: "id_*" for m in three.mors})

        def total(z0, z1, f):
            at_mor = {base.identity["0"]: identity_functor(z0), base.identity["1"]: identity_functor(z1), up: f}
            return groth(validate_diagram(base, {"0": z0, "1": z1}, at_mor))
        g1, g2 = total(one, three, into), total(three, one, onto)
        assert iso_search(g1.total, g2.total).status == FOUND
        res = over_base_iso_search(g1.total, g1.projection, g2.total, g2.projection)
        assert (res.status, res.nodes, res.refuted_by) == (NONE, 0, "object classes")

    def test_roundtrip_total_node_counts(self):
        for shape, nodes in NODES_ROUNDTRIP_TOTAL.items():
            g1 = groth(_shift(*shape))
            g2 = groth(fibres(g1.opfib()))
            res = over_base_iso_search(g2.total, g2.projection, g1.total, g1.projection)
            assert (res.status, res.nodes, res.refuted_by) == (FOUND, nodes, None), shape

    def test_over_base_refuses_a_projection_from_another_total(self):
        wa, d2 = build.walking_arrow(), build.discrete(2)
        _, fst, _ = build.product_projections(wa, d2)
        q = build.product(d2, wa)
        with pytest.raises(UsageError, match="a projection does not start at its total"):
            over_base_iso_search(q, fst, q, fst)

    def test_diagram_iso_constant_vs_constant(self):
        base = build.chain(3)
        d1 = build.constant_diagram(base, build.walking_iso())
        d2 = build.constant_diagram(base, build.walking_iso())
        res = diagram_iso_search(d1, d2)
        assert (res.status, res.nodes) == (FOUND, 15)

    def test_diagram_iso_node_counts(self):
        sd = corpus.semidirect_diagram()
        res = diagram_iso_search(fibres(groth(sd).opfib()), sd)
        assert (res.status, res.nodes) == (FOUND, 6)
        z = build.constant_diagram(build.chain(2), build.discrete(5))
        res = diagram_iso_search(z, z)
        assert (res.status, res.nodes) == (FOUND, 652)  # every automorphism of each fibre is listed

    def test_diagram_iso_absent_after_nodes(self):
        # BZ/2 acting on discrete(2) trivially and by the swap: the fibres are isomorphic,
        # so no invariant refutes the pair, but no fibre iso makes the square at s1 commute
        base, d2 = corpus.bz(2, prefix="s"), build.discrete(2)
        ident = identity_functor(d2)
        trivial = validate_diagram(base, {"*": d2}, {"id_*": ident, "s1": ident}, name="trivial")
        swap = validate_diagram(base, {"*": d2}, {"id_*": ident, "s1": corpus.swap_functor(d2)}, name="swap")
        res = diagram_iso_search(trivial, swap)
        assert (res.status, res.nodes, res.refuted_by) == (NONE, 6, None)

    def test_diagram_iso_refuted_on_fibre_mismatch(self):
        base = build.walking_arrow()
        d1 = build.constant_diagram(base, build.walking_iso())
        d2 = build.constant_diagram(base, build.walking_arrow())
        res = diagram_iso_search(d1, d2)
        assert res.status == NONE


# ---------------------------------------------------------------------------
# the search against brute force


def _fork(f_first: bool):
    """f: a -> b, then g1, g2: b -> c with distinct composites h1, h2: a -> c.

    Swapping h1 and h2 and fixing the rest respects every colour, and it
    breaks only g1∘f = h1.  With f listed first that constraint is last
    checked when g1 is assigned, with f listed last when f is.
    """
    gs = [("g1", "b", "c"), ("g2", "b", "c"), ("h1", "a", "c"), ("h2", "a", "c")]
    f = [("f", "a", "b")]
    return make_category(
        "fork", ["a", "b", "c"], f + gs if f_first else gs + f, {("g1", "f"): "h1", ("g2", "f"): "h2"}
    )


def _monoid(size, index):
    """The one-object monoid {1, a, …, a^size} with a^(size+1) = a^index."""
    period = size + 1 - index
    power = lambda k: "a" * (k if k <= size else index + (k - index) % period)
    elems = [power(k) for k in range(1, size + 1)]
    return make_category(f"monoid_a{size + 1}_a{index}", ["*"], [(e, "*", "*") for e in elems],
                         {(g, f): power(len(g) + len(f)) for g in elems for f in elems})


def _stock():
    wa, wi, d2 = build.walking_arrow(), build.walking_iso(), build.discrete(2)
    small = [build.terminal(), wa, wi, d2, build.discrete(3), build.chain(3), build.commuting_square_poset(),
             _fork(True), _fork(False),
             # a³ = a² and a⁴ = a²: powers with an index, not only a period
             _monoid(2, 2), _monoid(3, 2)]
    products = [build.product(a, b) for a, b in itertools.product([wa, wi, d2], repeat=2)]
    groups = [bz(n) for n in range(2, 7)] + [bs3()]
    return small + products + groups


STOCK = _stock()
# in BZ2 x BZ2, (id_*,r1), (r1,id_*) and (r1,r1) share an unseeded colour, but over
# the first factor (id_*,r1) lies over another morphism than the other two
FACTORS = [build.walking_arrow(), build.walking_iso(), build.discrete(2), bz(2)]


def _searched(c, d, over=None):
    found = [freeze_tables(ob, mor) for ob, mor in iter_iso_tables(c, d, Budget(10**9), over)]
    assert len(found) == len(set(found))
    return set(found)


def _over(p1, p2):
    """The brute-force filters for isos over a base: images under the two projections must agree."""
    return (lambda x, u: p1.ob_map[x] == p2.ob_map[u]), (lambda m, n: p1.mor_map[m] == p2.mor_map[n])


def _moved(proj, copy, ob, mor):
    """proj read on a relabelled copy of its source, under the renamings ob and mor."""
    return validate_functor(copy, proj.cod, {ob[x]: u for x, u in proj.ob_map.items()},
                            {mor[m]: n for m, n in proj.mor_map.items()})


def _relabelled_product_over_a_factor(data):
    """A product of two FACTORS with its first projection, and a relabelled copy with its own."""
    a, b = data.draw(st.sampled_from(FACTORS)), data.draw(st.sampled_from(FACTORS))
    p, fst, _ = build.product_projections(a, b)
    copy, ob, mor = relabelled(p, data.draw(st.permutations(p.objects)), data.draw(st.permutations(p.mors)))
    return p, fst, copy, _moved(fst, copy, ob, mor)


def _factor_pairs():
    """a x b1 against a x b2 over a, and against b2 x a over a, for all FACTORS a, b1, b2."""
    for a, b1, b2 in itertools.product(FACTORS, repeat=3):
        p1, fst1, _ = build.product_projections(a, b1)
        p2, fst2, _ = build.product_projections(a, b2)
        p3, _, snd3 = build.product_projections(b2, a)
        yield p1, fst1, p2, fst2
        yield p1, fst1, p3, snd3


class TestAgainstBruteForce:
    def test_power_cycles_agree_with_a_direct_walk(self):
        for c in STOCK:
            endos = [m for m in c.mors if c.src[m] == c.tgt[m]]
            assert _power_cycles(c) == {m: walked_cycle(c, m) for m in endos}, c.name

    def test_all_stock_pairs(self):
        for c, d in itertools.product(STOCK, repeat=2):
            assert _searched(c, d) == brute_isos(c, d), (c.name, d.name)

    def test_products_over_a_factor(self):
        for c, p, d, q in _factor_pairs():
            assert _searched(c, d, (p, q)) == brute_isos(c, d, *_over(p, q)), (c.name, d.name)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_copies(self, data):
        c = data.draw(st.sampled_from(STOCK))
        copy, ob, mor = relabelled(
            c, data.draw(st.permutations(c.objects)), data.draw(st.permutations(c.mors))
        )
        assert _searched(c, copy) == brute_isos(c, copy)
        assert _searched(copy, c) == brute_isos(copy, c)
        refuted_by, ((ob_c, mor_c), (ob_d, mor_d)) = _refine(c, copy)
        assert refuted_by is None
        assert all(ob_c[x] == ob_d[ob[x]] for x in c.objects)
        assert all(mor_c[m] == mor_d[mor[m]] for m in c.mors)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_products_over_a_factor(self, data):
        c, p, d, q = _relabelled_product_over_a_factor(data)
        assert _searched(c, d, (p, q)) == brute_isos(c, d, *_over(p, q))


def _seeded_classes_refine(c, p, d, q) -> bool:
    """Assert that each class of the colours of c and d seeded by p and q lies
    inside one unseeded class and inside one fibre; False if the seeds refute the pair."""
    refuted_by, seeded = _refine(c, d, (p, q))
    if refuted_by is not None:
        return False
    _, unseeded = _refine(c, d)
    for kind, image in ((0, lambda f: f.ob_map), (1, lambda f: f.mor_map)):
        for members in _joint_classes(seeded)[kind]:
            assert len({unseeded[side][kind][name] for side, name in members}) == 1
            assert len({image((p, q)[side])[name] for side, name in members}) == 1
    return True


class TestSeededColours:
    def test_products_over_a_factor(self):
        unrefuted = sum(_seeded_classes_refine(*pair) for pair in _factor_pairs())
        assert unrefuted == 32  # a x b against a x b and b x a, for each of the 16 pairs (a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_relabelled_products_over_a_factor(self, data):
        assert _seeded_classes_refine(*_relabelled_product_over_a_factor(data))


# Categories with one-morphism hom-sets beside wider ones: the search skips the
# composition constraints whose sides lie in a one-morphism hom-set.
INVOLUTION = involution_arrow()
MIXED = [INVOLUTION, build.product(build.chain(2), INVOLUTION), build.product(INVOLUTION, build.walking_arrow()),
         build.product(build.discrete(2), INVOLUTION), build.product(build.walking_iso(), INVOLUTION)]
# (nodes to the first witness, witnesses, nodes to run dry) against a relabelled copy;
# a morphism with one candidate of its colour is a forced move and takes no node
MIXED_NODES = [
    (INVOLUTION, (2, 1, 2)),
    (_fork(False), (8, 2, 13)),
    (build.product(build.walking_arrow(), INVOLUTION), (6, 2, 8)),
    (build.product(build.chain(3), INVOLUTION), (12, 4, 30)),
    (build.product(INVOLUTION, INVOLUTION), (22, 8, 72)),
    (build.product(build.commuting_square_poset(), INVOLUTION), (18, 16, 166)),
]


class TestMixedHomSets:
    def test_mixed_pairs_against_brute_force(self):
        for c, d in itertools.product(MIXED, repeat=2):
            assert _searched(c, d) == brute_isos(c, d), (c.name, d.name)

    def test_node_counts(self):
        for k, (c, counts) in enumerate(MIXED_NODES):
            rng = random.Random(k)
            obs, mors = list(c.objects), list(c.mors)
            rng.shuffle(obs)
            rng.shuffle(mors)
            copy, _, _ = relabelled(c, obs, mors)
            res = iso_search(c, copy)
            assert res.status == FOUND
            b = Budget(10**9)
            witnesses = sum(1 for _ in iter_iso_tables(c, copy, b))
            assert (res.nodes, witnesses, b.used) == counts, c.name


def _joint_classes(colours):
    """The object classes and the morphism classes of c ⊔ d, each a set of
    classes of (side, name), so that palette numbers do not matter."""
    out = []
    for kind in (0, 1):
        classes: dict = {}
        for side, maps in enumerate(colours):
            for name, colour in maps[kind].items():
                classes.setdefault(colour, set()).add((side, name))
        out.append({frozenset(members) for members in classes.values()})
    return out


def _agrees_with_reference(c, d, over=None) -> bool:
    refuted_by, colours = _refine(c, d, over)
    expected, reference = reference_refine(c, d, over)
    return refuted_by == expected and (refuted_by is not None or _joint_classes(colours) == _joint_classes(reference))


# factors with as many objects and morphisms as each other, so that their
# products with posets of as many morphisms pass the counts
SAME_SIZE_FACTORS = [[None], [INVOLUTION, build.walking_iso()], [bz(3), _monoid(2, 1), _monoid(2, 2)]]


@st.composite
def _poset_pairs(draw):
    """A poset on a few elements times a small factor, against a shuffled copy or
    against another such product with as many morphisms."""
    n = draw(st.integers(0, 5))
    factors = draw(st.sampled_from(SAME_SIZE_FACTORS))
    pairs = st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=8)
    elements = [f"p{i}" for i in range(n)]
    c, d = (build.poset(elements, [(elements[min(p)], elements[max(p)]) for p in draw(pairs) if p[0] != p[1]])
            for _ in range(2))
    f, g = draw(st.sampled_from(factors)), draw(st.sampled_from(factors))
    if f is not None:
        c, d = build.product(c, f), build.product(d, g)
    if draw(st.integers(0, 3)) == 0:
        return c, _shuffled(c, draw(st.integers(0, 9)))
    assume(len(c.mors) == len(d.mors))  # else the morphism count alone refutes the pair
    return c, d


def _over_chain(poset, factor, levels, base):
    """poset, or poset x factor, with its map to the chain `base` that sends the element
    p<i> to level levels[i] (through the first projection)."""
    ob = {x: base.objects[levels[i]] for i, x in enumerate(poset.objects)}
    p = validate_functor(poset, base, ob, {m: base.hom(ob[poset.src[m]], ob[poset.tgt[m]])[0] for m in poset.mors})
    if factor is None:
        return poset, p
    product, fst, _ = build.product_projections(poset, factor)
    return product, compose_functors(p, fst)


@st.composite
def _seeded_poset_pairs(draw):
    """Two products as `_poset_pairs` draws them, each with a map to one chain through
    levels that rise with the element index, as every relation does; a shuffled copy
    gets its original's map under the renaming."""
    n = draw(st.integers(0, 5))
    base = build.chain(draw(st.integers(1, 3)))
    levels = st.lists(st.integers(0, len(base.objects) - 1), min_size=n, max_size=n).map(sorted)
    factors = draw(st.sampled_from(SAME_SIZE_FACTORS))
    pairs = st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=8)
    elements = [f"p{i}" for i in range(n)]
    (c, p), (d, q) = (
        _over_chain(build.poset(elements, [(elements[min(r)], elements[max(r)]) for r in draw(pairs) if r[0] != r[1]]),
                    draw(st.sampled_from(factors)), draw(levels), base)
        for _ in range(2))
    if draw(st.integers(0, 3)) == 0:
        obs = list(c.objects)
        random.Random(draw(st.integers(0, 9))).shuffle(obs)
        copy, ob, mor = relabelled(c, obs, list(c.mors))
        return c, p, copy, _moved(p, copy, ob, mor)
    assume(len(c.mors) == len(d.mors))  # else the morphism count alone refutes the pair
    return c, p, d, q


def _stock_mixed_and_relabelled_pairs():
    pairs = [*itertools.product(STOCK, repeat=2), *itertools.product(MIXED, repeat=2)]
    pairs += [(c, _shuffled(c, k)) for k, c in enumerate([*STOCK, *MIXED, *(c for c, _ in MIXED_NODES)])]
    pairs += [_chain_squared_and_shuffled(n) for n in NODES_CHAIN_SQUARED]
    pairs += [(build.product(build.chain(n), build.chain(m)), build.product(build.chain(m), build.chain(n)))
              for n, m in NODES_SWAPPED_CHAIN_PRODUCTS]
    pairs.append(_link_breaking_posets())
    return pairs


class TestRefineAgainstReference:
    def test_stock_mixed_and_relabelled_pairs(self):
        for c, d in _stock_mixed_and_relabelled_pairs():
            assert _agrees_with_reference(c, d), (c.name, d.name)

    @settings(max_examples=150, deadline=None)
    @given(_poset_pairs())
    def test_small_random_categories(self, pair):
        assert _agrees_with_reference(*pair)

    def test_products_over_a_factor(self):
        for c, p, d, q in _factor_pairs():
            assert _agrees_with_reference(c, d, (p, q)), (c.name, d.name)

    @settings(max_examples=80, deadline=None)
    @given(_seeded_poset_pairs())
    def test_small_random_categories_over_a_chain(self, pair):
        c, p, d, q = pair
        assert _agrees_with_reference(c, d, (p, q))


def _same_as_reference(c, d, over=None, seed=None, cap=120):
    """The search and `reference_iso_tables` yield the same first `cap` tables in the
    same order, each with its entries in the same order, after the same nodes and
    with the same refutation."""
    runs = []
    for search in (iter_iso_tables, reference_iso_tables):
        budget, rng = Budget(10**6), None if seed is None else random.Random(seed)
        tables = [(list(ob.items()), list(mor.items()))
                  for ob, mor in itertools.islice(search(c, d, budget, over, rng), cap)]
        runs.append((tables, budget.used, budget.refuted_by))
    return runs[0] == runs[1]


class TestObjectStageAgainstReference:
    """Placing the objects alone in their class at once and comparing hom-set sizes
    only with the placed objects of shared classes changes no table, order or node."""

    def test_stock_mixed_and_relabelled_pairs(self):
        for k, (c, d) in enumerate(_stock_mixed_and_relabelled_pairs()):
            assert _same_as_reference(c, d), (c.name, d.name)
            assert _same_as_reference(c, d, seed=k), (c.name, d.name)

    def test_chain_squares_and_discrete_categories(self):
        for n in NODES_CHAIN_SQUARED:
            assert _same_as_reference(*_chain_squared_and_shuffled(n)), n
        for n in range(7):
            assert _same_as_reference(build.discrete(n), build.discrete(n)), n
            assert _same_as_reference(build.discrete(n), _shuffled(build.discrete(n), n), seed=n), n

    def test_a_morphism_alone_in_its_colour_at_an_object_of_a_shared_class(self):
        # the monoid {1, a, aa} with aaa = aa at q and Z/3 at p: p and q share a class,
        # but a and aa are each alone in their colour; d lists q first, so p is placed
        # on q first, and d's a then lies outside the hom-set between the images
        arrows = [("a", "q", "q"), ("aa", "q", "q"), ("r", "p", "p"), ("rr", "p", "p")]
        comp = {("a", "a"): "aa", ("a", "aa"): "aa", ("aa", "a"): "aa", ("aa", "aa"): "aa",
                ("r", "r"): "rr", ("r", "rr"): "id_p", ("rr", "r"): "id_p", ("rr", "rr"): "r"}
        c, d = make_category("c", ["p", "q"], arrows, comp), make_category("d", ["q", "p"], arrows, comp)
        assert _same_as_reference(c, d)
        # two nodes place p on q and q on p, which a's boundary refutes, two place p and q
        # on themselves, and two map r and rr, which share a colour
        assert iso_search(c, d).nodes == 6

    def test_products_over_a_factor(self):
        for c, p, d, q in _factor_pairs():
            assert _same_as_reference(c, d, (p, q)), (c.name, d.name)

    @settings(max_examples=60, deadline=None)
    @given(_poset_pairs(), st.integers(0, 9) | st.none())
    def test_small_random_categories(self, pair, seed):
        assert _same_as_reference(*pair, seed=seed)

    @settings(max_examples=40, deadline=None)
    @given(_seeded_poset_pairs())
    def test_small_random_categories_over_a_chain(self, pair):
        c, p, d, q = pair
        assert _same_as_reference(c, d, (p, q))


@pytest.fixture
def colourings(monkeypatch):
    """The (category, seed) of every colouring computed, as `isosearch._colour` is called."""
    made = []
    colour = isosearch._colour

    def counted(cat, seed):
        made.append((cat, seed))
        return colour(cat, seed)

    monkeypatch.setattr(isosearch, "_colour", counted)
    return made


def _outcome(res):
    """What a search result says: status, nodes, refutation and the witness's tables."""
    tables = None if res.witness is None else (dict(res.witness.forward.ob_map), dict(res.witness.forward.mor_map))
    return res.status, res.nodes, res.refuted_by, tables


# deloopings, their products, chains and their products: Z/6 and Z/2 x Z/3 and Z/3 x Z/2
# are one class, chain(2) x chain(3) and chain(3) x chain(2) another, the rest one each
def _family():
    return ([bz(n) for n in (2, 3, 4, 6)]
            + [build.product(bz(a), bz(b)) for a, b in ((2, 2), (2, 3), (3, 2))]
            + [build.chain(n) for n in (2, 3, 4)]
            + [build.product(build.chain(a), build.chain(b)) for a, b in ((2, 2), (2, 3), (3, 2))])


class TestColouringCache:
    def test_a_second_search_colours_nothing(self, colourings):
        c, d = build.product(build.chain(3), build.chain(4)), build.product(build.chain(4), build.chain(3))
        first = _outcome(iso_search(c, d))
        assert [cat for cat, _ in colourings] == [c, d]
        assert _outcome(iso_search(c, d)) == first
        assert len(colourings) == 2
        assert first[0] == FOUND

    def test_a_second_search_derives_no_table_again(self, colourings, monkeypatch):
        # the kept record holds every table the search reads, `_into` included
        into = []
        derive = isosearch._into
        monkeypatch.setattr(isosearch, "_into", lambda cat: into.append(cat) or derive(cat))
        wide = bz(6), build.product(bz(2), bz(3))
        for c, d in [wide, _chain_squared_and_shuffled(4), (build.discrete(4), build.discrete(4))]:
            first = _outcome(iso_search(c, d))
            kept = c.cache[("colouring", None)], d.cache[("colouring", None)]
            made = len(colourings), len(into)
            assert _outcome(iso_search(c, d)) == first
            assert (len(colourings), len(into)) == made
            assert all(a is b for a, b in zip(kept, (c.cache[("colouring", None)], d.cache[("colouring", None)])))
        assert into == list(wide)  # a thin category has no use for it

    def test_a_family_classified_pairwise_colours_each_category_once(self, colourings):
        family = _family()
        found = {(i, j) for (i, c), (j, d) in itertools.product(enumerate(family), repeat=2)
                 if iso_search(c, d).status == FOUND}
        assert sorted(id(cat) for cat, _ in colourings) == sorted(map(id, family))
        assert all(seed is None for _, seed in colourings)
        classes = {frozenset(j for j in range(len(family)) if (i, j) in found) for i in range(len(family))}
        assert sorted(map(sorted, classes)) == [[0], [1], [2], [3, 5, 6], [4], [7], [8], [9], [10], [11, 12]]

    def test_a_constant_diagram_colours_its_fibre_once(self, colourings):
        fibre = build.walking_iso()
        z1, z2 = build.constant_diagram(build.chain(3), fibre), build.constant_diagram(build.chain(3), fibre)
        assert (diagram_iso_search(z1, z2).status, colourings) == (FOUND, [(fibre, None)])
        assert diagram_iso_search(z1, z2).status == FOUND
        assert len(colourings) == 1

    def test_seeded_colourings_are_kept_per_projection(self, colourings):
        c, fst, snd = build.product_projections(build.walking_arrow(), build.discrete(2))
        d, fst_d, snd_d = build.product_projections(build.walking_arrow(), build.discrete(2))
        unseeded, over_a, over_b = _refine(c, d), _refine(c, d, (fst, fst_d)), _refine(c, d, (snd, snd_d))
        assert colourings == [(c, None), (d, None), (c, fst), (d, fst_d), (c, snd), (d, snd_d)]
        assert [len(set(ob_c.values())) for _, ((ob_c, _), _) in (unseeded, over_a, over_b)] == [2, 2, 4]
        # asked again, in another order, each is read from the cache, none for another seed
        assert (_refine(c, d, (snd, snd_d)), _refine(c, d), _refine(c, d, (fst, fst_d))) == (over_b, unseeded, over_a)
        assert len(colourings) == 6
        assert over_a != unseeded  # the seeds' images are part of the morphism colours

    def test_seeded_and_unseeded_searches_keep_separate_records(self, colourings):
        c, _, snd = build.product_projections(build.walking_arrow(), build.discrete(2))
        d, _, snd_d = build.product_projections(build.walking_arrow(), build.discrete(2))
        plain, over = _outcome(iso_search(c, d)), _outcome(over_base_iso_search(c, snd, d, snd_d))
        assert colourings == [(c, None), (d, None), (c, snd), (d, snd_d)]
        # unseeded, the two objects over each end of the arrow share a class; over the
        # second factor each object is alone in its class and is placed at once
        alone = {seed: cat.cache[("colouring", seed)][2][1] for cat, seed in colourings}
        assert alone == {None: [], snd: list(c.objects), snd_d: list(d.objects)}
        assert (plain[:2], over[:2]) == ((FOUND, 4), (FOUND, 4))
        assert (_outcome(over_base_iso_search(c, snd, d, snd_d)), _outcome(iso_search(c, d))) == (over, plain)
        assert len(colourings) == 4

    def test_a_renamed_copy_shares_the_colouring_and_the_verdicts(self, colourings):
        for c, d in [(bz(6), build.product(bz(2), bz(3))), (bz(4), build.product(bz(2), bz(2))),
                     (build.product(build.chain(2), build.chain(3)), build.product(build.chain(3), build.chain(2)))]:
            before = _outcome(iso_search(c, d))
            renamed = dataclasses.replace(c, name=f"{c.name}_renamed")
            assert renamed.cache is c.cache
            made = len(colourings)
            assert _outcome(iso_search(renamed, d)) == before
            assert len(colourings) == made


# The diagram search checks, at each node, the morphisms into and
# out of the newly assigned object.  On a chain the objects are assigned in
# listing order, so every morphism points forward; on its opposite every one
# points back, and the walking iso has both.
SHAPES = [build.chain(3), build.opposite(build.chain(3)), build.walking_iso()]


def _functors(c, d):
    return [validate_functor(c, d, ob, mor) for ob, mor in all_functor_tables(c, d)]


def _diagrams(base, fibre):
    """Every diagram on base whose fibres are all `fibre`."""
    ends = _functors(fibre, fibre)
    non_ids = base.non_identity_mors()
    out = []
    for choice in itertools.product(ends, repeat=len(non_ids)):
        at_mor = dict(zip(non_ids, choice))
        at_mor.update({base.identity[x]: identity_functor(fibre) for x in base.objects})
        try:
            out.append(validate_diagram(base, {x: fibre for x in base.objects}, at_mor))
        except ValidationError:
            pass
    return out


def _brute_diagram_iso(z1, z2) -> bool:
    base = z1.base
    pools = [[(dict(ob), dict(mor)) for ob, mor in brute_isos(z1.at_ob[v], z2.at_ob[v])] for v in base.objects]
    for choice in itertools.product(*pools):
        comps = dict(zip(base.objects, choice))
        if all(
            all(comps[base.tgt[h]][0][z1.at_mor[h].ob_map[x]] == z2.at_mor[h].ob_map[comps[base.src[h]][0][x]]
                for x in z1.at_ob[base.src[h]].objects)
            and all(comps[base.tgt[h]][1][z1.at_mor[h].mor_map[m]] == z2.at_mor[h].mor_map[comps[base.src[h]][1][m]]
                    for m in z1.at_ob[base.src[h]].mors)
            for h in base.mors
        ):
            return True
    return False


class TestIndexedLoopsAgainstBruteForce:
    def test_diagram_iso_search(self):
        for shape in SHAPES:
            diagrams = _diagrams(shape, build.discrete(2))
            for z1, z2 in itertools.product(diagrams, repeat=2):
                res = diagram_iso_search(z1, z2)
                assert res.status == (FOUND if _brute_diagram_iso(z1, z2) else NONE), shape.name
