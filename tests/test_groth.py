from grothkit import build
from grothkit.fincat import (
    compose_functors,
    id_name,
    validate_diagram_mor,
    validate_functor,
)
from grothkit.groth import (
    base_change,
    cocone_factorize,
    factorize,
    groth,
    groth_map,
    inc_cocone,
    validate_lax_cocone,
)
from grothkit.isosearch import FOUND, iso_search, over_base_iso_search
from grothkit.opfib import check_split_opfib, pullback_opfib

import corpus
from helpers import (
    all_functor_tables,
    cross_morphism_count,
    functors_table_equal,
    groth_morphism_count,
    groth_object_count,
    semidirect_table,
)


class TestGroth:
    def test_delta1_total_is_base(self):
        for base in corpus.stock_bases().values():
            gt = groth(build.terminal_diagram(base))
            assert iso_search(gt.total, base).status == FOUND

    def test_terminal_base_total_is_fibre(self):
        c = build.walking_iso()
        gt = groth(build.one_object_diagram(c))
        assert iso_search(gt.total, c).status == FOUND

    def test_deltaB_total_is_product(self):
        a, b = build.chain(3), build.walking_arrow()
        gt = groth(build.constant_diagram(a, b))
        prod, fst, _ = build.product_projections(a, b)
        res = over_base_iso_search(gt.total, gt.projection, prod, fst)
        assert res.status == FOUND  # and the projection is the first projection

    def test_semidirect_product(self):
        gt = groth(corpus.semidirect_diagram())
        # oracle: build the Cayley table of Z/3 x| Z/2 independently
        elems, table, unit = semidirect_table(3)
        from helpers import group_axiom_failures

        assert group_axiom_failures(elems, table, unit) == []
        oracle = build.delooping(elems, table, name="BS3")
        assert iso_search(gt.total, oracle).status == FOUND
        # and it is NOT the cyclic group of order six
        z6 = build.delooping(*build.cyclic_table(6), name="BZ6")
        assert iso_search(gt.total, z6).status == "none"

    def test_counting_laws(self):
        for d in corpus.corpus_diagrams():
            gt = groth(d)
            assert len(gt.total.objects) == groth_object_count(d), d.name
            assert len(gt.total.mors) == groth_morphism_count(d), d.name

    def test_cross_morphisms_match_comma_objects(self):
        d = [x for x in corpus.corpus_diagrams() if x.name == "collapse_arrow"][0]
        gt = groth(d)
        t = d.at_mor["f"]
        cross = [m for m in gt.total.mors if gt.mor_pair[m][0] == "f"]
        assert len(cross) == cross_morphism_count(t)
        over_0 = [m for m in gt.total.mors if gt.mor_pair[m][0] in ("id_a",)]
        over_1 = [m for m in gt.total.mors if gt.mor_pair[m][0] in ("id_b",)]
        assert len(over_0) == len(d.at_ob["a"].mors)
        assert len(over_1) == len(d.at_ob["b"].mors)
        assert len(gt.total.mors) == len(over_0) + len(over_1) + len(cross)

    def test_deterministic(self):
        d = corpus.semidirect_diagram()
        g1, g2 = groth(d), groth(d)
        assert g1.total.canonical_key() == g2.total.canonical_key()
        assert dict(g1.lifts) == dict(g2.lifts)

    def test_canonical_cleavage_split_everywhere(self):
        for d in corpus.corpus_diagrams():
            assert check_split_opfib(groth(d).opfib()).passed, d.name


class TestGrothMap:
    def _constant_gamma(self):
        base = build.walking_arrow()
        b1, b2 = build.discrete(2), build.walking_arrow()
        t = validate_functor(
            b1, b2, {"x0": "a", "x1": "b"},
            {id_name("x0"): id_name("a"), id_name("x1"): id_name("b")}, name="t",
        )
        f_diag = build.constant_diagram(base, b1, name="F")
        g_diag = build.constant_diagram(base, b2, name="G")
        return validate_diagram_mor(f_diag, g_diag, {"a": t, "b": t}, name="gamma"), t

    def test_identity_gives_identity(self):
        d = corpus.semidirect_diagram()
        from grothkit.fincat import identity_diagram_mor

        t = groth_map(identity_diagram_mor(d))
        assert t.is_identity_functor()

    def test_constant_gamma_acts_as_product_map(self):
        gamma, t = self._constant_gamma()
        gf, gg = groth(gamma.dom), groth(gamma.cod)
        m = groth_map(gamma, gf, gg)
        for v, (c, x) in gf.ob_pair.items():
            assert gg.ob_pair[m.ob_map[v]] == (c, t.ob_map[x])
        for n, (f, alpha, x) in gf.mor_pair.items():
            assert gg.mor_pair[m.mor_map[n]] == (f, t.mor_map[alpha], t.ob_map[x])

    def test_functoriality_on_composite(self):
        gamma, t = self._constant_gamma()
        b2 = gamma.cod.at_ob["a"]
        collapse = validate_functor(
            b2, b2, {"a": "a", "b": "a"},
            {id_name("a"): id_name("a"), id_name("b"): id_name("a"), "f": id_name("a")},
            name="crush",
        )
        delta = validate_diagram_mor(
            gamma.cod, gamma.cod, {"a": collapse, "b": collapse}, name="delta"
        )
        from grothkit.fincat import compose_diagram_mors

        lhs = groth_map(compose_diagram_mors(delta, gamma))
        rhs = compose_functors(groth_map(delta), groth_map(gamma))
        assert functors_table_equal(lhs, rhs)


class TestFactorize:
    def test_identity_factorizes_trivially(self):
        gt = groth(corpus.semidirect_diagram())
        m = gt.total.identity[gt.total.objects[0]]
        cart, vert = factorize(gt, m)
        assert gt.total.is_identity(cart) and gt.total.is_identity(vert)

    def test_cartesian_morphism_keeps_itself(self):
        d = build.constant_diagram(build.walking_arrow(), build.walking_arrow())
        gt = groth(d)
        m = gt.lifts[(gt.obj_of[("a", "a")], "f")]
        cart, vert = factorize(gt, m)
        assert cart == m and gt.total.is_identity(vert)

    def test_every_morphism_recomposes(self):
        gt = groth(corpus.semidirect_diagram())
        for m in gt.total.mors:
            cart, vert = factorize(gt, m)
            assert gt.total.comp[(vert, cart)] == m
            f, alpha, _ = gt.mor_pair[vert]
            assert gt.diagram.base.is_identity(f)  # vertical part lies over an identity
            assert cart == gt.lifts[(gt.total.src[m], gt.mor_pair[m][0])]


class TestIncCocone:
    def test_validates_on_corpus(self):
        for d in corpus.corpus_diagrams()[:6]:
            inc_cocone(d)  # validation happens inside

    def test_interchange_identity_on_a2(self):
        d = [x for x in corpus.corpus_diagrams() if x.name == "collapse_arrow"][0]
        gt = groth(d)
        inc = inc_cocone(d, gt)
        push = d.at_mor["f"]
        for x in d.at_ob["a"].objects:
            for alpha in d.at_ob["a"].mors:
                if d.at_ob["a"].src[alpha] != x:
                    continue
                x2 = d.at_ob["a"].tgt[alpha]
                lhs = gt.total.comp[(inc.cells["f"].components[x2], inc.legs["a"].mor_map[alpha])]
                rhs = gt.total.comp[
                    (inc.legs["b"].mor_map[push.mor_map[alpha]], inc.cells["f"].components[x])
                ]
                assert lhs == rhs

    def test_identity_cells_are_identities(self):
        d = corpus.semidirect_diagram()
        inc = inc_cocone(d)
        assert inc.cells[id_name("*")].is_identity_nat()


class TestCoconeFactorize:
    def test_factorizing_inc_gives_identity(self):
        for d in corpus.corpus_diagrams()[:5]:
            gt = groth(d)
            s = cocone_factorize(inc_cocone(d, gt), gt)
            assert s.is_identity_functor()

    def test_delta1_cocones_are_functors_out_of_base(self):
        base = build.walking_arrow()
        d = build.terminal_diagram(base)
        gt = groth(d)
        u = build.chain(3)
        # a cocone on delta-1 with vertex U is exactly a functor base -> U;
        # build it from the functor picking 0 -> 2
        pick = validate_functor(
            base, u, {"a": "0", "b": "2"},
            {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"},
        )
        term = d.at_ob["a"]
        legs = {
            c: validate_functor(
                term, u, {"*": pick.ob_map[c]}, {id_name("*"): u.identity[pick.ob_map[c]]}
            )
            for c in base.objects
        }
        from grothkit.fincat import validate_nat_trans

        cells = {}
        for f in base.mors:
            cells[f] = validate_nat_trans(
                legs[base.src[f]],
                compose_functors(legs[base.tgt[f]], d.at_mor[f]),
                {"*": pick.mor_map[f]},
            )
        sigma = validate_lax_cocone(d, u, legs, cells)
        s = cocone_factorize(sigma, gt)
        # under the canonical iso total ~ base, s is the functor we started from
        for v, (c, _) in gt.ob_pair.items():
            assert s.ob_map[v] == pick.ob_map[c]
        for m, (f, _, _) in gt.mor_pair.items():
            assert s.mor_map[m] == pick.mor_map[f]

    def test_unique_functor_through_inc(self):
        # double counting: functors out of the total correspond exactly to
        # cocones, so for each functor exactly one functor reproduces its cocone
        base = build.walking_arrow()
        d = build.terminal_diagram(base)
        gt = groth(d)
        u = build.walking_iso()
        inc = inc_cocone(d, gt)
        functors = all_functor_tables(gt.total, u)
        for ob_map, mor_map in functors:
            s = validate_functor(gt.total, u, ob_map, mor_map)
            legs = {c: compose_functors(s, inc.legs[c]) for c in base.objects}
            matches = [
                (ob2, mor2)
                for ob2, mor2 in functors
                if all(mor2[inc.cells[f].components[x]] == mor_map[inc.cells[f].components[x]]
                       for f in base.mors for x in inc.cells[f].components)
                and all(ob2[inc.legs[c].ob_map[x]] == legs[c].ob_map[x]
                        for c in base.objects for x in d.at_ob[c].objects)
                and all(mor2[inc.legs[c].mor_map[m]] == legs[c].mor_map[m]
                        for c in base.objects for m in d.at_ob[c].mors)
            ]
            assert len(matches) == 1  # uniqueness: only s itself factors its cocone

    def test_mutated_factorization_breaks_restriction(self):
        # any functor other than the factorization fails to reproduce the cocone
        base = build.walking_arrow()
        bz2 = build.delooping(*build.cyclic_table(2, prefix="s"), name="BZ2")
        d = build.constant_diagram(base, bz2)
        gt = groth(d)
        inc = inc_cocone(d, gt)
        s = cocone_factorize(inc, gt)
        collapse_obj = gt.total.objects[0]
        t = validate_functor(
            gt.total,
            gt.total,
            {v: collapse_obj for v in gt.total.objects},
            {m: gt.total.identity[collapse_obj] for m in gt.total.mors},
        )
        assert not functors_table_equal(s, t)
        reproduced = {
            c: functors_table_equal(compose_functors(t, inc.legs[c]), inc.legs[c])
            for c in base.objects
        }
        assert not all(reproduced.values())


class TestBaseChange:
    def test_instances_verify(self):
        for h, d in corpus.base_change_instances():
            bc = base_change(h, d)
            assert bc.witness.flavor == "over-base-iso"

    def test_terminal_pick_recovers_fibre(self):
        d = [x for x in corpus.corpus_diagrams() if x.name == "poset_fibres"][0]
        pick = validate_functor(
            build.terminal(), d.base, {"*": "1"}, {id_name("*"): id_name("1")}
        )
        bc = base_change(pick, d)
        assert iso_search(bc.reindexed.total, d.at_ob["1"]).status == FOUND

    def test_composite_agrees_with_iterated_pullback(self):
        d = build.constant_diagram(build.chain(3), build.walking_arrow())
        h = validate_functor(
            build.walking_arrow(), build.chain(3), {"a": "0", "b": "2"},
            {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"},
        )
        h2 = validate_functor(
            build.terminal(), build.walking_arrow(), {"*": "a"}, {id_name("*"): id_name("a")}
        )
        gt = groth(d)
        once = pullback_opfib(h, gt.opfib())
        twice = pullback_opfib(h2, once.opfib)
        direct = pullback_opfib(compose_functors(h, h2), gt.opfib())
        res = over_base_iso_search(
            twice.opfib.total, twice.opfib.p, direct.opfib.total, direct.opfib.p
        )
        assert res.status == FOUND
        bc = base_change(compose_functors(h, h2), d)
        assert bc.witness.flavor == "over-base-iso"
