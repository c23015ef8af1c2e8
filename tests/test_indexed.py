import pytest

from grothkit import build, examples, indexed, isosearch
from grothkit.fincat import (
    compose_functors,
    diagram_iso_of_tables,
    first_disagreement,
    id_name,
    identity_diagram_mor,
    identity_functor,
    inverse_functor,
    reindex,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from grothkit.groth import groth, groth_map
from grothkit.indexed import (
    DiagramOpfibMor,
    check_diagram_opfib,
    check_diagram_opfib_mor,
    diagram_opfib,
    discrete_check_diagram,
    discrete_check_opfib,
    dualize_diagram,
    dualize_opfib,
    identity_diagram_opfib,
    identity_modification,
    indexed_fibres,
    indexed_fibres_map,
    indexed_groth,
    indexed_groth_map,
    indexed_roundtrip_diagram,
    indexed_roundtrip_opfib,
    pseudonat_check,
    pullback_diagram_opfib,
    two_cell_action,
    validate_diagram_modification,
    vertical_compose_modifications,
)
from grothkit.isosearch import FOUND, diagram_iso_search, iso_search, over_base_iso_search
from grothkit.opfib import cell_transport, check_cleavage_preserving, fibres, pullback_opfib
from grothkit.report import UsageError, ValidationError

from helpers import functors_table_equal, reference_fibration_lifts


def _colift_mutations(dual):
    """(a, co-lifts) for each component's own table and every one-entry change of it: drop an
    entry, retarget it to each other morphism of the total, add an entry for an unknown object,
    add an identity entry at an object whose image is another object."""
    for a in dual.base.objects:
        t, lifts = dual.components[a], dual.cleavages[a]
        total, base = t.dom, t.cod
        yield a, dict(lifts)
        for key, m in lifts.items():
            yield a, {k: v for k, v in lifts.items() if k != key}
            yield from ((a, {**lifts, key: other}) for other in total.mors if other != m)
        yield a, {**lifts, ("nosuch", base.mors[0]): total.mors[0]}
        for e in total.objects:
            yield from ((a, {**lifts, (e, base.identity[x]): total.identity[e]})
                        for x in base.objects if x != t.ob_map[e])


def phi_collapse():
    coll = build.arrow_diagram(examples.collapse_functor(), name="collapse_arrow")
    gtc = groth(coll)
    zc = build.constant_diagram(gtc.total, build.walking_arrow(), name="z_const")
    return indexed_groth(zc, coll, gtc, name="phi_collapse"), zc, coll, gtc


class TestCheckDiagramOpfib:
    def test_indexed_groth_output_passes(self):
        phi, *_ = phi_collapse()
        assert check_diagram_opfib(phi).passed

    def test_identity_passes(self):
        assert check_diagram_opfib(identity_diagram_opfib(examples.semidirect_diagram())).passed

    def test_mutated_cleavage_fails_naming_component(self):
        phi, _, coll, _ = phi_collapse()
        a = "a"
        lifts = dict(phi.cleavages[a])
        # swap the lift of some non-identity fibre morphism with a parallel non-lift
        total_a = phi.total.at_ob[a]
        key = next(
            (e, f)
            for (e, f) in lifts
            if not phi.over.at_ob[a].is_identity(f)
        )
        others = [
            m for m in total_a.mors
            if total_a.src[m] == key[0]
            and phi.components[a].mor_map[m] == key[1]
            and m != lifts[key]
        ]
        if not others:
            pytest.skip("no alternative lift available in this instance")
        lifts[key] = others[0]
        bad = diagram_opfib(
            phi.over, phi.total, dict(phi.components),
            {**{k: v for k, v in phi.cleavages.items()}, a: lifts},
            name="bad",
        )
        rep = check_diagram_opfib(bad)
        assert not rep.passed
        fail = rep.first_failure()
        assert f"@{a}" in fail.name or "@" in fail.name
        assert fail.counterexample


class TestCheckDiagramOpfibMor:
    def test_identity_mor_passes(self):
        phi, *_ = phi_collapse()
        xi = DiagramOpfibMor(
            "id", phi, phi, {a: identity_functor(phi.total.at_ob[a]) for a in phi.base.objects}
        )
        assert check_diagram_opfib_mor(xi).passed

    def test_indexed_groth_of_diagram_morphism_passes(self):
        phi, zc, coll, gtc = phi_collapse()
        z2 = build.constant_diagram(gtc.total, build.terminal(), name="z_term")
        phi2 = indexed_groth(z2, coll, gtc, name="phi_term")
        to_pt = validate_functor(
            build.walking_arrow(), build.terminal(), {"a": "*", "b": "*"},
            {id_name("a"): id_name("*"), id_name("b"): id_name("*"), "f": id_name("*")},
            name="pt",
        )
        zeta = validate_diagram_mor(
            zc, z2, {v: to_pt for v in gtc.total.objects}, name="zeta"
        )
        xi = indexed_groth_map(zeta, coll, phi, phi2, gtc)
        assert check_diagram_opfib_mor(xi).passed

    def test_non_preserving_component_fails(self):
        semi = examples.semidirect_diagram()
        phi = identity_diagram_opfib(semi)
        bz3 = semi.at_ob["*"]
        conj = examples.inversion_functor(bz3)
        xi = DiagramOpfibMor("twist", phi, phi, {"*": conj})
        rep = check_diagram_opfib_mor(xi)
        assert not rep.passed
        assert "triangle@*" in {c.name for c in rep.checks if not c.passed} or \
            any("cleavage-preserving@*" == c.name for c in rep.checks if not c.passed)


class TestPullbackDiagramOpfib:
    def test_pullback_along_identity_is_relabeling(self):
        phi, _, coll, _ = phi_collapse()
        pb = pullback_diagram_opfib(identity_diagram_mor(coll), phi)
        assert check_diagram_opfib(pb).passed
        # the second projections relabel: invertible, natural, over F and lift-preserving
        comps = {a: pb.pullback_parts[a].to_total for a in phi.base.objects}
        for a, t in comps.items():
            inverse_functor(t, f"inv@{a}")
            sub = check_cleavage_preserving(
                t, identity_functor(coll.at_ob[a]), pb.component_opfib(a), phi.component_opfib(a)
            )
            assert sub.passed, sub.describe()
        validate_diagram_mor(pb.total, phi.total, comps)

    def test_component_object_counts(self):
        phi, _, coll, _ = phi_collapse()
        d1 = build.terminal_diagram(coll.base, name="delta1")
        pt_a = validate_functor(build.terminal(), coll.at_ob["a"], {"*": "a"}, {id_name("*"): id_name("a")})
        pt_b = validate_functor(build.terminal(), coll.at_ob["b"], {"*": "a"}, {id_name("*"): id_name("a")})
        alpha = validate_diagram_mor(d1, coll, {"a": pt_a, "b": pt_b}, name="alpha")
        pb = pullback_diagram_opfib(alpha, phi)
        for a in coll.base.objects:
            expected = sum(
                1
                for x in d1.at_ob[a].objects
                for e in phi.total.at_ob[a].objects
                if alpha.components[a].ob_map[x] == phi.components[a].ob_map[e]
            )
            assert len(pb.total.at_ob[a].objects) == expected

    def test_iterated_vs_composite_pullback(self):
        phi, _, coll, _ = phi_collapse()
        d1 = build.terminal_diagram(coll.base, name="delta1")
        pt_a = validate_functor(build.terminal(), coll.at_ob["a"], {"*": "a"}, {id_name("*"): id_name("a")})
        pt_b = validate_functor(build.terminal(), coll.at_ob["b"], {"*": "a"}, {id_name("*"): id_name("a")})
        alpha = validate_diagram_mor(d1, coll, {"a": pt_a, "b": pt_b}, name="alpha")
        beta = identity_diagram_mor(d1)
        from grothkit.fincat import compose_diagram_mors

        once = pullback_diagram_opfib(alpha, phi)
        twice = pullback_diagram_opfib(beta, once)
        direct = pullback_diagram_opfib(compose_diagram_mors(alpha, beta), phi)
        for a in coll.base.objects:
            res = over_base_iso_search(
                twice.total.at_ob[a], twice.components[a],
                direct.total.at_ob[a], direct.components[a],
            )
            assert res.status == FOUND


def _walking_points():
    """alpha, beta: pick(terminal) => pick(walking_arrow) at the two ends, with the
    connecting 2-cell."""
    wa = build.walking_arrow()
    f_dash = build.one_object_diagram(build.terminal(), name="pick_pt")
    f = build.one_object_diagram(wa, name="pick_arrow")
    at_a = validate_functor(build.terminal(), wa, {"*": "a"}, {id_name("*"): id_name("a")}, name="at_a")
    at_b = validate_functor(build.terminal(), wa, {"*": "b"}, {id_name("*"): id_name("b")}, name="at_b")
    alpha = validate_diagram_mor(f_dash, f, {"*": at_a}, name="alpha")
    beta = validate_diagram_mor(f_dash, f, {"*": at_b}, name="beta")
    cell = validate_nat_trans(at_a, at_b, {"*": "f"}, name="cell")
    delta = validate_diagram_modification(alpha, beta, {"*": cell}, name="delta")
    return alpha, beta, delta, f


class TestTwoCellAction:
    def test_identity_two_cell_gives_identity(self):
        phi, _, coll, _ = phi_collapse()
        delta = identity_modification(identity_diagram_mor(coll))
        xi = two_cell_action(delta, phi)
        assert all(xi.components[a].is_identity_functor() for a in phi.base.objects)
        assert check_diagram_opfib_mor(xi).passed

    def test_terminal_base_matches_classical_transport(self):
        alpha, beta, delta, f = _walking_points()
        gt = groth(f)
        z = build.constant_diagram(gt.total, build.discrete(2, prefix="w"), name="z")
        phi = indexed_groth(z, f, gt, name="phi")
        pba = pullback_diagram_opfib(alpha, phi)
        pbb = pullback_diagram_opfib(beta, phi)
        xi = two_cell_action(delta, phi, pba, pbb)
        assert check_diagram_opfib_mor(xi).passed
        # the lift of the 2-cell moves each point over a to the point over b
        assert list(xi.components["*"].ob_map.items()) == [
            ("(*,(a,w0))", "(*,(b,w0))"),
            ("(*,(a,w1))", "(*,(b,w1))"),
        ]
        assert list(xi.components["*"].mor_map.items()) == [
            ("id_(*,(a,w0))", "id_(*,(b,w0))"),
            ("id_(*,(a,w1))", "id_(*,(b,w1))"),
        ]
        # the classical transport from the opfib module
        classical = cell_transport(
            delta.components["*"],
            phi.component_opfib("*"),
            pba.pullback_parts["*"],
            pbb.pullback_parts["*"],
        )
        assert functors_table_equal(xi.components["*"], classical)

    def test_vertical_composition_is_exact(self):
        ch = build.chain(3)
        f = build.one_object_diagram(ch, name="pick_chain")
        f_dash = build.one_object_diagram(build.terminal(), name="pick_pt")
        picks = {}
        for i in "012":
            picks[i] = validate_functor(
                build.terminal(), ch, {"*": i}, {id_name("*"): id_name(i)}, name=f"at{i}"
            )
        alpha = validate_diagram_mor(f_dash, f, {"*": picks["0"]}, name="alpha")
        beta = validate_diagram_mor(f_dash, f, {"*": picks["1"]}, name="beta")
        gamma = validate_diagram_mor(f_dash, f, {"*": picks["2"]}, name="gamma")
        d1 = validate_diagram_modification(
            alpha, beta, {"*": validate_nat_trans(picks["0"], picks["1"], {"*": "le(0,1)"})}
        )
        d2 = validate_diagram_modification(
            beta, gamma, {"*": validate_nat_trans(picks["1"], picks["2"], {"*": "le(1,2)"})}
        )
        gt = groth(f)
        z = build.constant_diagram(gt.total, build.discrete(2, prefix="w"), name="z")
        phi = indexed_groth(z, f, gt, name="phi")
        pba = pullback_diagram_opfib(alpha, phi)
        pbb = pullback_diagram_opfib(beta, phi)
        pbc = pullback_diagram_opfib(gamma, phi)
        xi1 = two_cell_action(d1, phi, pba, pbb)
        xi2 = two_cell_action(d2, phi, pbb, pbc)
        both = two_cell_action(vertical_compose_modifications(d2, d1), phi, pba, pbc)
        composite = compose_functors(xi2.components["*"], xi1.components["*"])
        assert functors_table_equal(both.components["*"], composite)


class TestIndexedFibres:
    def test_identity_gives_constant_terminal(self):
        semi = examples.semidirect_diagram()
        z = indexed_fibres(identity_diagram_opfib(semi))
        assert all(len(c.objects) == 1 and len(c.mors) == 1 for c in z.at_ob.values())

    def test_terminal_base_matches_classical_fibres(self):
        alpha, beta, delta, f = _walking_points()
        gt = groth(f)
        z0 = build.constant_diagram(gt.total, build.discrete(2, prefix="w"), name="z")
        phi = indexed_groth(z0, f, gt, name="phi")
        z = indexed_fibres(phi, gt)
        classical = fibres(phi.component_opfib("*"))
        for v, (a, x) in gt.ob_pair.items():
            assert z.at_ob[v].tables_equal(classical.at_ob[x])
        for m, (h, al, x) in gt.mor_pair.items():
            assert dict(z.at_mor[m].ob_map) == dict(classical.at_mor[al].ob_map)
            assert dict(z.at_mor[m].mor_map) == dict(classical.at_mor[al].mor_map)

    def test_cross_morphisms_act_as_pushforward_after_transition(self):
        phi, zc, coll, gtc = phi_collapse()
        z = indexed_fibres(phi, gtc)
        classical_b = fibres(phi.component_opfib("b"))
        gh = phi.total.at_mor["f"]
        for m, (h, alpha, x) in gtc.mor_pair.items():
            if h != "f":
                continue
            v0 = gtc.obj_of[("a", x)]
            direct = z.at_mor[m]
            for e in z.at_ob[v0].objects:
                moved = gh.ob_map[e]
                assert direct.ob_map[e] == classical_b.at_mor[alpha].ob_map[moved]
            for e_mor in z.at_ob[v0].mors:
                moved = gh.mor_map[e_mor]
                assert direct.mor_map[e_mor] == classical_b.at_mor[alpha].mor_map[moved]

    def test_non_opfibration_rejected(self):
        phi, _, coll, _ = phi_collapse()
        lifts = dict(phi.cleavages["a"])
        total_a = phi.total.at_ob["a"]
        key, alt = next(
            ((e, f), m)
            for (e, f) in lifts
            for m in total_a.mors
            if not phi.over.at_ob["a"].is_identity(f)
            and total_a.src[m] == e
            and phi.components["a"].mor_map[m] == f
            and m != lifts[(e, f)]
        )
        lifts[key] = alt
        bad = diagram_opfib(
            phi.over, phi.total, dict(phi.components),
            {**dict(phi.cleavages), "a": lifts}, name="bad",
        )
        with pytest.raises(ValidationError):
            indexed_fibres(bad)


class TestIndexedGroth:
    def test_constant_terminal_z_gives_identity_shape(self):
        semi = examples.semidirect_diagram()
        gt = groth(semi)
        z = build.constant_diagram(gt.total, build.terminal(), name="z1")
        phi = indexed_groth(z, semi, gt)
        assert check_diagram_opfib(phi).passed
        for a in semi.base.objects:
            assert len(phi.total.at_ob[a].objects) == len(semi.at_ob[a].objects)
            res = over_base_iso_search(
                phi.total.at_ob[a], phi.components[a],
                semi.at_ob[a], identity_functor(semi.at_ob[a]),
            )
            assert res.status == FOUND

    def test_delta1_recovers_z(self):
        wa = build.walking_arrow()
        d1 = build.terminal_diagram(wa, name="delta1")
        gt = groth(d1)
        z, _ = [p for p in examples.corpus_z_instances()][1]
        phi = indexed_groth(z, d1, gt)
        # over delta-1 the component at each base object is the fibre of Z there
        for a in wa.objects:
            v = gt.obj_of[(a, "*")]
            assert len(phi.total.at_ob[a].objects) == len(z.at_ob[v].objects)
            assert iso_search(phi.total.at_ob[a], z.at_ob[v]).status == FOUND

    def test_component_object_counts(self):
        phi, zc, coll, gtc = phi_collapse()
        for a in coll.base.objects:
            expected = sum(
                len(zc.at_ob[gtc.obj_of[(a, x)]].objects) for x in coll.at_ob[a].objects
            )
            assert len(phi.total.at_ob[a].objects) == expected

    def test_base_mismatch_rejected(self):
        semi = examples.semidirect_diagram()
        z = build.constant_diagram(build.walking_arrow(), build.terminal())
        with pytest.raises(ValueError):
            indexed_groth(z, semi)


class TestRoundtrips:
    def test_opfib_side_corpus(self):
        for phi in examples.corpus_opfibs():
            rep = indexed_roundtrip_opfib(phi)
            assert rep.passed, f"{phi.name}: {rep.describe()}"

    def test_diagram_side_corpus(self):
        for z, f in examples.corpus_z_instances():
            rep = indexed_roundtrip_diagram(z, f)
            assert rep.passed, f"{z.name}: {rep.describe()}"

    def test_functoriality_of_fibres(self):
        phi, zc, coll, gtc = phi_collapse()
        xi = DiagramOpfibMor(
            "id", phi, phi, {a: identity_functor(phi.total.at_ob[a]) for a in phi.base.objects}
        )
        restricted = indexed_fibres_map(xi, gtc)
        assert restricted.is_identity_mor()


class TestDiscrete:
    def test_constant_terminal_is_set_valued_and_discrete(self):
        semi = examples.semidirect_diagram()
        gt = groth(semi)
        z = build.constant_diagram(gt.total, build.terminal(), name="z1")
        rep = discrete_check_diagram(z, semi)
        assert rep.passed
        assert "diagram-set-valued" in {c.name for c in rep.checks}

    def test_walking_arrow_fibre_is_not_discrete(self):
        znd, d1 = [p for p in examples.corpus_z_instances()][-1]
        rep = discrete_check_diagram(znd, d1)
        assert rep.passed  # the biconditional holds: not set-valued and not discrete
        assert "diagram-not-set-valued" in {c.name for c in rep.checks}
        phi = indexed_groth(znd, d1)
        sub = check_diagram_opfib(phi, discrete=True)
        assert not sub.passed  # two lifts exist somewhere

    def test_set_valued_morphisms_are_automatically_discrete(self):
        # over a Set-valued F, any diagram morphism from a Set-valued G is discrete
        d = [x for x in examples.corpus_diagrams() if x.name == "set_function"][0]
        g = build.constant_diagram(d.base, build.discrete(1, prefix="q"), name="G")
        pick_a = "s1"
        pick_b = d.at_mor["f"].ob_map[pick_a]  # naturality forces the second pick
        comps = {
            "a": validate_functor(
                g.at_ob["a"], d.at_ob["a"], {"q0": pick_a},
                {id_name("q0"): d.at_ob["a"].identity[pick_a]}, name="pick@a",
            ),
            "b": validate_functor(
                g.at_ob["b"], d.at_ob["b"], {"q0": pick_b},
                {id_name("q0"): d.at_ob["b"].identity[pick_b]}, name="pick@b",
            ),
        }
        cleavs = {}
        for a in d.base.objects:
            cleavs[a] = {
                (e, f): g.at_ob[a].identity[e]
                for e in g.at_ob[a].objects
                for f in d.at_ob[a].mors
                if d.at_ob[a].src[f] == comps[a].ob_map[e]
            }
        candidate = diagram_opfib(d, g, comps, cleavs, name="into_sets")
        assert check_diagram_opfib(candidate, discrete=True).passed

    def test_opfib_side_biconditional_on_corpus(self):
        for phi in examples.corpus_opfibs():
            rep = discrete_check_opfib(phi)
            assert rep.passed, f"{phi.name}: {rep.describe()}"


class TestPseudonat:
    def test_identity_alpha(self):
        phi, _, coll, _ = phi_collapse()
        rep = pseudonat_check(identity_diagram_mor(coll), phi)
        assert rep.passed

    def test_instances(self):
        for alpha, phi in examples.pseudonat_instances():
            rep = pseudonat_check(alpha, phi)
            assert rep.passed, f"({alpha.name},{phi.name}): {rep.describe()}"

    def test_terminal_base_reduces_to_classical_pullback(self):
        alpha, beta, delta, f = _walking_points()
        gt = groth(f)
        z = build.constant_diagram(gt.total, build.discrete(2, prefix="w"), name="z")
        phi = indexed_groth(z, f, gt, name="phi")
        assert pseudonat_check(alpha, phi).passed
        # classical route: pull the component opfibration back along the point
        q = phi.component_opfib("*")
        pb = pullback_opfib(alpha.components["*"], q)
        z_pulled = fibres(pb.opfib)
        z_reindexed = fibres(q)
        for x in alpha.dom.at_ob["*"].objects:
            assert iso_search(
                z_pulled.at_ob[x], z_reindexed.at_ob[alpha.components["*"].ob_map[x]]
            ).status == FOUND


class TestDualize:
    def test_involution_on_diagrams(self):
        for d in examples.corpus_diagrams()[:5]:
            back = dualize_diagram(dualize_diagram(d))
            assert back.tables_equal(d), d.name

    def test_involution_on_opfibs(self):
        phi, *_ = phi_collapse()
        dual = dualize_opfib(phi)
        assert dual.flavor == "fibration"
        back = dualize_opfib(dual)
        assert back.flavor == "opfibration"
        for a in phi.base.objects:
            assert back.total.at_ob[a].tables_equal(phi.total.at_ob[a])
            assert dict(back.cleavages[a]) == dict(phi.cleavages[a])

    def test_colifts_are_validated_as_lifts_of_the_opposite_functor(self):
        verdicts = []
        for phi in examples.corpus_opfibs():
            dual = dualize_opfib(phi)
            for a, lifts in _colift_mutations(dual):
                try:
                    diagram_opfib(dual.over, dual.total, dual.components, {**dual.cleavages, a: lifts},
                                  name=dual.name, flavor="fibration")
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == (reference_fibration_lifts(dual.components[a], lifts) is None), (phi.name, a)
                verdicts.append(accepted)
        assert (len(verdicts), verdicts.count(True)) == (495, 21)

    @pytest.mark.parametrize("edit, old, new", [
        ("drop", "no lift of id_b at (b,b)", "cleavage-total: no lift of id_b at (b,b)"),
        ("retarget", "lift of id_b at (b,b) ends at (a,a)", "lift-source: lift of id_b at (b,b) starts at (a,a)"),
        ("unknown", "entry (nosuch,f) does not describe a morphism into the image of nosuch",
         "dangling-identifier: lift entry (nosuch,f) names unknown data"),
    ])
    def test_fibration_cleavage_failures_read_as_lifts_of_the_opposite(self, edit, old, new):
        dual = dualize_opfib(phi_collapse()[0])
        lifts = dict(dual.cleavages["a"])
        if edit == "drop":
            del lifts[("(b,b)", "id_b")]
        elif edit == "retarget":
            lifts[("(b,b)", "id_b")] = "(f,f)@a"  # (b,b) -> (a,a) in the dual total
        else:
            lifts[("nosuch", "f")] = "(f,f)@a"
        assert reference_fibration_lifts(dual.components["a"], lifts) == old
        with pytest.raises(ValidationError) as err:
            diagram_opfib(dual.over, dual.total, dual.components, {**dual.cleavages, "a": lifts},
                          name=dual.name, flavor="fibration")
        assert err.value.report.summary() == f"cleavage@a: {new}"

    def test_fibration_flavor_rejected_by_checkers(self):
        phi, *_ = phi_collapse()
        dual = dualize_opfib(phi)
        with pytest.raises(ValueError):
            check_diagram_opfib(dual)

    def test_fibre_counts_preserved(self):
        d = [x for x in examples.corpus_diagrams() if x.name == "poset_fibres"][0]
        dual = dualize_diagram(d)
        for x in d.base.objects:
            assert len(dual.at_ob[x].objects) == len(d.at_ob[x].objects)
            assert len(dual.at_ob[x].mors) == len(d.at_ob[x].mors)

    def test_representable_slice_identity(self):
        sq = build.commuting_square_poset()
        for a in sq.objects:
            _, y = build.representable_diagram(sq, a)
            total = groth(y).total
            target = build.opposite(build.slice_category(sq, a))
            assert iso_search(total, target).status == FOUND, a


def _collapse_zetas():
    """zeta1: z0 => z1 and zeta2: z1 => z2, constant diagrams (discrete(2), walking
    arrow, terminal) on the total of the collapse arrow, with that arrow and its total."""
    coll = build.arrow_diagram(examples.collapse_functor(), name="collapse_arrow")
    gtc = groth(coll)
    z0 = build.constant_diagram(gtc.total, build.discrete(2, prefix="w"), name="z0")
    z1 = build.constant_diagram(gtc.total, build.walking_arrow(), name="z1")
    z2 = build.constant_diagram(gtc.total, build.terminal(), name="z2")
    incl = validate_functor(
        z0.at_ob[gtc.total.objects[0]], z1.at_ob[gtc.total.objects[0]],
        {"w0": "a", "w1": "b"},
        {id_name("w0"): id_name("a"), id_name("w1"): id_name("b")}, name="incl",
    )
    crush = validate_functor(
        z1.at_ob[gtc.total.objects[0]], z2.at_ob[gtc.total.objects[0]],
        {"a": "*", "b": "*"},
        {id_name("a"): id_name("*"), id_name("b"): id_name("*"), "f": id_name("*")},
        name="crush",
    )
    zeta1 = validate_diagram_mor(z0, z1, {v: incl for v in gtc.total.objects}, name="zeta1")
    zeta2 = validate_diagram_mor(z1, z2, {v: crush for v in gtc.total.objects}, name="zeta2")
    return coll, gtc, zeta1, zeta2


class TestEquivalenceFunctoriality:
    def _compose_opfib_mors(self, xi2, xi1):
        return DiagramOpfibMor(
            f"{xi2.name}∘{xi1.name}",
            xi1.dom,
            xi2.cod,
            {
                a: compose_functors(xi2.components[a], xi1.components[a])
                for a in xi1.dom.base.objects
            },
        )

    def test_indexed_maps_preserve_identities_and_composites(self):
        coll, gtc, zeta1, zeta2 = _collapse_zetas()
        z0, z1, z2 = zeta1.dom, zeta1.cod, zeta2.cod
        phi0 = indexed_groth(z0, coll, gtc, name="phi0")
        phi1 = indexed_groth(z1, coll, gtc, name="phi1")
        phi2 = indexed_groth(z2, coll, gtc, name="phi2")

        xi1 = indexed_groth_map(zeta1, coll, phi0, phi1, gtc)
        xi2 = indexed_groth_map(zeta2, coll, phi1, phi2, gtc)
        assert check_diagram_opfib_mor(xi1).passed
        assert check_diagram_opfib_mor(xi2).passed
        from grothkit.fincat import compose_diagram_mors

        both = indexed_groth_map(
            compose_diagram_mors(zeta2, zeta1), coll, phi0, phi2, gtc
        )
        for a in coll.base.objects:
            assert functors_table_equal(
                both.components[a],
                compose_functors(xi2.components[a], xi1.components[a]),
            )

        # identities map to identities
        ident = indexed_groth_map(identity_diagram_mor(z1), coll, phi1, phi1, gtc)
        assert all(ident.components[a].is_identity_functor() for a in coll.base.objects)

        # and back down: indexed_fibres preserves composites as well
        back1 = indexed_fibres_map(xi1, gtc)
        back2 = indexed_fibres_map(xi2, gtc)
        back_both = indexed_fibres_map(self._compose_opfib_mors(xi2, xi1), gtc)
        for v in gtc.total.objects:
            assert functors_table_equal(
                back_both.components[v],
                compose_functors(back2.components[v], back1.components[v]),
            )


    def test_indexed_groth_map_reuses_the_totals_of_its_opfibrations(self):
        coll, gtc, zeta1, _ = _collapse_zetas()
        phi0 = indexed_groth(zeta1.dom, coll, gtc, name="phi0")
        phi1 = indexed_groth(zeta1.cod, coll, gtc, name="phi1")
        xi = indexed_groth_map(zeta1, coll, phi0, phi1, gtc)
        for a in coll.base.objects:
            assert xi.components[a].dom is phi0.total.at_ob[a]
            assert xi.components[a].cod is phi1.total.at_ob[a]

    @pytest.mark.parametrize("arg", ["phi_dom", "phi_cod"])
    def test_indexed_groth_map_refuses_opfibrations_without_groth_parts(self, arg):
        coll, gtc, zeta1, _ = _collapse_zetas()
        z = zeta1.dom if arg == "phi_dom" else zeta1.cod
        pulled = pullback_diagram_opfib(identity_diagram_mor(coll), indexed_groth(z, coll, gtc))
        assert pulled.groth_parts is None
        with pytest.raises(UsageError, match=f"^{arg} "):
            indexed_groth_map(zeta1, coll, gt=gtc, **{arg: pulled})


# ---------------------------------------------------------------------------
# the canonical comparisons behind the round trips and pseudonaturality


def _probe(k):
    """F constant at discrete(2) on chain(3); Z constant at discrete(k) on its total.
    The fibres' automorphism groups grow as k!, which a search pays for."""
    f = build.constant_diagram(build.chain(3), build.discrete(2), name="F")
    gt = groth(f)
    z = build.constant_diagram(gt.total, build.discrete(k, prefix="w"), name=f"Z{k}")
    return z, f, gt


def _opfib_comparison(phi, gt):
    """phi2 = indexed_groth(indexed_fibres(phi)) and the verified comparison phi2 -> phi."""
    phi2 = indexed_groth(indexed_fibres(phi, gt), phi.over, gt)
    return phi2, indexed._verify_opfib_comparison(phi2, phi).forward


def _diagram_comparison(z, f, gt):
    """The verified comparison indexed_fibres(indexed_groth(z)) -> z."""
    phi = indexed_groth(z, f, gt)
    z2 = indexed_fibres(phi, gt)
    return diagram_iso_of_tables(z2, z, indexed._second_coordinates(z2, gt, phi.groth_parts)).forward


def _swap_two_objects(builder):
    """Wrap a comparison-table builder so that one component swaps the images of two objects."""

    def tampered(*args):
        tables = builder(*args)
        for ob_map, _ in tables.values():
            if len(ob_map) >= 2:
                x, y = list(ob_map)[:2]
                ob_map[x], ob_map[y] = ob_map[y], ob_map[x]
                return tables
        raise AssertionError("no component with two objects to swap")

    return tampered


class TestCanonicalComparisons:
    @pytest.mark.parametrize("side, k", [("opfib", 5), ("opfib", 7), ("diagram", 7)])
    def test_probe_family_passes_without_search(self, monkeypatch, side, k):
        def no_search(self):
            raise AssertionError("a round trip visited a search node")

        monkeypatch.setattr(isosearch.Budget, "tick", no_search)
        z, f, gt = _probe(k)
        if side == "opfib":
            rep = indexed_roundtrip_opfib(indexed_groth(z, f, gt, name=f"phi{k}"))
        else:
            rep = indexed_roundtrip_diagram(z, f)
        assert rep.passed, rep.describe()
        assert len(rep.witnesses) == 1

    @pytest.mark.parametrize("which", ["opfib", "diagram", "pseudonat"])
    def test_tampered_comparison_is_refused(self, monkeypatch, which):
        builder = "_opfib_comparison_tables" if which == "opfib" else "_second_coordinates"
        monkeypatch.setattr(indexed, builder, _swap_two_objects(getattr(indexed, builder)))
        if which == "opfib":
            rep = indexed_roundtrip_opfib(examples.corpus_opfibs()[2])
        elif which == "diagram":
            rep = indexed_roundtrip_diagram(*examples.corpus_z_instances()[1])
        else:
            rep = pseudonat_check(*examples.pseudonat_instances()[0])
        assert not rep.passed
        assert not rep.witnesses
        fail = rep.first_failure()
        assert fail.name in ("roundtrip-isomorphism", "pseudonaturality-square")
        assert fail.counterexample.startswith("canonical comparison refused: boundary-preserved: ")

    def _groth_map_images(self):
        """The diagram morphisms whose indexed_groth_map images the functoriality test
        checks, with the identity of z1."""
        coll, gtc, zeta1, zeta2 = _collapse_zetas()
        return [zeta1, zeta2, identity_diagram_mor(zeta1.cod)], coll, gtc

    def test_opfib_comparison_natural_along_morphisms(self):
        # xi ∘ eps_phi = eps_psi ∘ indexed_groth_map(indexed_fibres_map(xi)), strictly
        zetas, coll, gtc = self._groth_map_images()
        for zeta in zetas:
            xi = indexed_groth_map(zeta, coll, gt=gtc)
            phi2, eps_phi = _opfib_comparison(xi.dom, gtc)
            psi2, eps_psi = _opfib_comparison(xi.cod, gtc)
            back = indexed_groth_map(indexed_fibres_map(xi, gtc), coll, phi2, psi2, gtc)
            for a in coll.base.objects:
                left = (xi.components[a], eps_phi.components[a])
                right = (eps_psi.components[a], back.components[a])
                assert first_disagreement(left, right) is None, (zeta.name, a)

    def test_diagram_comparison_natural_along_morphisms(self):
        # zeta ∘ eta_Z = eta_Z' ∘ indexed_fibres_map(indexed_groth_map(zeta)), strictly
        zetas, coll, gtc = self._groth_map_images()
        for zeta in zetas:
            eta_dom = _diagram_comparison(zeta.dom, coll, gtc)
            eta_cod = _diagram_comparison(zeta.cod, coll, gtc)
            back = indexed_fibres_map(indexed_groth_map(zeta, coll, gt=gtc), gtc)
            for v in gtc.total.objects:
                left = (zeta.components[v], eta_dom.components[v])
                right = (eta_cod.components[v], back.components[v])
                assert first_disagreement(left, right) is None, (zeta.name, v)

    def test_verdicts_agree_with_search_on_corpus(self):
        for phi in examples.corpus_opfibs():
            gt = groth(phi.over)
            phi2 = indexed_groth(indexed_fibres(phi, gt), phi.over, gt)
            found = diagram_iso_search(phi2.total, phi.total).status == FOUND
            assert indexed_roundtrip_opfib(phi).passed == found, phi.name
        for z, f in examples.corpus_z_instances():
            gt = groth(f)
            z2 = indexed_fibres(indexed_groth(z, f, gt), gt)
            found = diagram_iso_search(z2, z).status == FOUND
            assert indexed_roundtrip_diagram(z, f).passed == found, z.name
        for alpha, phi in examples.pseudonat_instances():
            path1 = indexed_fibres(pullback_diagram_opfib(alpha, phi), groth(alpha.dom))
            path2 = reindex(indexed_fibres(phi), groth_map(alpha))
            found = diagram_iso_search(path1, path2).status == FOUND
            assert pseudonat_check(alpha, phi).passed == found, (alpha.name, phi.name)
