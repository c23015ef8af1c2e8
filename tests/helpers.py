"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force, without touching
the code paths under test.
"""

from __future__ import annotations

import itertools
from collections import Counter

from grothkit.fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    compose_functors,
    id_name,
    identity_functor,
    make_category,
    validate_category,
    validate_functor,
)
from grothkit.opfib import _pushforward_mor, check_discrete_opfib, check_split_opfib
from grothkit.report import Report, ValidationError


def group_axiom_failures(elements, table, unit) -> list[str]:
    """Brute-force group axioms on a raw Cayley table."""
    out = []
    for a in elements:
        for b in elements:
            if (a, b) not in table or table[(a, b)] not in elements:
                out.append(f"closure at ({a},{b})")
    if out:
        return out
    for a in elements:
        if table[(unit, a)] != a or table[(a, unit)] != a:
            out.append(f"unit at {a}")
    for a, b, c in itertools.product(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            out.append(f"associativity at ({a},{b},{c})")
    for a in elements:
        if not any(table[(a, b)] == unit and table[(b, a)] == unit for b in elements):
            out.append(f"inverse of {a}")
    return out


def associativity_witnesses(cat: FinCat) -> list[tuple[str, str, str]]:
    """Exhaustive scan for failing associativity triples on validated-shape tables."""
    bad = []
    for f in cat.mors:
        for g in cat.mors:
            if cat.src[g] != cat.tgt[f]:
                continue
            for h in cat.mors:
                if cat.src[h] != cat.tgt[g]:
                    continue
                if cat.comp[(h, cat.comp[(g, f)])] != cat.comp[(cat.comp[(h, g)], f)]:
                    bad.append((h, g, f))
    return bad


def reference_category_violations(objects, arrows, identity, comp) -> list[tuple[str, str]]:
    """(law, message) pairs that validate_category must report, by a scan over all pairs.

    This is the all-pairs formulation of the category laws: every (f, g) in
    mors x mors and every candidate h, stopping at the same stages as the
    validator.  An empty list means the tables form a category.
    """
    out: list[tuple[str, str]] = []
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        out.append(("object-names-unique", "duplicate object identifier"))
    mors = tuple(a[0] for a in arrows)
    if len(set(mors)) != len(mors):
        out.append(("morphism-names-unique", "duplicate morphism identifier"))
    src = {m: s for m, s, _ in arrows}
    tgt = {m: t for m, _, t in arrows}
    for m, s, t in arrows:
        if s not in obj_set or t not in obj_set:
            out.append(("dangling-identifier", f"morphism {m}: {src[m]} -> {tgt[m]} uses undeclared object"))
    for x in objects:
        if x not in identity:
            out.append(("identity-total", f"no identity declared for object {x}"))
        elif identity[x] not in src:
            out.append(("dangling-identifier", f"identity of {x} is undeclared morphism {identity[x]}"))
    if out:
        return out

    for x in objects:
        i = identity[x]
        if src[i] != x or tgt[i] != x:
            out.append(("identity-endo", f"identity {i} of {x} has boundary {src[i]} -> {tgt[i]}"))
    for (g, f), h in comp.items():
        if g not in src or f not in src or h not in src:
            out.append(("dangling-identifier", f"compose entry ({g},{f}) = {h} uses undeclared morphism"))
    if out:
        return out

    for f in mors:
        for g in mors:
            if src[g] == tgt[f]:
                if (g, f) not in comp:
                    out.append(("composition-total", f"missing composite {g}∘{f}"))
                else:
                    h = comp[(g, f)]
                    if src[h] != src[f] or tgt[h] != tgt[g]:
                        out.append(("composition-boundary", f"{g}∘{f} = {h} has boundary {src[h]} -> {tgt[h]}, "
                                                            f"expected {src[f]} -> {tgt[g]}"))
            elif (g, f) in comp:
                out.append(("composition-domain", f"entry for non-composable pair ({g},{f})"))
    if out:
        return out

    for f in mors:
        i, j = identity[tgt[f]], identity[src[f]]
        if comp[(i, f)] != f:
            out.append(("identity-law", f"{i}∘{f} = {comp[(i, f)]}, expected {f}"))
        if comp[(f, j)] != f:
            out.append(("identity-law", f"{f}∘{j} = {comp[(f, j)]}, expected {f}"))
    for f in mors:
        for g in mors:
            for h in mors:
                if src[g] != tgt[f] or src[h] != tgt[g]:
                    continue
                left, right = comp[(comp[(h, g)], f)], comp[(h, comp[(g, f)])]
                if left != right:
                    out.append(("associativity", f"({h}∘{g})∘{f} = {left} but {h}∘({g}∘{f}) = {right}"))
    return out


def reference_derived_tables(objects, arrows, comp):
    """hom_table, out_table, wide_sources and sorted factorizations, by scans over the raw tables."""
    hom: dict[tuple[str, str], list[str]] = {}
    for m, s, t in arrows:
        hom.setdefault((s, t), []).append(m)
    out = {x: tuple(m for m, s, _ in arrows if s == x) for x in objects}
    wide = frozenset(x for (x, _), ms in hom.items() if len(ms) > 1)
    fact = {m: sorted(k for k, h in comp.items() if h == m) for m, _, _ in arrows}
    return {k: tuple(v) for k, v in hom.items()}, out, wide, fact


def reference_cartesian_failure(p: FunctorData, lift_mor: str, f: str) -> str | None:
    """The universal property pair by pair: for every commuting (e, w), one scan of
    hom(tgt lift, tgt e) for the v over w with v∘lift = e, which must be unique."""
    total, base = p.dom, p.cod
    for e in total.out(total.src[lift_mor]):
        for w in base.hom(base.tgt[f], p.ob_map[total.tgt[e]]):
            if base.comp[(w, f)] != p.mor_map[e]:
                continue
            fills = [
                v
                for v in total.hom(total.tgt[lift_mor], total.tgt[e])
                if p.mor_map[v] == w and total.comp[(v, lift_mor)] == e
            ]
            if len(fills) != 1:
                return f"lift {lift_mor} of {f}: {len(fills)} fill-ins for (e={e}, w={w}), expected exactly one"
    return None


def reference_fibration_lifts(t: FunctorData, lifts) -> str | None:
    """Shape check for a fibration-flavored cleavage, written in the dual orientation:
    lifts land ON the object, over morphisms INTO its image.  None when it holds."""
    total, base = t.dom, t.cod
    total_objects, total_mors, base_mors = set(total.objects), set(total.mors), set(base.mors)
    for e in total.objects:
        for f in base.mors:
            if base.tgt[f] != t.ob_map[e]:
                continue
            if (e, f) not in lifts:
                return f"no lift of {f} at {e}"
            m = lifts[(e, f)]
            if m not in total_mors:
                return f"lift of {f} at {e} is undeclared morphism {m}"
            if total.tgt[m] != e:
                return f"lift of {f} at {e} ends at {total.tgt[m]}"
            if t.mor_map[m] != f:
                return f"lift of {f} at {e} lies over {t.mor_map[m]}"
    for (e, f) in lifts:
        if e not in total_objects or f not in base_mors or base.tgt[f] != t.ob_map[e]:
            return f"entry ({e},{f}) does not describe a morphism into the image of {e}"
    return None


def reference_first_disagreement(left, right) -> tuple[str, str] | None:
    """first_disagreement of two paths of functors, by building each composite with
    compose_functors and comparing the two entry by entry, objects first."""
    if not (left or right):
        return None
    dom = (left or right)[-1].dom
    composites = []
    for path in (left, right):
        composite = identity_functor(dom)
        for g in reversed(path):
            composite = compose_functors(g, composite)
        composites.append(composite)
    one, other = composites
    for x in dom.objects:
        if one.ob_map[x] != other.ob_map[x]:
            return "object", x
    for m in dom.mors:
        if one.mor_map[m] != other.mor_map[m]:
            return "morphism", m
    return None


def reference_strict_composition(base: FinCat, at_mor) -> list[tuple[str, str]]:
    """The strict-composition lines of a diagram, by building every composite Z(g)∘Z(f)
    and comparing it with Z(g∘f) by reference_first_disagreement."""
    return [
        ("strict-composition", f"functor at {base.comp[(g, f)]} differs from composite over ({g},{f})")
        for g, f in brute_composable_pairs(base)
        if reference_first_disagreement((at_mor[g], at_mor[f]), (at_mor[base.comp[(g, f)]],)) is not None
    ]


def reference_diagram_violations(base: FinCat, at_mor) -> list[tuple[str, str]]:
    """(law, message) pairs that validate_diagram must report once every functor has
    the right boundary: the strict-identity lines, then reference_strict_composition."""
    out = [("strict-identity", f"functor at identity of {x} is not the identity functor")
           for x in base.objects if reference_first_disagreement((at_mor[base.identity[x]],), ()) is not None]
    return out + reference_strict_composition(base, at_mor)


def reference_cocone_violations(diagram: CatDiagram, vertex: FinCat, cells) -> list[tuple[str, str]]:
    """(law, message) pairs that validate_lax_cocone must report once legs and cells have
    the right boundaries: the unit law, then the composition law over every composable pair."""
    base = diagram.base
    out = [("unit-law", f"cell at identity of {c} is not the identity")
           for c in base.objects
           if any(not vertex.is_identity(m) for m in cells[base.identity[c]].components.values())]
    for g, f in brute_composable_pairs(base):
        gf = base.comp[(g, f)]
        for x in diagram.at_ob[base.src[f]].objects:
            lhs = cells[gf].components[x]
            rhs = vertex.comp[(cells[g].components[diagram.at_mor[f].ob_map[x]], cells[f].components[x])]
            if lhs != rhs:
                out.append(("composition-law", f"cell at {gf} on {x} is {lhs}, pasting of ({g},{f}) gives {rhs}"))
    return out


def reference_split_verdicts(p: FunctorData, lifts) -> tuple[str | None, str | None, str | None]:
    """The first counterexample, or None, of each verdict of check_split_opfib, in the order
    it records them (lifts cartesian, identity law, composition law), by full scans."""
    total, base = p.dom, p.cod
    cart = next((f"at ({e},{f}): {fail}" for (e, f), m in sorted(lifts.items())
                 for fail in [reference_cartesian_failure(p, m, f)] if fail is not None), None)
    ident = next((f"lift of identity at {e} is {m}, not {total.identity[e]}" for e in total.objects
                  for m in [lifts[(e, base.identity[p.ob_map[e]])]] if m != total.identity[e]), None)

    def composition() -> str | None:
        for e in total.objects:
            for f in base.mors:
                for g in base.mors:
                    if base.src[f] == p.ob_map[e] and base.src[g] == base.tgt[f]:
                        mf = lifts[(e, f)]
                        composed, direct = total.comp[(lifts[(total.tgt[mf], g)], mf)], lifts[(e, base.comp[(g, f)])]
                        if composed != direct:
                            return f"lift of {g}∘{f} at {e} is {direct}, but composing the lifts gives {composed}"
        return None

    return cart, ident, composition()


def reference_naturality_violations(base: FinCat, square) -> list[tuple[str, str]]:
    """The naturality lines of a family with square(h) its failure at h, or None, over
    every base morphism in listing order, identities and composites included."""
    return [("naturality", fail) for fail in map(square, base.mors) if fail is not None]


def reference_lift_failure(h: FunctorData, k: FunctorData, lifts1, lifts2) -> str | None:
    """The first chosen lift of lifts1, in sorted order, that (h over k) does not carry to
    the chosen lift of lifts2, in the words of check_cleavage_preserving."""
    for (e, f), m in sorted(lifts1.items()):
        expected = lifts2[(h.ob_map[e], k.mor_map[f])]
        if h.mor_map[m] != expected:
            return f"H(lift({e},{f})) = {h.mor_map[m]} but lift({h.ob_map[e]},{k.mor_map[f]}) = {expected}"
    return None


def reference_diagram_opfib_report(phi, discrete: bool = False) -> str:
    """The report of check_diagram_opfib, with naturality@h and square@h decided at every
    base morphism h, identities and composites included, by reference_first_disagreement."""
    base, rep = phi.base, Report(f"diagram opfibration check for {phi.name}")
    for h in base.mors:
        a, b = base.src[h], base.tgt[h]
        bad = reference_first_disagreement((phi.components[b], phi.total.at_mor[h]),
                                           (phi.over.at_mor[h], phi.components[a]))
        rep.record(f"naturality@{h}", None if bad is None else f"on {bad[0]} {bad[1]}")
    if rep.passed:
        for a in base.objects:
            q = phi.component_opfib(a)
            rep.record(f"component@{a}", (check_discrete_opfib(q.p) if discrete else check_split_opfib(q)).summary())
        for h in () if discrete else base.mors:
            bad = reference_lift_failure(phi.total.at_mor[h], phi.over.at_mor[h],
                                         phi.cleavages[base.src[h]], phi.cleavages[base.tgt[h]])
            rep.record(f"square@{h}", None if bad is None else f"lifts-preserved: {bad}")
    return rep.describe()


def reference_diagram_opfib_mor_report(xi) -> str:
    """The report of check_diagram_opfib_mor, with naturality@h decided at every base
    morphism h by reference_first_disagreement."""
    phi, psi = xi.dom, xi.cod
    base, rep = phi.base, Report(f"opfibration morphism check for {xi.name}")
    for a in base.objects:
        bad = reference_first_disagreement((phi.components[a],), (psi.components[a], xi.components[a]))
        rep.record(f"triangle@{a}", None if bad is None else f"on {bad[0]} {bad[1]}")
    if rep.passed:
        for h in base.mors:
            a, b = base.src[h], base.tgt[h]
            bad = reference_first_disagreement((xi.components[b], phi.total.at_mor[h]),
                                               (psi.total.at_mor[h], xi.components[a]))
            rep.record(f"naturality@{h}", None if bad is None else "square of totals does not commute")
        for a in base.objects:
            bad = reference_lift_failure(xi.components[a], identity_functor(phi.over.at_ob[a]),
                                         phi.cleavages[a], psi.cleavages[a])
            rep.record(f"cleavage-preserving@{a}", None if bad is None else f"lifts-preserved: {bad}")
    return rep.describe()


# ---------------------------------------------------------------------------
# the actions of the constructed diagrams, each solved and validated on its own
# (fibres, indexed_fibres, indexed_groth and pullback_diagram_opfib build them
# on a generating set of the base and compose the rest)


def reference_fibres_actions(q, z: CatDiagram) -> dict[str, FunctorData]:
    """push(f) for every base morphism f, between the fibres z = fibres(q) holds."""
    p, base, at_ob = q.p, q.base, z.at_ob
    at_mor = {}
    for f in base.mors:
        x, y = base.src[f], base.tgt[f]
        ob_map = {e: p.dom.tgt[q.lifts[(e, f)]] for e in at_ob[x].objects}
        mor_map = {
            m: _pushforward_mor(q, f, m) if not at_ob[x].is_identity(m) else at_ob[y].identity[ob_map[at_ob[x].src[m]]]
            for m in at_ob[x].mors
        }
        at_mor[f] = validate_functor(at_ob[x], at_ob[y], ob_map, mor_map, name=f"push({f})")
    return at_mor


def reference_indexed_fibres_actions(phi, g, z: CatDiagram) -> dict[str, FunctorData]:
    """The action of every morphism of the total g of F, in provenance order, between
    the fibres z = indexed_fibres(phi, g) holds."""
    at_ob, at_mor = z.at_ob, {}
    for m, (h, alpha, x) in g.mor_pair.items():
        a, b = g.diagram.base.src[h], g.diagram.base.tgt[h]
        v0, v1 = g.obj_of[(a, x)], g.obj_of[(b, phi.over.at_ob[b].tgt[alpha])]
        gh, qb = phi.total.at_mor[h], phi.component_opfib(b)
        ob_map = {e: qb.total.tgt[qb.lifts[(gh.ob_map[e], alpha)]] for e in at_ob[v0].objects}
        mor_map = {e_mor: _pushforward_mor(qb, alpha, gh.mor_map[e_mor]) for e_mor in at_ob[v0].mors}
        at_mor[m] = validate_functor(at_ob[v0], at_ob[v1], ob_map, mor_map, name=f"{z.name}({m})")
    return at_mor


def reference_indexed_groth_actions(z: CatDiagram, f: CatDiagram, g, phi) -> dict[str, FunctorData]:
    """The action of every base morphism h on the totals phi = indexed_groth(z, f, g) keeps,
    by the pair formula (X, ξ) -> (F(h)(X), Z(h, id)(ξ))."""
    base, parts, label = f.base, phi.groth_parts, phi.name
    at_mor = {}
    for h in base.mors:
        a, b = base.src[h], base.tgt[h]
        fh = f.at_mor[h]
        zh_at = {x: z.at_mor[g.mor_of[(h, f.at_ob[b].identity[fh.ob_map[x]], x)]] for x in f.at_ob[a].objects}
        ob_map = {v: parts[b].obj_of[(fh.ob_map[x], zh_at[x].ob_map[xi])] for v, (x, xi) in parts[a].ob_pair.items()}
        mor_map = {}
        for m, (al, big_xi, xi) in parts[a].mor_pair.items():
            x, x1 = f.at_ob[a].src[al], f.at_ob[a].tgt[al]
            mor_map[m] = parts[b].mor_of[(fh.mor_map[al], zh_at[x1].mor_map[big_xi], zh_at[x].ob_map[xi])]
        at_mor[h] = validate_functor(parts[a].total, parts[b].total, ob_map, mor_map, name=f"{label}({h})")
    return at_mor


def reference_pullback_actions(alpha, phi, pulled) -> dict[str, FunctorData]:
    """The action of every base morphism h on the pullbacks pulled = pullback_diagram_opfib(alpha,
    phi) keeps: a pair (x, e) goes to (F'(h)(x), G(h)(e))."""
    base, parts, label = phi.base, pulled.pullback_parts, pulled.name
    at_mor = {}
    for h in base.mors:
        a, b = base.src[h], base.tgt[h]
        fh, gh = alpha.dom.at_mor[h], phi.total.at_mor[h]
        ob_map = {v: parts[b].obj_of[(fh.ob_map[x], gh.ob_map[e])] for v, (x, e) in parts[a].ob_pair.items()}
        mor_map = {n: parts[b].mor_of[(fh.mor_map[u], gh.mor_map[m])] for n, (u, m) in parts[a].mor_pair.items()}
        at_mor[h] = validate_functor(parts[a].opfib.total, parts[b].opfib.total, ob_map, mor_map,
                                     name=f"{label}({h})")
    return at_mor


def composite_closure(cat: FinCat, gens) -> set[str]:
    """Every morphism that is an identity or a composite of members of gens, in any
    bracketing, by closing the set under composition until it stops growing."""
    reached = set(cat.identity.values()) | set(gens)
    while True:
        more = {cat.comp[(g, f)] for f in reached for g in reached if cat.src[g] == cat.tgt[f]} - reached
        if not more:
            return reached
        reached |= more


def reference_functor_violations(dom: FinCat, cod: FinCat, ob_map, mor_map) -> list[tuple[str, str]]:
    """(law, message) pairs that validate_functor must report, by a scan over all pairs.

    Every (f, g) in mors x mors with tgt f = src g is checked for
    composition, whatever hom-set the two sides lie in, stopping at the same
    stages as the validator.  An empty list means the maps form a functor.
    """
    out: list[tuple[str, str]] = []
    for x in dom.objects:
        if x not in ob_map:
            out.append(("object-map-total", f"no image for object {x}"))
        elif ob_map[x] not in cod.objects:
            out.append(("dangling-identifier", f"object image {ob_map[x]} not in codomain"))
    for m in dom.mors:
        if m not in mor_map:
            out.append(("morphism-map-total", f"no image for morphism {m}"))
        elif mor_map[m] not in cod.mors:
            out.append(("dangling-identifier", f"morphism image {mor_map[m]} not in codomain"))
    if out:
        return out

    for m in dom.mors:
        n = mor_map[m]
        if cod.src[n] != ob_map[dom.src[m]] or cod.tgt[n] != ob_map[dom.tgt[m]]:
            out.append(("boundary-preserved",
                        f"image of {m}: {dom.src[m]} -> {dom.tgt[m]} is {n}: {cod.src[n]} -> {cod.tgt[n]}"))
    for x in dom.objects:
        if mor_map[dom.identity[x]] != cod.identity[ob_map[x]]:
            out.append(("identities-preserved", f"image of id at {x} is {mor_map[dom.identity[x]]}"))
    if out:
        return out

    for f in dom.mors:
        for g in dom.mors:
            if dom.src[g] == dom.tgt[f]:
                lhs, rhs = mor_map[dom.comp[(g, f)]], cod.comp[(mor_map[g], mor_map[f])]
                if lhs != rhs:
                    out.append(("composition-preserved", f"image of {g}∘{f} is {lhs}, but images compose to {rhs}"))
    return out


def reference_poset(elements, relation, name=None) -> FinCat:
    """The poset category by closing the relation to a fixpoint over all pairs of pairs.

    Arrows and composites are listed in sorted order of the pairs, and a
    cycle is reported by its first pair x <= y, y <= x in sorted order.
    """
    le = {(x, x) for x in elements} | set(relation)
    changed = True
    while changed:
        changed = False
        for x, y in list(le):
            for y2, z in list(le):
                if y2 == y and (x, z) not in le:
                    le.add((x, z))
                    changed = True
    for x, y in sorted(le):
        if x != y and (y, x) in le:
            rep = Report("build poset")
            rep.fail("antisymmetry", f"{x} <= {y} and {y} <= {x}")
            raise ValidationError(rep)

    def mor(x, y):
        return id_name(x) if x == y else f"le({x},{y})"

    arrows = [(mor(x, y), x, y) for x, y in sorted(le) if x != y]
    comp = {}
    for x, y in sorted(le):
        for y2, z in sorted(le):
            if y2 == y and x != y and y != z:
                comp[(mor(y, z), mor(x, y))] = mor(x, z)
    return make_category(name or f"poset({len(elements)})", list(elements), arrows, comp)


def brute_composable_pairs(cat: FinCat) -> list[tuple[str, str]]:
    """Every (g, f) with tgt(f) = src(g), f-major over mors x mors."""
    return [(g, f) for f in cat.mors for g in cat.mors if cat.src[g] == cat.tgt[f]]


def semidirect_table(n: int, invert: bool = True):
    """Cayley table of Z/n x| Z/2, the action inverting when `invert`."""
    els = [(h, s) for h in range(n) for s in range(2)]
    names = {e: f"h{e[0]}s{e[1]}" for e in els}
    table = {}
    for h1, s1 in els:
        for h2, s2 in els:
            h2r = h2 if (s1 == 0 or not invert) else (-h2) % n
            prod = ((h1 + h2r) % n, (s1 + s2) % 2)
            table[(names[(h1, s1)], names[(h2, s2)])] = names[prod]
    return [names[e] for e in els], table, names[(0, 0)]


def quaternion_table():
    """Cayley table of the quaternion group Q8 on the names p1 pi pj pk m1 mi mj mk."""
    units = {("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
             ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}
    for u in "1ijk":
        units[("1", u)] = units[(u, "1")] = (1, u)
    els = [(s, u) for s in (1, -1) for u in "1ijk"]
    names = {e: ("p" if e[0] == 1 else "m") + e[1] for e in els}
    table = {}
    for s1, u1 in els:
        for s2, u2 in els:
            s, u = units[(u1, u2)]
            table[(names[(s1, u1)], names[(s2, u2)])] = names[(s1 * s2 * s, u)]
    return [names[e] for e in els], table, names[(1, "1")]


def center_size(cat: FinCat) -> int:
    """Number of endomorphisms of a one-object category commuting with everything."""
    (obj,) = cat.objects
    return sum(
        1
        for m in cat.mors
        if all(cat.comp[(m, n)] == cat.comp[(n, m)] for n in cat.mors)
    )


def all_functor_tables(c: FinCat, d: FinCat):
    """Every functor c -> d as (ob_map, mor_map) tables, by brute force."""
    results = []
    for images in itertools.product(d.objects, repeat=len(c.objects)):
        ob_map = dict(zip(c.objects, images))
        non_ids = [m for m in c.mors if not c.is_identity(m)]
        pools = []
        for m in non_ids:
            pools.append(list(d.hom(ob_map[c.src[m]], ob_map[c.tgt[m]])))
        for choice in itertools.product(*pools):
            mor_map = {c.identity[x]: d.identity[ob_map[x]] for x in c.objects}
            mor_map.update(dict(zip(non_ids, choice)))
            ok = True
            for g, f in c.composable_pairs():
                if mor_map[c.comp[(g, f)]] != d.comp[(mor_map[g], mor_map[f])]:
                    ok = False
                    break
            if ok:
                results.append((ob_map, mor_map))
    return results


def groth_object_count(d: CatDiagram) -> int:
    return sum(len(d.at_ob[c].objects) for c in d.base.objects)


def groth_morphism_count(d: CatDiagram) -> int:
    total = 0
    for f in d.base.mors:
        c, dd = d.base.src[f], d.base.tgt[f]
        push = d.at_mor[f]
        for x in d.at_ob[c].objects:
            for xp in d.at_ob[dd].objects:
                total += len(d.at_ob[dd].hom(push.ob_map[x], xp))
    return total


def cross_morphism_count(t: FunctorData) -> int:
    """Objects of the comma category of a functor over its codomain."""
    return sum(
        len(t.cod.hom(t.ob_map[x], y)) for x in t.dom.objects for y in t.cod.objects
    )


def functors_table_equal(a: FunctorData, b: FunctorData) -> bool:
    return dict(a.ob_map) == dict(b.ob_map) and dict(a.mor_map) == dict(b.mor_map)


def relabelled(c: FinCat, ob_order, mor_order, name: str = "relabelled"):
    """A copy of c under new names, listed in the given orders of c's entities.

    Object ob_order[i] becomes o<i> and morphism mor_order[i] becomes m<i>.
    Returns (copy, object renaming, morphism renaming).
    """
    ob = {x: f"o{i}" for i, x in enumerate(ob_order)}
    mor = {m: f"m{i}" for i, m in enumerate(mor_order)}
    arrows = [(mor[m], ob[c.src[m]], ob[c.tgt[m]]) for m in mor_order]
    identity = {ob[x]: mor[c.identity[x]] for x in ob_order}
    comp = {(mor[g], mor[f]): mor[h] for (g, f), h in c.comp.items()}
    return validate_category([ob[x] for x in ob_order], arrows, identity, comp, name=name), ob, mor


def brute_isos(c: FinCat, d: FinCat, ob_allowed=None, mor_allowed=None) -> set:
    """Every strict iso c -> d passing the filters, as frozen (ob_map, mor_map) tables.

    A strict iso is a functor bijective on objects and on morphisms, so this
    keeps the bijective tables of all_functor_tables; when the counts differ
    no bijection exists at all.
    """
    if len(c.objects) != len(d.objects) or len(c.mors) != len(d.mors):
        return set()
    return {
        freeze_tables(ob_map, mor_map)
        for ob_map, mor_map in all_functor_tables(c, d)
        if len(set(ob_map.values())) == len(c.objects)
        and len(set(mor_map.values())) == len(c.mors)
        and (ob_allowed is None or all(ob_allowed(x, u) for x, u in ob_map.items()))
        and (mor_allowed is None or all(mor_allowed(m, n) for m, n in mor_map.items()))
    }


def freeze_tables(ob_map, mor_map):
    return tuple(sorted(ob_map.items())), tuple(sorted(mor_map.items()))


def reference_stmts(body: list[tuple[int, str]]) -> list[tuple[str, int, int]]:
    """(text, line, col) of each `;`-separated statement of (line, text) pairs, by splitting and stripping."""
    out = []
    for line_no, text in body:
        col = 1
        for piece in text.split(";"):
            stripped = piece.strip()
            if stripped:
                out.append((stripped, line_no, col + piece.index(stripped[0])))
            col += len(piece) + 1
    return out


def reference_split_top(s: str, sep: str = ",") -> list[str]:
    """Split on separators not nested inside parentheses or brackets, one character at a time."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def involution_arrow() -> FinCat:
    """An arrow f: a -> b with an involution s of a and f∘s = f.

    hom(a, a) has two morphisms and every hom-set out of b at most one.
    """
    return make_category("involution_arrow", ["a", "b"], [("s", "a", "a"), ("f", "a", "b")],
                         {("s", "s"): id_name("a"), ("f", "s"): "f"})


def walked_cycle(c: FinCat, m: str) -> tuple[int, int]:
    """(index, period) of the powers of the endomorphism m, walked from m itself."""
    seen: dict[str, int] = {}
    p = m
    while p not in seen:
        seen[p] = len(seen)
        p = c.comp[(m, p)]
    return seen[p], len(seen) - seen[p]


def reference_refine(c: FinCat, d: FinCat, over=None):
    """The colour refinement of the iso search, over per-object dicts of links
    on the union of c and d.

    Returns (refuted_by, colours) as `isosearch._refine` does.  Each object x
    of c, and of d, keeps its links {y: (|hom(x,y)|, |hom(y,x)|)}; object
    classes start from |hom(x,x)| and, with `over=(p, q)`, the image of x
    under p, or q; they are refined by the links until they stop growing or
    every object has its own, and a discrete partition is then checked link
    by link through the one colour-preserving bijection.  A morphism's class
    is read off its ends and powers, and with `over` its image.
    """
    if len(c.objects) != len(d.objects):
        return "object count", None
    if len(c.mors) != len(d.mors):
        return "morphism count", None
    if sorted(map(len, c.hom_table.values())) != sorted(map(len, d.hom_table.values())):
        return "hom-set sizes", None

    sides = (c, d)
    links = []
    for cat in sides:
        near: dict[str, dict[str, tuple[int, int]]] = {x: {} for x in cat.objects}
        for (x, y), ms in cat.hom_table.items():
            back = len(cat.hom(y, x))
            near[x][y], near[y][x] = (len(ms), back), (back, len(ms))
        links.append(near)

    seeds = over or (None, None)
    obs = [{x: (len(cat.hom(x, x)), p and p.ob_map[x]) for x in cat.objects} for cat, p in zip(sides, seeds)]
    classes = len(set(obs[0].values()) | set(obs[1].values()))
    while classes < len(c.objects):
        palette: dict = {}
        obs = [
            {
                x: palette.setdefault(
                    (col[x], tuple(sorted((col[y], sizes) for y, sizes in near[x].items()))), len(palette)
                )
                for x in col
            }
            for col, near in zip(obs, links)
        ]
        if len(palette) == classes:
            break
        classes = len(palette)
    if Counter(obs[0].values()) != Counter(obs[1].values()):
        return "object classes", None
    if classes == len(c.objects):
        image = {col: u for u, col in obs[1].items()}  # d's object of each colour
        if any({image[obs[0][y]]: sizes for y, sizes in near.items()} != links[1][image[obs[0][x]]]
               for x, near in links[0].items()):
            return "object classes", None

    palette = {}
    mors = []
    for cat, col, p in zip(sides, obs, seeds):
        ids, src, tgt = set(cat.identity.values()), cat.src, cat.tgt
        cycles = {m: walked_cycle(cat, m) for m in cat.mors if src[m] == tgt[m]}
        mors.append({m: palette.setdefault((m in ids, col[src[m]], col[tgt[m]], len(cat.factorizations[m]),
                                            cycles.get(m), p and p.mor_map[m]), len(palette)) for m in cat.mors})
    if Counter(mors[0].values()) != Counter(mors[1].values()):
        return "morphism classes", None
    return None, ((obs[0], mors[0]), (obs[1], mors[1]))
