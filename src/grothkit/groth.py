"""The Grothendieck construction and its companions.

The total category of a Cat-valued diagram F has pairs (C, X) as objects and
pairs (f, α) as morphisms, with α rooted at the pushforward of the source
fibre object.  Composition is (g,β)∘(f,α) = (g∘f, β∘F(g)(α)); building the
total category re-validates every law, so the rule itself is under test.

Morphism identifiers carry the source fibre object — (f,α) alone does not
determine the source when F(f) identifies objects — and identities follow
the package-wide id_<object> convention.  Provenance tables translate both
ways between identifiers and pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .fincat import (
    CatDiagram,
    DiagramMor,
    FinCat,
    FunctorData,
    IsoWitness,
    NatTransData,
    category_iso_of_tables,
    compose_functors,
    first_disagreement,
    id_name,
    identity_functor,
    law_failures,
    make_category,
    name_owners,
    pair_id,
    reindex,
    validate_functor,
    validate_nat_trans,
)
from .opfib import CleavedOpfib, PullbackOpfib, check_cleavage_preserving, cleaved_opfib, pullback_opfib
from .report import Report, UsageError, ValidationError


@dataclass(eq=False)
class GrothTotal:
    """Total category, first-component projection, canonical cleavage, provenance."""

    diagram: CatDiagram
    total: FinCat
    projection: FunctorData
    lifts: Mapping[tuple[str, str], str]
    ob_pair: Mapping[str, tuple[str, str]]            # object -> (C, X)
    mor_pair: Mapping[str, tuple[str, str, str]]      # morphism -> (f, alpha, source fibre object)
    obj_of: Mapping[tuple[str, str], str]
    mor_of: Mapping[tuple[str, str, str], str]

    def opfib(self) -> CleavedOpfib:
        return cleaved_opfib(self.projection, self.lifts)

    def pretty_mor(self, m: str) -> str:
        f, a, _ = self.mor_pair[m]
        return f"({f},{a})"


def groth(d: CatDiagram, name: str | None = None) -> GrothTotal:
    """Grothendieck construction of a validated diagram."""
    base = d.base
    label = name or f"groth({d.name})"

    obj_of: dict[tuple[str, str], str] = {}
    for c in base.objects:
        for x in d.at_ob[c].objects:
            obj_of[(c, x)] = pair_id(c, x)
    ob_pair = name_owners(obj_of, f"object name collision in {label}")

    mor_of: dict[tuple[str, str, str], str] = {}
    # the non-identity total morphisms (f, alpha, X, name, target) in mor_of order, and
    # grouped by source (C, X) the same with the tables that compose them on the left
    non_ids: list[tuple[str, str, str, str, tuple[str, str]]] = []
    starting_at: dict[tuple[str, str], list[tuple[str, str, str, Mapping, Mapping]]] = {}
    arrows = []
    base_ids = set(base.identity.values())
    for f in base.mors:
        c, dd = base.src[f], base.tgt[f]
        push = d.at_mor[f]
        fib_d = d.at_ob[dd]
        ids = set(fib_d.identity.values()) if f in base_ids else ()
        for x in d.at_ob[c].objects:
            src_obj = obj_of[(c, x)]
            for alpha in fib_d.out(push.ob_map[x]):
                if alpha in ids:
                    mor_of[(f, alpha, x)] = id_name(src_obj)
                    continue
                lbl = mor_of[(f, alpha, x)] = f"({f},{alpha})@{x}"
                target = (dd, fib_d.tgt[alpha])
                arrows.append((lbl, src_obj, obj_of[target]))
                non_ids.append((f, alpha, x, lbl, target))
                starting_at.setdefault((c, x), []).append((f, alpha, lbl, push.mor_map, fib_d.comp))
    mor_pair = name_owners(mor_of, f"morphism name collision in {label}")

    # identity composites are synthesized by make_category, so only pairs of
    # non-identity morphisms whose boundaries meet get an entry
    comp: dict[tuple[str, str], str] = {}
    base_comp = base.comp
    for f, alpha, x, m1, target in non_ids:
        for g, beta, m2, push_g, fib_comp in starting_at.get(target, ()):
            comp[(m2, m1)] = mor_of[(base_comp[(g, f)], fib_comp[(beta, push_g[alpha])], x)]
    total = make_category(label, [obj_of[k] for k in obj_of], arrows, comp)

    projection = validate_functor(
        total,
        base,
        {v: c for v, (c, _) in ob_pair.items()},
        {m: f for m, (f, _, _) in mor_pair.items()},
        name=f"proj[{label}]",
    )
    lifts = {}
    for v, (c, x) in ob_pair.items():
        for f in base.out(c):
            pushed = d.at_mor[f].ob_map[x]
            lifts[(v, f)] = mor_of[(f, d.at_ob[base.tgt[f]].identity[pushed], x)]
    return GrothTotal(d, total, projection, lifts, ob_pair, mor_pair, obj_of, mor_of)


def groth_map(
    gamma: DiagramMor,
    g_dom: GrothTotal | None = None,
    g_cod: GrothTotal | None = None,
    name: str | None = None,
) -> FunctorData:
    """The functor between totals induced by a strict morphism of diagrams."""
    gd = g_dom if g_dom is not None else groth(gamma.dom)
    gc = g_cod if g_cod is not None else groth(gamma.cod)
    ob_map = {
        v: gc.obj_of[(c, gamma.components[c].ob_map[x])] for v, (c, x) in gd.ob_pair.items()
    }
    mor_map = {}
    for m, (f, alpha, x) in gd.mor_pair.items():
        c, dd = gd.diagram.base.src[f], gd.diagram.base.tgt[f]
        mor_map[m] = gc.mor_of[
            (f, gamma.components[dd].mor_map[alpha], gamma.components[c].ob_map[x])
        ]
    return validate_functor(gd.total, gc.total, ob_map, mor_map, name=name or f"groth({gamma.name})")


def factorize(g: GrothTotal, m: str) -> tuple[str, str]:
    """Split a total morphism into its cleavage lift followed by a vertical morphism."""
    f, alpha, x = g.mor_pair[m]
    base = g.diagram.base
    dd = base.tgt[f]
    fibre = g.diagram.at_ob[dd]
    pushed_x = g.diagram.at_mor[f].ob_map[x]
    cart = g.mor_of[(f, fibre.identity[pushed_x], x)]
    vert = g.mor_of[(base.identity[dd], alpha, pushed_x)]
    if g.total.comp[(vert, cart)] != m:
        raise ValueError(f"factorization of {m} does not recompose")
    return cart, vert


# ---------------------------------------------------------------------------
# lax cocones and the universal property of the total category


@dataclass(eq=False)
class LaxCocone:
    """A family of functors into a vertex with comparison cells for base morphisms."""

    name: str
    diagram: CatDiagram
    vertex: FinCat
    legs: Mapping[str, FunctorData]       # base object C -> F(C) -> vertex
    cells: Mapping[str, NatTransData]     # base morphism f: C -> D -> leg_C => leg_D ∘ F(f)


def validate_lax_cocone(
    diagram: CatDiagram,
    vertex: FinCat,
    legs: Mapping[str, FunctorData],
    cells: Mapping[str, NatTransData],
    name: str = "cocone",
) -> LaxCocone:
    rep = Report(f"validate lax cocone {name}")
    base = diagram.base
    for c in base.objects:
        if c not in legs:
            rep.fail("legs-total", f"no leg at {c}")
    for f in base.mors:
        if f not in cells:
            rep.fail("cells-total", f"no cell at {f}")
    if not rep.passed:
        raise ValidationError(rep)

    for c in base.objects:
        leg = legs[c]
        if not leg.dom.tables_equal(diagram.at_ob[c]) or not leg.cod.tables_equal(vertex):
            rep.fail("leg-boundary", f"leg at {c} is not a functor from the fibre to the vertex")
    if not rep.passed:
        raise ValidationError(rep)

    for f in base.mors:
        c, dd = base.src[f], base.tgt[f]
        cell = cells[f]
        expected_cod = compose_functors(legs[dd], diagram.at_mor[f])
        if not cell.dom.tables_equal(legs[c]) or not cell.cod.tables_equal(expected_cod):
            rep.fail("cell-boundary", f"cell at {f} is not leg[{c}] => leg[{dd}]∘F({f})")
    if not rep.passed:
        raise ValidationError(rep)

    for c in base.objects:
        if not cells[base.identity[c]].is_identity_nat():
            rep.fail("unit-law", f"cell at identity of {c} is not the identity")

    def composition(outer: Mapping[str, Sequence[str]]) -> Iterator[str]:
        for f in base.mors:
            push, at_f = diagram.at_mor[f], cells[f].components
            for g in outer[base.tgt[f]]:
                gf = base.comp[(g, f)]
                for x in diagram.at_ob[base.src[f]].objects:
                    lhs = cells[gf].components[x]
                    rhs = vertex.comp[(cells[g].components[push.ob_map[x]], at_f[x])]
                    if lhs != rhs:
                        yield f"cell at {gf} on {x} is {lhs}, pasting of ({g},{f}) gives {rhs}"

    for message in law_failures(base, composition, exact=rep.passed):
        rep.fail("composition-law", message)
    if not rep.passed:
        raise ValidationError(rep)
    return LaxCocone(name, diagram, vertex, dict(legs), dict(cells))


def inc_cocone(d: CatDiagram, g: GrothTotal | None = None) -> LaxCocone:
    """The universal cocone on a diagram, with the total category as vertex."""
    gt = g if g is not None else groth(d)
    base = d.base
    legs = {}
    for c in base.objects:
        fib = d.at_ob[c]
        legs[c] = validate_functor(
            fib,
            gt.total,
            {x: gt.obj_of[(c, x)] for x in fib.objects},
            {a: gt.mor_of[(base.identity[c], a, fib.src[a])] for a in fib.mors},
            name=f"inc[{c}]",
        )
    cells = {}
    for f in base.mors:
        c, dd = base.src[f], base.tgt[f]
        fib_d = d.at_ob[dd]
        comps = {
            x: gt.mor_of[(f, fib_d.identity[d.at_mor[f].ob_map[x]], x)]
            for x in d.at_ob[c].objects
        }
        cells[f] = validate_nat_trans(
            legs[c],
            compose_functors(legs[dd], d.at_mor[f]),
            comps,
            name=f"inc[{f}]",
        )
    return validate_lax_cocone(d, gt.total, legs, cells, name=f"inc({d.name})")


def cocone_factorize(sigma: LaxCocone, g: GrothTotal | None = None) -> FunctorData:
    """The unique functor out of the total category restricting to the cocone."""
    gt = g if g is not None else groth(sigma.diagram)
    base = sigma.diagram.base
    vertex = sigma.vertex
    ob_map = {v: sigma.legs[c].ob_map[x] for v, (c, x) in gt.ob_pair.items()}
    mor_map = {}
    for m, (f, alpha, x) in gt.mor_pair.items():
        dd = base.tgt[f]
        mor_map[m] = vertex.comp[(sigma.legs[dd].mor_map[alpha], sigma.cells[f].components[x])]
    s = validate_functor(gt.total, vertex, ob_map, mor_map, name=f"factor({sigma.name})")

    inc = inc_cocone(sigma.diagram, gt)
    for c in base.objects:
        if first_disagreement((s, inc.legs[c]), (sigma.legs[c],)) is not None:
            raise ValueError(f"factorization does not restrict to the leg at {c}")
    for f in base.mors:
        for x, m in inc.cells[f].components.items():
            if s.mor_map[m] != sigma.cells[f].components[x]:
                raise ValueError(f"factorization does not restrict to the cell at {f}")
    return s


# ---------------------------------------------------------------------------
# base change


@dataclass(eq=False)
class BaseChange:
    """The canonical comparison groth(F∘H) ≅ H*(groth F), verified both ways."""

    witness: IsoWitness
    reindexed: GrothTotal      # groth(F ∘ H)
    pulled: PullbackOpfib      # pullback of groth(F) along H


def base_change(h: FunctorData, d: CatDiagram) -> BaseChange:
    """Build and verify the canonical over-base iso between reindex-then-groth and groth-then-pullback."""
    if not h.cod.tables_equal(d.base):
        raise UsageError(f"{h.name} does not land in the base of {d.name}")
    gf = groth(d)
    gfh = groth(reindex(d, h))
    pb = pullback_opfib(h, gf.opfib())

    ob_map = {
        v: pb.obj_of[(b, gf.obj_of[(h.ob_map[b], x)])] for v, (b, x) in gfh.ob_pair.items()
    }
    mor_map = {}
    for m, (u, alpha, x) in gfh.mor_pair.items():
        mor_map[m] = pb.mor_of[(u, gf.mor_of[(h.mor_map[u], alpha, x)])]
    witness = category_iso_of_tables(
        gfh.total, pb.opfib.total, ob_map, mor_map, "over-base-iso", ("base_change", "base_change_inv")
    )

    # the square of check_cleavage_preserving is the over-base equation pb.p∘fwd = gfh.p
    rep = Report("base change verification")
    ident = identity_functor(h.dom)
    q = gfh.opfib()
    sub = check_cleavage_preserving(witness.forward, ident, q, pb.opfib)
    if not sub.passed:
        rep.fail("cleavage-preserving-forward", str(sub.first_failure().counterexample))
    sub = check_cleavage_preserving(witness.backward, ident, pb.opfib, q)
    if not sub.passed:
        rep.fail("cleavage-preserving-backward", str(sub.first_failure().counterexample))
    if not rep.passed:
        raise ValidationError(rep)
    return BaseChange(witness, gfh, pb)
