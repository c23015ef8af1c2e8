"""Opfibrations between Cat-valued diagrams and the indexed Grothendieck construction.

A morphism of diagrams φ: G ⇒ F over a base A, equipped with one cleavage per
component, is an opfibration in the diagram 2-category exactly when every
component is a split opfibration and every naturality square preserves the
chosen lifts.  `check_diagram_opfib` verifies that finite criterion.

`indexed_fibres` turns such a φ into a Cat-valued diagram on the total
category of F, sending (A, X) to the fibre of the A-component over X;
`indexed_groth` goes back.  The discrete restriction is checked per
instance; round trips and pseudonaturality in F are verified per instance by
building the canonical comparison from the provenance tables the
constructions keep and checking it is a strict isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from .build import opposite, opposite_functor
from .fincat import (
    CatDiagram,
    reindex,
    DiagramMor,
    FinCat,
    FunctorData,
    IsoWitness,
    NatTransData,
    diagram_iso_of_tables,
    first_disagreement,
    generated_diagram,
    identity_functor,
    identity_nat_trans,
    square_verdicts,
    validate_diagram,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from .groth import GrothTotal, groth, groth_map
from .opfib import (
    CleavedOpfib,
    PullbackOpfib,
    _pushforward_mor,
    _unpreserved_lift,
    cell_transport,
    check_cleavage_preserving,
    check_discrete_opfib,
    check_split_opfib,
    cleaved_opfib,
    fibre_categories,
    pullback_opfib,
)
from .report import Report, UsageError, ValidationError


@dataclass(eq=False)
class DiagramOpfib:
    """A morphism of diagrams with per-component cleavages; a candidate opfibration.

    Each cleavage is its table of chosen lifts, (e, f) -> m.  `flavor` is
    flipped by `dualize`; only "opfibration"-flavored values may enter the
    checkers, since the cleavage tables of a dual read backwards.
    """

    name: str
    over: CatDiagram
    total: CatDiagram
    components: Mapping[str, FunctorData]
    cleavages: Mapping[str, Mapping[tuple[str, str], str]]
    flavor: str = "opfibration"
    pullback_parts: Mapping[str, PullbackOpfib] | None = field(default=None, repr=False)
    groth_parts: Mapping[str, GrothTotal] | None = field(default=None, repr=False)

    @property
    def base(self) -> FinCat:
        return self.over.base

    def component_opfib(self, a: str) -> CleavedOpfib:
        return CleavedOpfib(self.components[a], self.cleavages[a])


def diagram_opfib(
    over: CatDiagram,
    total: CatDiagram,
    components: Mapping[str, FunctorData],
    cleavages: Mapping[str, Mapping[tuple[str, str], str]],
    name: str = "opfib",
    flavor: str = "opfibration",
) -> DiagramOpfib:
    """Structural validation only: boundaries and cleavage well-formedness.

    The opfibration laws themselves are the business of check_diagram_opfib.
    Fibration-flavored candidates (the reader's `flavor: fibration` blocks)
    carry co-lifts, which are checked as lifts of each component between the
    opposites of its categories.
    """
    rep = Report(f"validate opfibration candidate {name}")
    if not over.base.tables_equal(total.base):
        rep.fail("shared-base", "total and base diagrams live on different index categories")
        raise ValidationError(rep)
    clean: dict[str, Mapping[tuple[str, str], str]] = {}
    for a in over.base.objects:
        if a not in components:
            rep.fail("components-total", f"no component at {a}")
            continue
        t = components[a]
        if not t.dom.tables_equal(total.at_ob[a]) or not t.cod.tables_equal(over.at_ob[a]):
            rep.fail("component-boundary", f"component at {a} is not a functor G({a}) -> F({a})")
            continue
        if a not in cleavages:
            rep.fail("cleavages-total", f"no cleavage at {a}")
            continue
        try:
            clean[a] = cleaved_opfib(opposite_functor(t) if flavor == "fibration" else t, cleavages[a]).lifts
        except ValidationError as err:
            rep.fail(f"cleavage@{a}", err.report.summary())
    if not rep.passed:
        raise ValidationError(rep)
    return DiagramOpfib(name, over, total, dict(components), clean, flavor=flavor)


def identity_diagram_opfib(d: CatDiagram, name: str | None = None) -> DiagramOpfib:
    """The identity morphism on a diagram with its tautological cleavages."""
    comps = {a: identity_functor(d.at_ob[a]) for a in d.base.objects}
    cleavs = {a: {(e, f): f for e in d.at_ob[a].objects for f in d.at_ob[a].out(e)} for a in d.base.objects}
    return diagram_opfib(d, d, comps, cleavs, name=name or f"id[{d.name}]")


def _require_opfib_flavor(phi: DiagramOpfib) -> None:
    if phi.flavor != "opfibration":
        raise UsageError(
            f"{phi.name} is {phi.flavor}-flavored; dualize it before using opfibration machinery"
        )


def check_diagram_opfib(phi: DiagramOpfib, discrete: bool = False) -> Report:
    """The componentwise criterion for being a (split or discrete) opfibration of diagrams.

    Per component: a split (or discrete) opfibration check.  Per naturality
    square: strict commutation, plus cleavage preservation in the split case
    (it is automatic in the discrete case and therefore skipped).  Both square
    laws are decided at the base's generators (fincat.square_verdicts): the
    diagrams act strictly, so a composite's square pastes its parts'.
    """
    _require_opfib_flavor(phi)
    rep = Report(f"diagram opfibration check for {phi.name}")
    base = phi.base

    def natural(h: str) -> str | None:
        a, b = base.src[h], base.tgt[h]
        bad = first_disagreement((phi.components[b], phi.total.at_mor[h]), (phi.over.at_mor[h], phi.components[a]))
        return None if bad is None else f"on {bad[0]} {bad[1]}"

    def preserved(h: str) -> str | None:
        bad = _unpreserved_lift(phi.total.at_mor[h], phi.over.at_mor[h],
                                phi.cleavages[base.src[h]], phi.cleavages[base.tgt[h]])
        return None if bad is None else f"lifts-preserved: {bad}"

    for h, fail in square_verdicts(base, natural).items():
        rep.record(f"naturality@{h}", fail)
    if not rep.passed:
        return rep

    for a in base.objects:
        q = phi.component_opfib(a)
        sub = check_discrete_opfib(q.p) if discrete else check_split_opfib(q)
        rep.record(f"component@{a}", sub.summary())
    if not discrete:  # every naturality@h passed, so only the lifts are left
        for h, fail in square_verdicts(base, preserved).items():
            rep.record(f"square@{h}", fail)
    return rep


# ---------------------------------------------------------------------------
# morphisms of diagram opfibrations


@dataclass(eq=False)
class DiagramOpfibMor:
    """Componentwise functors between the totals of two opfibrations over the same F."""

    name: str
    dom: DiagramOpfib
    cod: DiagramOpfib
    components: Mapping[str, FunctorData]


def check_diagram_opfib_mor(xi: DiagramOpfibMor) -> Report:
    """Triangle over F, naturality, and cleavage preservation per component; raises
    UsageError unless both lie over the same F and each component runs G(a) -> H(a)."""
    phi, psi = xi.dom, xi.cod
    base = phi.base
    if not phi.over.tables_equal(psi.over):
        raise UsageError(f"{phi.name} and {psi.name} do not lie over the same diagram")
    for a in base.objects:
        t = xi.components[a]
        if not (t.dom.tables_equal(phi.total.at_ob[a]) and t.cod.tables_equal(psi.total.at_ob[a])):
            raise UsageError(f"component {t.name} at {a} does not run {phi.total.name}({a}) -> {psi.total.name}({a})")
    rep = Report(f"opfibration morphism check for {xi.name}")
    for a in base.objects:
        bad = first_disagreement((phi.components[a],), (psi.components[a], xi.components[a]))
        rep.record(f"triangle@{a}", None if bad is None else f"on {bad[0]} {bad[1]}")
    if not rep.passed:
        return rep

    def natural(h: str) -> str | None:
        a, b = base.src[h], base.tgt[h]
        bad = first_disagreement((xi.components[b], phi.total.at_mor[h]), (psi.total.at_mor[h], xi.components[a]))
        return None if bad is None else "square of totals does not commute"

    for h, fail in square_verdicts(base, natural).items():  # decided at the generators
        rep.record(f"naturality@{h}", fail)

    for a in base.objects:  # the triangle at a is its square over id[F(a)], so only the lifts are left
        bad = _unpreserved_lift(xi.components[a], identity_functor(phi.over.at_ob[a]),
                                phi.cleavages[a], psi.cleavages[a])
        rep.record(f"cleavage-preserving@{a}", None if bad is None else f"lifts-preserved: {bad}")
    return rep


# ---------------------------------------------------------------------------
# pullbacks and 2-cells


def pullback_diagram_opfib(alpha: DiagramMor, phi: DiagramOpfib, name: str | None = None) -> DiagramOpfib:
    """Pointwise pullback of an opfibration of diagrams along a diagram morphism; the actions
    pair F'(h) with G(h) at the generators h of the base and are composed elsewhere
    (fincat.generated_diagram)."""
    _require_opfib_flavor(phi)
    if not alpha.cod.tables_equal(phi.over):
        raise UsageError(f"{alpha.name} does not land in the base diagram of {phi.name}")
    base = phi.base
    label = name or f"pb({alpha.name},{phi.name})"
    parts = {
        a: pullback_opfib(alpha.components[a], phi.component_opfib(a))
        for a in base.objects
    }
    at_ob = {a: parts[a].opfib.total for a in base.objects}

    def act(h: str) -> FunctorData:
        a, b = base.src[h], base.tgt[h]
        fh, gh = alpha.dom.at_mor[h], phi.total.at_mor[h]
        ob_map = {v: parts[b].obj_of[(fh.ob_map[x], gh.ob_map[e])] for v, (x, e) in parts[a].ob_pair.items()}
        mor_map = {n: parts[b].mor_of[(fh.mor_map[u], gh.mor_map[m])] for n, (u, m) in parts[a].mor_pair.items()}
        return validate_functor(at_ob[a], at_ob[b], ob_map, mor_map, name=f"{label}({h})")

    # act(id) would be the identity by the strict identities of the validated F' and G
    total = generated_diagram(base, at_ob, act, label, f"total[{label}]")
    return DiagramOpfib(
        label,
        alpha.dom,
        total,
        {a: parts[a].opfib.p for a in base.objects},
        {a: parts[a].opfib.lifts for a in base.objects},
        pullback_parts=parts,
    )


@dataclass(eq=False)
class DiagramModification:
    """A 2-cell between parallel diagram morphisms: one natural transformation per index."""

    name: str
    dom: DiagramMor
    cod: DiagramMor
    components: Mapping[str, NatTransData]


def validate_diagram_modification(
    alpha: DiagramMor,
    beta: DiagramMor,
    components: Mapping[str, NatTransData],
    name: str = "modification",
) -> DiagramModification:
    rep = Report(f"validate modification {name}")
    if not (alpha.dom.tables_equal(beta.dom) and alpha.cod.tables_equal(beta.cod)):
        rep.fail("parallel", "boundary diagram morphisms are not parallel")
        raise ValidationError(rep)
    base = alpha.dom.base
    for a in base.objects:
        if a not in components:
            rep.fail("components-total", f"no component at {a}")
            continue
        delta = components[a]
        if not delta.dom.tables_equal(alpha.components[a]) or not delta.cod.tables_equal(beta.components[a]):
            rep.fail("component-boundary", f"component at {a} is not alpha_{a} => beta_{a}")
    if not rep.passed:
        raise ValidationError(rep)
    for h in base.mors:
        a, b = base.src[h], base.tgt[h]
        fh = alpha.cod.at_mor[h]
        f_dash_h = alpha.dom.at_mor[h]
        for x in alpha.dom.at_ob[a].objects:
            if fh.mor_map[components[a].components[x]] != components[b].components[f_dash_h.ob_map[x]]:
                rep.fail(
                    "modification-law",
                    f"at {h}, {x}: whiskered components disagree",
                )
    if not rep.passed:
        raise ValidationError(rep)
    return DiagramModification(name, alpha, beta, dict(components))


def identity_modification(alpha: DiagramMor) -> DiagramModification:
    comps = {a: identity_nat_trans(alpha.components[a]) for a in alpha.dom.base.objects}
    return validate_diagram_modification(alpha, alpha, comps, name=f"id[{alpha.name}]")


def vertical_compose_modifications(
    d2: DiagramModification, d1: DiagramModification, name: str | None = None
) -> DiagramModification:
    comps = {}
    for a in d1.dom.dom.base.objects:
        target = d1.dom.cod.at_ob[a]
        comps[a] = validate_nat_trans(
            d1.components[a].dom,
            d2.components[a].cod,
            {
                x: target.comp[(d2.components[a].components[x], d1.components[a].components[x])]
                for x in d1.dom.dom.at_ob[a].objects
            },
            name=f"({d2.name}∘{d1.name})@{a}",
        )
    return validate_diagram_modification(d1.dom, d2.cod, comps, name=name or f"{d2.name}∘{d1.name}")


def two_cell_action(
    delta: DiagramModification,
    phi: DiagramOpfib,
    pb_dom: DiagramOpfib | None = None,
    pb_cod: DiagramOpfib | None = None,
    name: str | None = None,
) -> DiagramOpfibMor:
    """Lift a 2-cell between diagram morphisms to a comparison of pulled-back opfibrations.

    On objects of each pullback the component of delta is lifted through the
    cleavage of phi; on morphisms the image is the unique cartesian fill-in.
    """
    _require_opfib_flavor(phi)
    pba = pb_dom if pb_dom is not None else pullback_diagram_opfib(delta.dom, phi)
    pbb = pb_cod if pb_cod is not None else pullback_diagram_opfib(delta.cod, phi)
    comps = {
        a: cell_transport(
            delta.components[a],
            phi.component_opfib(a),
            pba.pullback_parts[a],
            pbb.pullback_parts[a],
            name=f"delta*@{a}",
        )
        for a in phi.base.objects
    }
    return DiagramOpfibMor(name or f"({delta.name})*", pba, pbb, comps)


# ---------------------------------------------------------------------------
# the indexed Grothendieck construction, both directions


def indexed_fibres(phi: DiagramOpfib, gt: GrothTotal | None = None, name: str | None = None) -> CatDiagram:
    """Collect the fibres of all components into a diagram on the total category of F.

    (A, X) goes to the fibre of the A-component over X, each component's
    fibres made in one pass (opfib.fibre_categories); a total morphism (h, α)
    acts by the h-component of the total diagram followed by the pushforward
    lifting α, at the generators of the total, and is composed elsewhere
    (fincat.generated_diagram).
    """
    rep = check_diagram_opfib(phi)
    if not rep.passed:
        out = Report(f"indexed fibres of {phi.name}")
        out.fail("input-opfibration", rep.summary())
        raise ValidationError(out)
    g = gt if gt is not None else groth(phi.over)
    label = name or f"fibres({phi.name})"

    names = {a: {x: f"{label}@{g.obj_of[(a, x)]}" for x in phi.over.at_ob[a].objects} for a in phi.base.objects}
    fibres = {a: fibre_categories(phi.components[a], names[a]) for a in phi.base.objects}
    at_ob = {v: fibres[a][x] for v, (a, x) in g.ob_pair.items()}

    def act(m: str) -> FunctorData:
        h, alpha, x = g.mor_pair[m]
        a, b = g.diagram.base.src[h], g.diagram.base.tgt[h]
        v0 = g.obj_of[(a, x)]
        v1 = g.obj_of[(b, phi.over.at_ob[b].tgt[alpha])]
        gh = phi.total.at_mor[h]
        qb = phi.component_opfib(b)
        ob_map = {
            e: qb.total.tgt[qb.lifts[(gh.ob_map[e], alpha)]]
            for e in at_ob[v0].objects
        }
        mor_map = {e_mor: _pushforward_mor(qb, alpha, gh.mor_map[e_mor]) for e_mor in at_ob[v0].mors}
        return validate_functor(at_ob[v0], at_ob[v1], ob_map, mor_map, name=f"{label}({m})")

    # act(id) would be the identity by G's strict identities and the split identity law check_diagram_opfib decided
    z = generated_diagram(g.total, at_ob, act, label, label)
    return replace(z, at_mor={m: z.at_mor[m] for m in g.mor_pair})  # listed, like at_ob, in provenance order


def indexed_groth(
    z: CatDiagram,
    f: CatDiagram,
    gt: GrothTotal | None = None,
    name: str | None = None,
) -> DiagramOpfib:
    """Collect a diagram on the total category of F into an opfibration over F.

    The component at A is the classical construction applied to the
    restriction of Z along the canonical functor F(A) -> total; the action of
    a base morphism h follows the pair formula (X, ξ) goes to
    (F(h)(X), Z(h, id)(ξ)) at the generators of the base, and is composed
    elsewhere (fincat.generated_diagram).
    """
    g = gt if gt is not None else groth(f)
    if not z.base.tables_equal(g.total):
        raise UsageError(f"the base of {z.name} is not the total category of {f.name}")
    label = name or f"groth({z.name})"
    base = f.base
    parts = {
        a: groth(
            validate_diagram(
                f.at_ob[a],
                {x: z.at_ob[g.obj_of[(a, x)]] for x in f.at_ob[a].objects},
                {al: z.at_mor[g.mor_of[(base.identity[a], al, f.at_ob[a].src[al])]] for al in f.at_ob[a].mors},
                name=f"{z.name}|{a}",
            )
        )
        for a in base.objects
    }
    at_ob = {a: parts[a].total for a in base.objects}

    def act(h: str) -> FunctorData:
        a, b = base.src[h], base.tgt[h]
        fh, fa = f.at_mor[h], f.at_ob[a]
        zh_at = {x: z.at_mor[g.mor_of[(h, f.at_ob[b].identity[fh.ob_map[x]], x)]] for x in fa.objects}
        ob_map = {v: parts[b].obj_of[(fh.ob_map[x], zh_at[x].ob_map[xi])] for v, (x, xi) in parts[a].ob_pair.items()}
        mor_map = {m: parts[b].mor_of[(fh.mor_map[al], zh_at[fa.tgt[al]].mor_map[big_xi], zh_at[fa.src[al]].ob_map[xi])]
                   for m, (al, big_xi, xi) in parts[a].mor_pair.items()}
        return validate_functor(at_ob[a], at_ob[b], ob_map, mor_map, name=f"{label}({h})")

    # act(id) would be the identity by the strict identities of the validated F and Z
    total = generated_diagram(base, at_ob, act, label, f"total[{label}]")
    return DiagramOpfib(
        label,
        f,
        total,
        {a: parts[a].projection for a in base.objects},
        {a: parts[a].lifts for a in base.objects},
        groth_parts=parts,
    )


def indexed_groth_map(
    zeta: DiagramMor,
    f: CatDiagram,
    phi_dom: DiagramOpfib | None = None,
    phi_cod: DiagramOpfib | None = None,
    gt: GrothTotal | None = None,
    name: str | None = None,
) -> DiagramOpfibMor:
    """Functorial action of indexed_groth on a morphism of diagrams on the total of F.

    The components are built between the per-index totals that `phi_dom` and
    `phi_cod` keep, so both must be indexed_groth results of zeta's boundaries.
    """
    for arg, phi in (("phi_dom", phi_dom), ("phi_cod", phi_cod)):
        if phi is not None and phi.groth_parts is None:
            raise UsageError(f"{arg} {phi.name} was not built by indexed_groth")
    g = gt if gt is not None else groth(f)
    phi1 = phi_dom if phi_dom is not None else indexed_groth(zeta.dom, f, g)
    phi2 = phi_cod if phi_cod is not None else indexed_groth(zeta.cod, f, g)
    comps: dict[str, FunctorData] = {}
    for a in f.base.objects:
        g1, g2 = phi1.groth_parts[a], phi2.groth_parts[a]
        restricted = validate_diagram_mor(
            g1.diagram,
            g2.diagram,
            {x: zeta.components[g.obj_of[(a, x)]] for x in f.at_ob[a].objects},
            name=f"{zeta.name}|{a}",
        )
        comps[a] = groth_map(restricted, g1, g2, name=f"groth({zeta.name})@{a}")
    return DiagramOpfibMor(name or f"groth({zeta.name})", phi1, phi2, comps)


def indexed_fibres_map(
    xi: DiagramOpfibMor,
    gt: GrothTotal | None = None,
    name: str | None = None,
) -> DiagramMor:
    """Functorial action of indexed_fibres: restrict each component to the fibres."""
    phi, psi = xi.dom, xi.cod
    g = gt if gt is not None else groth(phi.over)
    z1 = indexed_fibres(phi, g)
    z2 = indexed_fibres(psi, g)
    comps: dict[str, FunctorData] = {}
    for v, (a, x) in g.ob_pair.items():
        t = xi.components[a]
        comps[v] = validate_functor(
            z1.at_ob[v],
            z2.at_ob[v],
            {e: t.ob_map[e] for e in z1.at_ob[v].objects},
            {m: t.mor_map[m] for m in z1.at_ob[v].mors},
            name=f"fibres({xi.name})@{v}",
        )
    return validate_diagram_mor(z1, z2, comps, name=name or f"fibres({xi.name})")


# ---------------------------------------------------------------------------
# round trips


def _record_comparison(rep: Report, name: str, verify: Callable[[], IsoWitness]) -> None:
    """Record whether a canonical comparison verifies as an isomorphism, with its witness."""
    try:
        witness = verify()
    except ValidationError as err:
        rep.fail(name, f"canonical comparison refused: {err.report.summary()}")
        return
    rep.ok(name)
    rep.witnesses.append(witness.describe())


def _opfib_comparison_tables(phi2: DiagramOpfib, phi: DiagramOpfib) -> dict[str, tuple[dict, dict]]:
    """The comparison indexed_groth(indexed_fibres(phi)) -> phi at each index a:
    (x, e) goes to e and (α, β, e) to β∘lift_a(e, α)."""
    tables = {}
    for a, part in phi2.groth_parts.items():
        g_a, lifts = phi.total.at_ob[a], phi.cleavages[a]
        ob_map = {w: e for w, (_, e) in part.ob_pair.items()}
        mor_map = {
            n: g_a.comp[(beta, lifts[(e, al)])] for n, (al, beta, e) in part.mor_pair.items()
        }
        tables[a] = ob_map, mor_map
    return tables


def _second_coordinates(
    z: CatDiagram, index: GrothTotal, parts: Mapping[str, GrothTotal | PullbackOpfib]
) -> dict[str, tuple[dict, dict]]:
    """At each v = (a, x) of the total of `index`, send the objects and morphisms
    of z(v) to the second coordinates of their provenance pairs in parts[a]."""
    return {
        v: (
            {w: parts[a].ob_pair[w][1] for w in z.at_ob[v].objects},
            {n: parts[a].mor_pair[n][1] for n in z.at_ob[v].mors},
        )
        for v, (a, _) in index.ob_pair.items()
    }


def _verify_opfib_comparison(phi2: DiagramOpfib, phi: DiagramOpfib) -> IsoWitness:
    """A diagram iso of totals whose components lie over F (the square of
    check_cleavage_preserving) and carry chosen lifts to chosen lifts."""
    witness = diagram_iso_of_tables(phi2.total, phi.total, _opfib_comparison_tables(phi2, phi))
    for a in phi.base.objects:
        sub = check_cleavage_preserving(
            witness.forward.components[a],
            identity_functor(phi.over.at_ob[a]),
            phi2.component_opfib(a),
            phi.component_opfib(a),
        )
        if not sub.passed:
            raise ValidationError(sub)
    return witness


def indexed_roundtrip_opfib(phi: DiagramOpfib) -> Report:
    """Verify indexed_groth(indexed_fibres(phi)) is isomorphic to phi over F,
    by the canonical comparison."""
    rep = Report(f"indexed round trip (opfibration side) for {phi.name}")
    gt = groth(phi.over)
    z = indexed_fibres(phi, gt)
    phi2 = indexed_groth(z, phi.over, gt)
    rep.record("reconstructed-passes-criterion", check_diagram_opfib(phi2).summary())
    _record_comparison(rep, "roundtrip-isomorphism", lambda: _verify_opfib_comparison(phi2, phi))
    return rep


def indexed_roundtrip_diagram(z: CatDiagram, f: CatDiagram) -> Report:
    """Verify indexed_fibres(indexed_groth(Z)) is naturally isomorphic to Z,
    by the canonical comparison."""
    rep = Report(f"indexed round trip (diagram side) for {z.name}")
    gt = groth(f)
    phi = indexed_groth(z, f, gt)
    rep.record("image-passes-criterion", check_diagram_opfib(phi).summary())
    z2 = indexed_fibres(phi, gt)
    _record_comparison(
        rep,
        "roundtrip-isomorphism",
        lambda: diagram_iso_of_tables(z2, z, _second_coordinates(z2, gt, phi.groth_parts)),
    )
    return rep


# ---------------------------------------------------------------------------
# discrete restriction


def discrete_check_opfib(phi: DiagramOpfib) -> Report:
    """Is phi discrete, and does the fibre diagram agree (Set-valued iff discrete)?"""
    rep = Report(f"discrete restriction check for {phi.name}")
    sub = check_diagram_opfib(phi, discrete=True)
    discrete = sub.passed
    rep.ok(f"components-{'discrete' if discrete else 'not-discrete'}")
    z = indexed_fibres(phi)
    set_valued = z.is_set_valued()
    rep.record(
        "set-valued-iff-discrete",
        None
        if set_valued == discrete
        else f"fibre diagram set-valued={set_valued} but discrete={discrete}",
    )
    if not discrete:
        bad = sub.first_failure()
        rep.witnesses.append(f"non-discrete witness: {bad.counterexample}")
    return rep


def discrete_check_diagram(z: CatDiagram, f: CatDiagram) -> Report:
    """Is Z Set-valued, and is its opfibration discrete exactly then?"""
    rep = Report(f"discrete restriction check for {z.name}")
    set_valued = z.is_set_valued()
    rep.ok(f"diagram-{'set-valued' if set_valued else 'not-set-valued'}")
    phi = indexed_groth(z, f)
    sub = check_diagram_opfib(phi, discrete=True)
    discrete = sub.passed
    rep.record(
        "discrete-iff-set-valued",
        None
        if discrete == set_valued
        else f"image discrete={discrete} but set-valued={set_valued}",
    )
    if not set_valued:
        witness = next(
            (v for v in z.at_ob if not z.at_ob[v].is_discrete()),
            None,
        )
        rep.witnesses.append(f"non-discrete fibre at {witness}")
    return rep


# ---------------------------------------------------------------------------
# pseudonaturality in F


def pseudonat_check(alpha: DiagramMor, phi: DiagramOpfib) -> Report:
    """Compare the two paths around the pseudonaturality square of the equivalence.

    Taking fibres after pulling back along alpha must agree, up to strict
    natural isomorphism, with reindexing the fibre diagram along the functor
    that alpha induces between the total categories.  The canonical
    comparison sends a pullback object (x', e) at (a, x') to e.
    """
    _require_opfib_flavor(phi)
    rep = Report(f"pseudonaturality check for ({alpha.name},{phi.name})")
    g_dash = groth(alpha.dom)
    g = groth(alpha.cod)
    pulled = pullback_diagram_opfib(alpha, phi)
    path1 = indexed_fibres(pulled, g_dash, name=f"fibres∘pullback({phi.name})")
    int_alpha = groth_map(alpha, g_dash, g)
    path2 = reindex(
        indexed_fibres(phi, g), int_alpha, name=f"reindexed-fibres({phi.name})"
    )
    _record_comparison(
        rep,
        "pseudonaturality-square",
        lambda: diagram_iso_of_tables(path1, path2, _second_coordinates(path1, g_dash, pulled.pullback_parts)),
    )
    return rep


# ---------------------------------------------------------------------------
# dualization


def dualize_diagram(d: CatDiagram, name: str | None = None) -> CatDiagram:
    """Pointwise opposite: same base, each fibre and each action dualized."""
    at_ob = {a: opposite(d.at_ob[a]) for a in d.base.objects}
    at_mor = {h: opposite_functor(d.at_mor[h]) for h in d.base.mors}
    return validate_diagram(d.base, at_ob, at_mor, name=name or f"op({d.name})")


def dualize_opfib(phi: DiagramOpfib, name: str | None = None) -> DiagramOpfib:
    """Dualize everything in sight and flip the flavor.

    The cleavage tables are carried verbatim; in the dual they read as chosen
    lifts of a fibration, which is why the result is not fed back into the
    opfibration checkers until dualized again.
    """
    over = dualize_diagram(phi.over)
    total = dualize_diagram(phi.total)
    comps = {a: opposite_functor(phi.components[a]) for a in phi.base.objects}
    cleavs = {a: dict(phi.cleavages[a]) for a in phi.base.objects}
    flavor = "fibration" if phi.flavor == "opfibration" else "opfibration"
    return DiagramOpfib(name or f"op({phi.name})", over, total, comps, cleavs, flavor=flavor)
