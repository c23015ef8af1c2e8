"""Split and discrete opfibration machinery: lifts, cleavage laws, fibres, pullbacks.

A cleaved opfibration is a functor p: E -> C together with a chosen lift for
every (object of E, morphism out of its image).  Nothing is assumed: the
checkers verify cartesianity by the full universal property and decide the
split laws exactly, reporting a minimal counterexample on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Sequence

from .fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    NatTransData,
    first_disagreement,
    generated_diagram,
    law_failures,
    make_category,
    pair_category,
    pair_projections,
    validate_functor,
)
from .report import Report, UsageError, ValidationError


@dataclass(eq=False)
class CleavedOpfib:
    """A functor with a cleavage: its chosen lift of each (total object E, base morphism out of p(E))."""

    p: FunctorData
    lifts: Mapping[tuple[str, str], str]

    @property
    def total(self) -> FinCat:
        return self.p.dom

    @property
    def base(self) -> FinCat:
        return self.p.cod


def cleaved_opfib(p: FunctorData, lifts: Mapping[tuple[str, str], str]) -> CleavedOpfib:
    """Validate a cleavage table for p: totality plus boundary conditions."""
    rep = Report(f"validate cleavage for {p.name}")
    total, base = p.dom, p.cod
    total_objects, total_mors, base_mors = set(total.objects), set(total.mors), set(base.mors)
    for e in total.objects:
        for f in base.out(p.ob_map[e]):
            if (e, f) not in lifts:
                rep.fail("cleavage-total", f"no lift of {f} at {e}")
                continue
            m = lifts[(e, f)]
            if m not in total_mors:
                rep.fail("dangling-identifier", f"lift of {f} at {e} is undeclared morphism {m}")
            elif total.src[m] != e:
                rep.fail("lift-source", f"lift of {f} at {e} starts at {total.src[m]}")
            elif p.mor_map[m] != f:
                rep.fail("lift-over", f"lift of {f} at {e} lies over {p.mor_map[m]}")
    for (e, f) in lifts:
        if e not in total_objects or f not in base_mors:
            rep.fail("dangling-identifier", f"lift entry ({e},{f}) names unknown data")
        elif base.src[f] != p.ob_map[e]:
            rep.fail("lift-rooted", f"entry ({e},{f}) but {f} does not start at p({e})")
    if not rep.passed:
        raise ValidationError(rep)
    return CleavedOpfib(p, dict(lifts))


def _fill_ins(p: FunctorData, lift: str, over: str, target: str) -> list[str]:
    """The morphisms v: tgt(lift) -> tgt(target) lying over `over` with v∘lift = target.

    `lift` and `target` start at the same object.  A cartesian lift has
    exactly one fill-in for every target and every `over` that commutes in
    the base; every construction that moves a morphism along chosen lifts
    solves this.
    """
    total = p.dom
    return [
        v
        for v in total.hom(total.tgt[lift], total.tgt[target])
        if p.mor_map[v] == over and total.comp[(v, lift)] == target
    ]


def _unique_fill_in(p: FunctorData, lift: str, over: str, target: str, what: str) -> str:
    fills = _fill_ins(p, lift, over, target)
    if len(fills) != 1:
        raise ValueError(f"{what}: expected exactly one fill-in, got {fills}")
    return fills[0]


def _cartesian_failure(p: FunctorData, lift_mor: str, f: str) -> str | None:
    """Full universal property: unique fill-in v for every commuting (e, w) pair, counted
    for all pairs at once, since each v out of tgt(lift) fills in (v∘lift, p(v)) alone."""
    total, base = p.dom, p.cod
    c = base.tgt[f]
    fills: dict[tuple[str, str], int] = {}
    for v in total.out(total.tgt[lift_mor]):
        key = (total.comp[(v, lift_mor)], p.mor_map[v])
        fills[key] = fills.get(key, 0) + 1
    for e in total.out(total.src[lift_mor]):
        for w in base.hom(c, p.ob_map[total.tgt[e]]):
            if base.comp[(w, f)] == p.mor_map[e] and fills.get((e, w)) != 1:
                return (
                    f"lift {lift_mor} of {f}: {fills.get((e, w), 0)} fill-ins for "
                    f"(e={e}, w={w}), expected exactly one"
                )
    return None


def find_cartesian_lifts(p: FunctorData, e: str, f: str) -> list[str]:
    """All cartesian morphisms out of `e` lying over `f`; empty means no lift exists."""
    base = p.cod
    if base.src[f] != p.ob_map[e]:
        raise UsageError(f"{f} does not start at p({e}) = {p.ob_map[e]}")
    out = []
    for m in p.dom.out(e):
        if p.mor_map[m] == f and _cartesian_failure(p, m, f) is None:
            out.append(m)
    return out


def check_split_opfib(q: CleavedOpfib) -> Report:
    """Three verdicts: every lift cartesian, identity law, composition law.  The first and
    the last are decided on the base's generators first (see fincat.law_failures); each
    failing verdict reports the first counterexample of its full scan."""
    rep = Report(f"split opfibration check for {q.p.name}")
    p, lifts = q.p, q.lifts
    total, base = p.dom, p.cod

    id_fail = None
    for e in total.objects:
        m = lifts[(e, base.identity[p.ob_map[e]])]
        if not total.is_identity(m):
            id_fail = f"lift of identity at {e} is {m}, not {total.identity[e]}"
            break

    def composition(outer: Mapping[str, Sequence[str]]) -> Iterator[str]:
        for e in total.objects:
            for f in base.out(p.ob_map[e]):
                mf = lifts[(e, f)]
                for g in outer[base.tgt[f]]:
                    composed = total.comp[(lifts[(total.tgt[mf], g)], mf)]
                    direct = lifts[(e, base.comp[(g, f)])]
                    if composed != direct:
                        yield f"lift of {g}∘{f} at {e} is {direct}, but composing the lifts gives {composed}"

    comp_fail = next(law_failures(base, composition, exact=id_fail is None), None)

    def cartesian(over: Collection[str]) -> Iterator[str]:
        for (e, f), m in sorted(lifts.items()):
            if f in over:
                fail = _cartesian_failure(p, m, f)
                if fail is not None:
                    yield f"at ({e},{f}): {fail}"

    cart_fail = None
    if comp_fail is None:
        # each lift is now a composite of lifts over generators and, unless the identity law
        # holds, of identities; a composite of opcartesian morphisms is opcartesian
        over = set(base.identity.values()) if id_fail else set()
        cart_fail = next(cartesian(over.union(*base.generators().values())), None)
    if comp_fail or cart_fail:
        cart_fail = next(cartesian(set(base.mors)), None)
    rep.record("lifts-cartesian", cart_fail)
    rep.record("identity-law", id_fail)
    rep.record("composition-law", comp_fail)
    return rep


def check_discrete_opfib(p: FunctorData) -> Report:
    """Pass iff every (E, f out of p(E)) has exactly one morphism over f out of E."""
    rep = Report(f"discrete opfibration check for {p.name}")
    total, base = p.dom, p.cod
    fail = None
    for e in total.objects:
        by_image: dict[str, list[str]] = {}
        for m in total.out(e):
            by_image.setdefault(p.mor_map[m], []).append(m)
        for f in base.out(p.ob_map[e]):
            lifts = by_image.get(f, [])
            if len(lifts) != 1:
                fail = f"object {e}, morphism {f}: {len(lifts)} lifts {lifts}"
                break
        if fail:
            break
    rep.record("unique-lifts", fail)
    return rep


def check_cleavage_preserving(
    h: FunctorData,
    k: FunctorData,
    q1: CleavedOpfib,
    q2: CleavedOpfib,
) -> Report:
    """Square (h over k) between cleaved opfibrations: commutes and preserves chosen lifts."""
    if not (h.dom.tables_equal(q1.total) and h.cod.tables_equal(q2.total)
            and k.dom.tables_equal(q1.base) and k.cod.tables_equal(q2.base)):
        raise UsageError(f"({h.name},{k.name}) is not a square from {q1.p.name} to {q2.p.name}")
    rep = Report(f"cleavage preservation for ({h.name},{k.name})")
    square_fail = None
    bad = first_disagreement((k, q1.p), (q2.p, h))  # in the listing order of q1's total
    if bad is not None:
        kind, x = bad
        at = FunctorData.ob if kind == "object" else FunctorData.mor
        square_fail = f"on {kind} {x}: {at(q2.p, at(h, x))} != {at(k, at(q1.p, x))}"
    rep.record("square-commutes", square_fail)
    if square_fail is None:
        rep.record("lifts-preserved", _unpreserved_lift(h, k, q1.lifts, q2.lifts))
    return rep


def _unpreserved_lift(h: FunctorData, k: FunctorData, lifts1: Mapping, lifts2: Mapping) -> str | None:
    """The first chosen lift of lifts1, in sorted order, that the commuting square (h over k)
    does not carry to the chosen lift of lifts2, as a counterexample; None when there is none."""
    for (e, f), m in sorted(lifts1.items()):
        expected = lifts2[(h.ob_map[e], k.mor_map[f])]
        if h.mor_map[m] != expected:
            return f"H(lift({e},{f})) = {h.mor_map[m]} but lift({h.ob_map[e]},{k.mor_map[f]}) = {expected}"
    return None


# ---------------------------------------------------------------------------
# fibres (the quasi-inverse of the Grothendieck construction)


def _require_split(q: CleavedOpfib) -> None:
    rep = check_split_opfib(q)
    if not rep.passed:
        out = Report(f"fibres of {q.p.name}")
        out.fail("input-split", rep.summary())
        raise ValidationError(out)


def fibre_categories(p: FunctorData, names: Mapping[str, str]) -> dict[str, FinCat]:
    """The fibre of p over each base object x that `names` keys, named names[x]: the subcategory
    of the total over x and its identity.  One pass over the total sorts its objects, and its
    non-identity morphisms over identities, by base object."""
    total, over_identity = p.dom, {i: x for x, i in p.cod.identity.items()}
    objects, mors = {x: [] for x in p.cod.objects}, {x: [] for x in p.cod.objects}
    out: dict[str, list[str]] = {e: [] for e in total.objects}  # each fibre's outgoing-morphism index
    for e in total.objects:
        objects[p.ob_map[e]].append(e)
    for m in total.mors:
        if p.mor_map[m] in over_identity and not total.is_identity(m):
            mors[over_identity[p.mor_map[m]]].append(m)
            out[total.src[m]].append(m)
    return {x: make_category(name, objects[x], [(m, total.src[m], total.tgt[m]) for m in mors[x]],
                             {(g, f): total.comp[(g, f)] for f in mors[x] for g in out[total.tgt[f]]})
            for x, name in names.items()}


def fibre_category(p: FunctorData, x: str, name: str | None = None) -> FinCat:
    """The subcategory of the total category over x and its identity (see fibre_categories)."""
    return fibre_categories(p, {x: name or f"fibre({p.name},{x})"})[x]


def _pushforward_mor(q: CleavedOpfib, f: str, e_mor: str) -> str:
    """Image of a fibre morphism under f_*, solved from the universal property."""
    p, lifts = q.p, q.lifts
    total, base = p.dom, p.cod
    lift0 = lifts[(total.src[e_mor], f)]
    lift1 = lifts[(total.tgt[e_mor], f)]
    idy = base.identity[base.tgt[f]]
    return _unique_fill_in(p, lift0, idy, total.comp[(lift1, e_mor)], f"pushforward of {e_mor} along {f}")


def fibres(q: CleavedOpfib, name: str | None = None) -> CatDiagram:
    """The Cat-valued diagram of fibres of a split opfibration, made by
    fincat.generated_diagram: push(f) is solved along the chosen lifts at the generators f of
    the base and composed elsewhere, and push(id) is the identity functor."""
    _require_split(q)
    p, base = q.p, q.base
    at_ob = fibre_categories(p, {x: f"fibre({p.name},{x})" for x in base.objects})

    def push(f: str) -> FunctorData:
        x, y = base.src[f], base.tgt[f]
        ob_map = {e: p.dom.tgt[q.lifts[(e, f)]] for e in at_ob[x].objects}
        mor_map = {
            m: _pushforward_mor(q, f, m) if not at_ob[x].is_identity(m) else at_ob[y].identity[ob_map[at_ob[x].src[m]]]
            for m in at_ob[x].mors
        }
        return validate_functor(at_ob[x], at_ob[y], ob_map, mor_map, name=f"push({f})")

    # push(id) would be the identity by the split identity law, which _require_split checked
    return generated_diagram(base, at_ob, push, "push", name or f"fibres({q.p.name})")


# ---------------------------------------------------------------------------
# pullback


@dataclass(eq=False)
class PullbackOpfib:
    """Strict pullback of a cleaved opfibration, with its universal square."""

    opfib: CleavedOpfib              # projection to dom(h) with transported cleavage
    to_total: FunctorData            # second projection, over h
    ob_pair: Mapping[str, tuple[str, str]]
    mor_pair: Mapping[str, tuple[str, str]]
    obj_of: Mapping[tuple[str, str], str]
    mor_of: Mapping[tuple[str, str], str]


def pullback_opfib(h: FunctorData, q: CleavedOpfib, name: str | None = None) -> PullbackOpfib:
    """Pull back q: E -> C along h: D -> C; the cleavage transports componentwise."""
    if not h.cod.tables_equal(q.base):
        raise UsageError(f"{h.name} does not land in the base of {q.p.name}")
    _require_split(q)
    total, base_d = q.total, h.dom
    label = name or f"pb({h.name},{q.p.name})"

    pairs = [(x, e) for x in base_d.objects for e in total.objects if h.ob_map[x] == q.p.ob_map[e]]
    lying_over: dict[str, list[str]] = {}
    for m in total.mors:
        lying_over.setdefault(q.p.mor_map[m], []).append(m)
    mor_pairs = [(u, m) for u in base_d.mors for m in lying_over.get(h.mor_map[u], ())]
    pb_total, obj_of, mor_of, ob_pair, mor_pair = pair_category(base_d, total, pairs, mor_pairs, label)
    proj, snd = pair_projections(pb_total, base_d, total, obj_of, mor_of, (f"proj[{label}]", f"into[{label}]"))
    lifts = {
        (obj_of[(x, e)], g): mor_of[(g, q.lifts[(e, h.mor_map[g])])]
        for (x, e) in pairs
        for g in base_d.mors
        if base_d.src[g] == x
    }
    return PullbackOpfib(
        opfib=cleaved_opfib(proj, lifts),
        to_total=snd,
        ob_pair=ob_pair,
        mor_pair=mor_pair,
        obj_of=obj_of,
        mor_of=mor_of,
    )


def cell_transport(
    delta: NatTransData,
    q: CleavedOpfib,
    pb_dom: PullbackOpfib,
    pb_cod: PullbackOpfib,
    name: str | None = None,
) -> FunctorData:
    """The comparison H*E -> K*E induced by a natural transformation delta: H => K.

    On objects it pushes the total component forward along the chosen lift of
    the delta component; on morphisms it is solved from cartesianity.
    """
    p, lifts = q.p, q.lifts
    total = p.dom
    ob_map = {}
    for v, (x, e) in pb_dom.ob_pair.items():
        lifted = lifts[(e, delta.components[x])]
        ob_map[v] = pb_cod.obj_of[(x, total.tgt[lifted])]
    mor_map = {}
    for n, (u, m) in pb_dom.mor_pair.items():
        x0, e0 = pb_dom.ob_pair[pb_dom.opfib.total.src[n]]
        x1, e1 = pb_dom.ob_pair[pb_dom.opfib.total.tgt[n]]
        l0 = lifts[(e0, delta.components[x0])]
        l1 = lifts[(e1, delta.components[x1])]
        fill = _unique_fill_in(p, l0, delta.cod.mor_map[u], total.comp[(l1, m)], f"cell transport of {n}")
        mor_map[n] = pb_cod.mor_of[(u, fill)]
    return validate_functor(
        pb_dom.opfib.total,
        pb_cod.opfib.total,
        ob_map,
        mor_map,
        name=name or f"transport[{delta.name}]",
    )
