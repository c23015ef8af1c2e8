"""Stock categories and diagrams: everything the worked examples need."""

from __future__ import annotations

from typing import Mapping, Sequence

from .fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    id_name,
    identity_functor,
    make_category,
    name_owners,
    pair_category,
    pair_projections,
    validate_diagram,
    validate_functor,
)
from .report import Report, ValidationError


def discrete(n: int, prefix: str = "x") -> FinCat:
    objects = [f"{prefix}{i}" for i in range(n)]
    return make_category(f"discrete({n})", objects, [], {})


def terminal() -> FinCat:
    return make_category("terminal", ["*"], [], {})


def walking_arrow() -> FinCat:
    return make_category("walking_arrow", ["a", "b"], [("f", "a", "b")], {})


def walking_iso() -> FinCat:
    comp = {("g", "f"): id_name("a"), ("f", "g"): id_name("b")}
    return make_category("walking_iso", ["a", "b"], [("f", "a", "b"), ("g", "b", "a")], comp)


def poset(elements: Sequence[str], relation: Sequence[tuple[str, str]], name: str | None = None) -> FinCat:
    """Poset category; the relation is closed reflexively and transitively first, and a
    cycle is reported by its first pair x <= y, y <= x in sorted order."""
    elems = list(elements)
    # reach[x]: every y with x <= y, closed over successor sets in Warshall's order
    reach: dict[str, set[str]] = {x: {x} for x in elems}
    for x, y in relation:
        reach.setdefault(x, set()).add(y)
    for k, above_k in reach.items():
        for above in reach.values():
            if k in above:
                above |= above_k
    ups = {x: sorted(reach[x]) for x in sorted(reach)}
    cycle = [(x, y) for x, above in ups.items() for y in above if x != y and x in reach.get(y, ())]
    if cycle:
        x, y = cycle[0]
        rep = Report("build poset")
        rep.fail("antisymmetry", f"{x} <= {y} and {y} <= {x}")
        raise ValidationError(rep)

    def mor(x: str, y: str) -> str:
        return id_name(x) if x == y else f"le({x},{y})"

    arrows = [(mor(x, y), x, y) for x, above in ups.items() for y in above if x != y]
    comp = {
        (mor(y, z), mor(x, y)): mor(x, z)
        for x, above in ups.items() for y in above if x != y for z in ups.get(y, ()) if y != z
    }
    return make_category(name or f"poset({len(elems)})", elems, arrows, comp)


def chain(n: int) -> FinCat:
    """The n-chain poset 0 <= 1 <= ... <= n-1."""
    elems = [str(i) for i in range(n)]
    return poset(elems, [(str(i), str(i + 1)) for i in range(n - 1)], name=f"chain({n})")


def commuting_square_poset() -> FinCat:
    return poset(["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")],
                 name="commuting_square")


def delooping(
    elements: Sequence[str],
    table: Mapping[tuple[str, str], str],
    name: str | None = None,
) -> FinCat:
    """One-object category from a group Cayley table.

    `table[(a, b)]` is the product a·b; entries involving the unit may be
    omitted.  The unit is detected; the unit, closure and inverse axioms are
    checked here and associativity by validate_category, each violation
    reported with a witness.
    """
    elems = list(elements)
    rep = Report(f"delooping {name or ''}".strip())
    full: dict[tuple[str, str], str] = dict(table)
    # a unit must satisfy e·a = a·e = a wherever entries exist; omitted entries count as a
    units = [
        e
        for e in elems
        if all(full.get((e, a), a) == a and full.get((a, e), a) == a for a in elems)
    ]
    if len(units) != 1:
        rep.fail("unit", f"expected exactly one unit element, candidates: {units}")
        raise ValidationError(rep)
    unit = units[0]
    for a in elems:
        full.setdefault((unit, a), a)
        full.setdefault((a, unit), a)
    elem_set = set(elems)
    for a in elems:
        for b in elems:
            if (a, b) not in full:
                rep.fail("total", f"missing product {a}·{b}")
            elif full[(a, b)] not in elem_set:
                rep.fail("closed", f"{a}·{b} = {full[(a, b)]} is not an element")
    if not rep.passed:
        raise ValidationError(rep)
    for a in elems:
        if not any(full[(a, b)] == unit and full[(b, a)] == unit for b in elems):
            rep.fail("inverses", f"no inverse for {a}")
    if not rep.passed:
        raise ValidationError(rep)

    def mor(a: str) -> str:
        return id_name("*") if a == unit else a

    arrows = [(a, "*", "*") for a in elems if a != unit]
    comp = {
        (mor(a), mor(b)): mor(full[(a, b)])
        for a in elems
        for b in elems
        if a != unit and b != unit
    }
    return make_category(name or "delooping", ["*"], arrows, comp)


def cyclic_table(n: int, prefix: str = "r") -> tuple[list[str], dict[tuple[str, str], str]]:
    """Cayley table of Z/n with elements r0..r{n-1}; r0 is the unit."""
    elems = [f"{prefix}{i}" for i in range(n)]
    table = {
        (f"{prefix}{i}", f"{prefix}{j}"): f"{prefix}{(i + j) % n}"
        for i in range(n)
        for j in range(n)
    }
    return elems, table


def _product(c: FinCat, d: FinCat, name: str | None) -> tuple[FinCat, dict, dict, dict, dict]:
    """The product with its naming tables and their inverses (see pair_category)."""
    return pair_category(
        c,
        d,
        [(x, y) for x in c.objects for y in d.objects],
        [(f, g) for f in c.mors for g in d.mors],
        name or f"product({c.name},{d.name})",
    )


def product(c: FinCat, d: FinCat, name: str | None = None) -> FinCat:
    return _product(c, d, name)[0]


def product_projections(c: FinCat, d: FinCat) -> tuple[FinCat, FunctorData, FunctorData]:
    p, obj_of, mor_of, _, _ = _product(c, d, None)
    fst, snd = pair_projections(p, c, d, obj_of, mor_of, (f"fst[{p.name}]", f"snd[{p.name}]"))
    return p, fst, snd


def opposite(c: FinCat, name: str | None = None) -> FinCat:
    """The opposite of c, built once per name and kept in c's cache."""
    name = name or f"op({c.name})"
    key = ("opposite", name)
    if key not in c.cache:
        arrows = [(m, c.tgt[m], c.src[m]) for m in c.mors if not c.is_identity(m)]
        comp = {
            (f, g): h
            for (g, f), h in c.comp.items()
            if not (c.is_identity(g) or c.is_identity(f))
        }
        c.cache[key] = make_category(name, list(c.objects), arrows, comp)
    return c.cache[key]


def opposite_functor(t: FunctorData) -> FunctorData:
    """t with the same tables, as a functor between the opposites of its categories."""
    return validate_functor(opposite(t.dom), opposite(t.cod), t.ob_map, t.mor_map, name=f"op({t.name})")


def _require_object(c: FinCat, x: str, what: str) -> None:
    """Refuse an `x` that is not an object of c as the failed check object-exists of `build what`."""
    if x not in set(c.objects):
        rep = Report(f"build {what}")
        rep.fail("object-exists", f"{x} is not an object of {c.name}")
        raise ValidationError(rep)


def _comma(c: FinCat, x: str, into: bool, name: str) -> FinCat:
    """The morphisms into x (slice) or out of x (coslice) as objects; a map m1 -> m2 is a w
    between their other ends with m2∘w = m1 (slice) or w∘m1 = m2 (coslice), named by w and
    the end that w does not determine: m2 (slice) or m1 (coslice)."""
    at, end, prefix = (c.tgt, c.src, "sl") if into else (c.src, c.tgt, "cosl")
    objects = [m for m in c.mors if at[m] == x]

    def mor(w: str, m1: str, m2: str) -> str:
        return id_name(m1) if c.is_identity(w) else f"{prefix}({w},{m2 if into else m1})"

    triples = [  # (name, w, m1, m2) of each non-identity map
        (mor(w, m1, m2), w, m1, m2)
        for m1 in objects for m2 in objects for w in c.hom(end[m1], end[m2])
        if (c.comp[(m2, w)] == m1 if into else c.comp[(w, m1)] == m2) and not c.is_identity(w)
    ]
    name_owners({(w, m2 if into else m1): n for n, w, m1, m2 in triples}, f"morphism name collision in {name}")
    leaving: dict[str, list] = {m: [] for m in objects}
    for t in triples:
        leaving[t[2]].append(t)
    comp = {(n2, n1): mor(c.comp[(w2, w1)], m1, m3) for n1, w1, m1, m2 in triples for n2, w2, _, m3 in leaving[m2]}
    return make_category(name, objects, [(n, m1, m2) for n, _, m1, m2 in triples], comp)


def slice_category(c: FinCat, target: str, name: str | None = None) -> FinCat:
    """Objects are morphisms into `target`; a map m1 -> m2 is w with m2∘w = m1."""
    _require_object(c, target, "slice")
    return _comma(c, target, True, name or f"slice({c.name},{target})")


def coslice_category(c: FinCat, source: str, name: str | None = None) -> FinCat:
    """Objects are morphisms out of `source`; a map m1 -> m2 is w with w∘m1 = m2."""
    _require_object(c, source, "coslice")
    return _comma(c, source, False, name or f"coslice({c.name},{source})")


def constant_functor(c: FinCat, d: FinCat, x: str, name: str | None = None) -> FunctorData:
    """The functor c -> d sending every object to x and every morphism to its identity."""
    _require_object(d, x, "constant")
    return validate_functor(c, d, {y: x for y in c.objects}, {m: d.identity[x] for m in c.mors},
                            name=name or f"const({c.name},{x})")


# ---------------------------------------------------------------------------
# diagram builders


def constant_diagram(base: FinCat, fibre: FinCat, name: str | None = None) -> CatDiagram:
    """The diagram constant at `fibre`: every base morphism acts as the identity."""
    ident = identity_functor(fibre)
    return validate_diagram(
        base,
        {x: fibre for x in base.objects},
        {f: ident for f in base.mors},
        name=name or f"const({base.name},{fibre.name})",
    )


def terminal_diagram(base: FinCat, name: str | None = None) -> CatDiagram:
    return constant_diagram(base, terminal(), name=name or f"const1({base.name})")


def one_object_diagram(fibre: FinCat, name: str | None = None) -> CatDiagram:
    """A diagram on the terminal base picking out `fibre`."""
    return constant_diagram(terminal(), fibre, name=name or f"pick({fibre.name})")


def arrow_diagram(t: FunctorData, name: str | None = None) -> CatDiagram:
    """A diagram on the walking arrow encoding the single functor `t`."""
    base = walking_arrow()
    return validate_diagram(
        base,
        {"a": t.dom, "b": t.cod},
        {id_name("a"): identity_functor(t.dom), id_name("b"): identity_functor(t.cod), "f": t},
        name=name or f"arrow({t.name})",
    )


def iso_diagram(t: FunctorData, t_inv: FunctorData, name: str | None = None) -> CatDiagram:
    """A diagram on the walking isomorphism encoding an invertible functor."""
    base = walking_iso()
    return validate_diagram(
        base,
        {"a": t.dom, "b": t.cod},
        {
            id_name("a"): identity_functor(t.dom),
            id_name("b"): identity_functor(t.cod),
            "f": t,
            "g": t_inv,
        },
        name=name or f"iso({t.name})",
    )


def representable_diagram(c: FinCat, at: str, name: str | None = None) -> tuple[FinCat, CatDiagram]:
    """The presheaf Hom(-, at) as a Set-valued diagram on opposite(c).

    Returns (opposite base, diagram); each fibre is the discrete category on
    the morphisms into `at`, and a base arrow acts by precomposition.
    """
    _require_object(c, at, "representable")
    base = opposite(c)
    fibres = {
        x: make_category(f"Hom({x},{at})", list(c.hom(x, at)), [], {})
        for x in c.objects
    }
    at_mor: dict[str, FunctorData] = {}
    for m in base.mors:
        # m: x -> y in opposite(c) is m: y -> x in c; act by precomposition with m
        x, y = base.src[m], base.tgt[m]
        ob_map = {h: c.comp[(h, m)] for h in c.hom(x, at)}
        mor_map = {id_name(h): id_name(ob_map[h]) for h in c.hom(x, at)}
        at_mor[m] = validate_functor(fibres[x], fibres[y], ob_map, mor_map, name=f"pre({m})")
    diagram = validate_diagram(base, fibres, at_mor, name=name or f"y({c.name},{at})")
    return base, diagram
