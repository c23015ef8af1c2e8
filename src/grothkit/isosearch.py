"""Backtracking search for strict isomorphisms at category, functor and diagram level.

Outcomes are tri-state: a verified witness, a proof of absence, or a budget
overrun.  Before the first node, both categories are coloured by invariants
that every isomorphism preserves (counts, hom-set sizes, then refined object
and morphism classes); a class of different sizes on the two sides proves
absence outright, and otherwise only candidates of equal colour are tried.
This removes no isomorphism, so a search that runs dry is still a proof of
absence.  Budgets count search nodes, not the colouring work, and are shared
across the components of compound searches.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from .fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    IsoWitness,
    diagram_iso_of_tables,
    inverse_functor,
    validate_functor,
    validate_nat_trans,
    verify_category_iso,
    verify_natural_iso,
)

DEFAULT_BUDGET = 200_000

FOUND = "found"
NONE = "none"
BUDGET = "budget"


class BudgetExceeded(Exception):
    pass


@dataclass
class Budget:
    limit: int
    used: int = 0
    refuted_by: str | None = None  # the invariant that refuted a pair before any node

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded()


@dataclass
class SearchResult:
    status: str  # FOUND | NONE | BUDGET
    witness: IsoWitness | None
    nodes: int
    refuted_by: str | None = None  # set when an invariant, not the search, proved NONE

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _power_cycle(c: FinCat, m: str) -> tuple[int, int]:
    """(index, period) of the powers m, m∘m, m∘m∘m, … of an endomorphism m."""
    seen: dict[str, int] = {}
    p = m
    while p not in seen:
        seen[p] = len(seen)
        p = c.comp[(m, p)]
    return seen[p], len(seen) - seen[p]


def _into(c: FinCat) -> dict[str, list[str]]:
    """For every object x, the morphisms with target x, in listing order."""
    into: dict[str, list[str]] = {x: [] for x in c.objects}
    for m in c.mors:
        into[c.tgt[m]].append(m)
    return into


def _refine(c: FinCat, d: FinCat) -> tuple[str | None, tuple | None]:
    """Colour the objects and morphisms of c and d on one shared palette.

    Returns (refuted_by, colours).  `refuted_by` names the first invariant
    that tells c and d apart, or is None; then `colours` is
    ((objects of c, morphisms of c), (objects of d, morphisms of d)), each a
    map to palette indices that every isomorphism c -> d preserves.

    Object colours start from |hom(x,x)| and are refined, in rounds, by the
    multiset of (colour y, |hom(x,y)|, |hom(y,x)|) over the objects y with a
    morphism either way, until the number of classes stops growing.  A
    morphism's colour is whether it is an identity, the colours of its ends,
    its number of factorizations and, for an endomorphism, the index and
    period of its powers.  A class of different sizes on the two sides
    refutes the pair.
    """
    if len(c.objects) != len(d.objects):
        return "object count", None
    if len(c.mors) != len(d.mors):
        return "morphism count", None
    if sorted(map(len, c.hom_table.values())) != sorted(map(len, d.hom_table.values())):
        return "hom-set sizes", None

    sides = (c, d)
    # per object, (y, |hom(x,y)|, |hom(y,x)|) for the y with a morphism either way
    links = []
    for cat in sides:
        near: dict[str, dict[str, list[int]]] = {x: {} for x in cat.objects}
        for (x, y), ms in cat.hom_table.items():
            near[x].setdefault(y, [0, 0])[0] = len(ms)
            near[y].setdefault(x, [0, 0])[1] = len(ms)
        links.append({x: [(y, out, into) for y, (out, into) in ys.items()] for x, ys in near.items()})

    obs = [{x: len(cat.hom(x, x)) for x in cat.objects} for cat in sides]
    classes = len(set(obs[0].values()) | set(obs[1].values()))
    while True:
        palette: dict = {}
        obs = [
            {
                x: palette.setdefault(
                    (col[x], tuple(sorted((col[y], out, into) for y, out, into in link[x]))), len(palette)
                )
                for x in col
            }
            for col, link in zip(obs, links)
        ]
        if len(palette) == classes:
            break
        classes = len(palette)
    if Counter(obs[0].values()) != Counter(obs[1].values()):
        return "object classes", None

    palette = {}
    mors = [
        {
            m: palette.setdefault(
                (
                    cat.is_identity(m),
                    col[cat.src[m]],
                    col[cat.tgt[m]],
                    len(cat.factorizations[m]),
                    _power_cycle(cat, m) if cat.src[m] == cat.tgt[m] else None,
                ),
                len(palette),
            )
            for m in cat.mors
        }
        for cat, col in zip(sides, obs)
    ]
    if Counter(mors[0].values()) != Counter(mors[1].values()):
        return "morphism classes", None
    return None, ((obs[0], mors[0]), (obs[1], mors[1]))


def _order(items: list, rng: random.Random | None) -> list:
    if rng is not None:
        items = list(items)
        rng.shuffle(items)
    return items


def iter_iso_tables(
    c: FinCat,
    d: FinCat,
    budget: Budget,
    ob_allowed: Callable[[str, str], bool] | None = None,
    mor_allowed: Callable[[str, str], bool] | None = None,
    rng: random.Random | None = None,
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Yield every (ob_map, mor_map) pair describing a strict iso c -> d.

    The enumeration is exhaustive, so running the generator dry proves there
    is no isomorphism satisfying the filters; when an invariant of `_refine`
    proves it before the first node, `budget.refuted_by` names the invariant.
    Raises BudgetExceeded when the node budget runs out.
    """
    refuted_by, colours = _refine(c, d)
    if refuted_by is not None:
        budget.refuted_by = refuted_by
        return
    (ob_c, mor_c), (ob_d, mor_d) = colours
    cand: dict[str, list[str]] = {}
    for x in c.objects:
        cand[x] = [
            u
            for u in d.objects
            if ob_d[u] == ob_c[x] and (ob_allowed is None or ob_allowed(x, u))
        ]
        if not cand[x]:
            return
    order = sorted(c.objects, key=lambda x: len(cand[x]))

    non_ids = list(c.non_identity_mors())
    into = _into(c)

    def assign_mors(ob_map: dict[str, str]) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
        mor_map: dict[str, str] = {c.identity[x]: d.identity[u] for x, u in ob_map.items()}
        used = set(mor_map.values())
        if mor_allowed is not None and any(
            not mor_allowed(m, mor_map[m]) for m in mor_map
        ):
            return

        wide = {x for x, u in ob_map.items() if u in d.wide_sources}

        def consistent(m: str) -> bool:
            # check every composition constraint whose three participants are now
            # assigned and one of which is m: g∘m, m∘f and the factorizations of m.
            # Every image lies in the hom-set between the images of its ends, so a
            # constraint on composites out of x holds unless x is in `wide`
            n = mor_map[m]
            for f in into[c.src[m]]:
                nf = mor_map.get(f)
                if nf is not None and c.src[f] in wide:
                    h = mor_map.get(c.comp[(m, f)])
                    if h is not None and d.comp[(n, nf)] != h:
                        return False
            if c.src[m] not in wide:
                return True
            for g in c.out(c.tgt[m]):
                ng = mor_map.get(g)
                if ng is not None:
                    h = mor_map.get(c.comp[(g, m)])
                    if h is not None and d.comp[(ng, n)] != h:
                        return False
            for g, f in c.factorizations[m]:
                if g in mor_map and f in mor_map:
                    if d.comp[(mor_map[g], mor_map[f])] != n:
                        return False
            return True

        def go(i: int) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
            if i == len(non_ids):
                yield dict(ob_map), dict(mor_map)
                return
            m = non_ids[i]
            colour = mor_c[m]
            targets = [n for n in d.hom(ob_map[c.src[m]], ob_map[c.tgt[m]]) if mor_d[n] == colour]
            for n in _order(targets, rng):
                budget.tick()
                if n in used:
                    continue
                if mor_allowed is not None and not mor_allowed(m, n):
                    continue
                mor_map[m] = n
                used.add(n)
                if consistent(m):
                    yield from go(i + 1)
                del mor_map[m]
                used.discard(n)

        yield from go(0)

    def assign_obs(i: int, ob_map: dict[str, str], used: set[str]) -> Iterator[tuple[dict, dict]]:
        if i == len(order):
            yield from assign_mors(ob_map)
            return
        x = order[i]
        for u in _order(list(cand[x]), rng):
            budget.tick()
            if u in used:
                continue
            if any(
                len(c.hom(x, y)) != len(d.hom(u, v)) or len(c.hom(y, x)) != len(d.hom(v, u))
                for y, v in ob_map.items()
            ):
                continue
            ob_map[x] = u
            used.add(u)
            yield from assign_obs(i + 1, ob_map, used)
            del ob_map[x]
            used.discard(u)

    yield from assign_obs(0, {}, set())


def _wrap_category_witness(c: FinCat, d: FinCat, ob_map: dict, mor_map: dict, flavor: str) -> IsoWitness:
    fwd = validate_functor(c, d, ob_map, mor_map, name=f"iso[{c.name}->{d.name}]")
    return verify_category_iso(fwd, inverse_functor(fwd, f"iso[{d.name}->{c.name}]"), flavor=flavor)


def iso_search(
    c: FinCat,
    d: FinCat,
    budget: int = DEFAULT_BUDGET,
    rng: random.Random | None = None,
) -> SearchResult:
    """Search for a strict isomorphism of categories; witnesses are machine-checked."""
    b = Budget(budget)
    try:
        for ob_map, mor_map in iter_iso_tables(c, d, b, rng=rng):
            return SearchResult(FOUND, _wrap_category_witness(c, d, ob_map, mor_map, "category-iso"), b.used)
    except BudgetExceeded:
        return SearchResult(BUDGET, None, b.used)
    return SearchResult(NONE, None, b.used, b.refuted_by)


def nat_iso_search(f: FunctorData, g: FunctorData, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for an invertible natural transformation between parallel functors."""
    if f.dom is not g.dom and not f.dom.tables_equal(g.dom):
        raise ValueError("functors do not share a domain")
    if f.cod is not g.cod and not f.cod.tables_equal(g.cod):
        raise ValueError("functors do not share a codomain")
    b = Budget(budget)
    cat, target = f.dom, f.cod
    cand: dict[str, list[str]] = {}
    for x in cat.objects:
        cand[x] = [m for m in target.hom(f.ob_map[x], g.ob_map[x]) if target.inverse(m) is not None]
        if not cand[x]:
            return SearchResult(NONE, None, b.used)
    order = sorted(cat.objects, key=lambda x: len(cand[x]))
    into = _into(cat)

    def natural_so_far(comp: dict[str, str], x: str) -> bool:
        # the squares of the morphisms out of and into x with both ends assigned
        for m in (*cat.out(x), *into[x]):
            a, z = cat.src[m], cat.tgt[m]
            if a in comp and z in comp:
                if target.comp[(comp[z], f.mor_map[m])] != target.comp[(g.mor_map[m], comp[a])]:
                    return False
        return True

    def go(i: int, comp: dict[str, str]) -> dict[str, str] | None:
        if i == len(order):
            return dict(comp)
        x = order[i]
        for m in cand[x]:
            b.tick()
            comp[x] = m
            if natural_so_far(comp, x):
                out = go(i + 1, comp)
                if out is not None:
                    return out
            del comp[x]
        return None

    try:
        comps = go(0, {})
    except BudgetExceeded:
        return SearchResult(BUDGET, None, b.used)
    if comps is None:
        return SearchResult(NONE, None, b.used)
    fwd = validate_nat_trans(f, g, comps, name=f"niso[{f.name}->{g.name}]")
    inv = {x: target.inverse(m) for x, m in comps.items()}
    bwd = validate_nat_trans(g, f, inv, name=f"niso[{g.name}->{f.name}]")
    return SearchResult(FOUND, verify_natural_iso(fwd, bwd), b.used)


def over_base_iso_search(
    total1: FinCat,
    proj1: FunctorData,
    total2: FinCat,
    proj2: FunctorData,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Search for a strict iso of total categories commuting with the projections."""
    if proj1.cod is not proj2.cod and not proj1.cod.tables_equal(proj2.cod):
        raise ValueError("projections do not share a base")
    b = Budget(budget)
    ob_allowed = lambda x, u: proj1.ob_map[x] == proj2.ob_map[u]
    mor_allowed = lambda m, n: proj1.mor_map[m] == proj2.mor_map[n]
    try:
        for ob_map, mor_map in iter_iso_tables(total1, total2, b, ob_allowed, mor_allowed):
            witness = _wrap_category_witness(total1, total2, ob_map, mor_map, "over-base-iso")
            return SearchResult(FOUND, witness, b.used)
    except BudgetExceeded:
        return SearchResult(BUDGET, None, b.used)
    return SearchResult(NONE, None, b.used, b.refuted_by)


def diagram_iso_search(z1: CatDiagram, z2: CatDiagram, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for a strict natural isomorphism of Cat-valued diagrams.

    Per base object this enumerates category isos between the fibres, then
    backtracks across the base checking every naturality square strictly.
    """
    if z1.base is not z2.base and not z1.base.tables_equal(z2.base):
        raise ValueError("diagrams do not share a base")
    base = z1.base
    b = Budget(budget)

    try:
        candidates: dict[str, list[tuple[dict, dict]]] = {}
        for v in base.objects:
            options = list(iter_iso_tables(z1.at_ob[v], z2.at_ob[v], b))
            if not options:
                return SearchResult(NONE, None, b.used, b.refuted_by)
            candidates[v] = options

        order = sorted(base.objects, key=lambda v: len(candidates[v]))
        into = _into(base)

        def squares_ok(assigned: dict[str, tuple[dict, dict]], v: str) -> bool:
            # the squares of the base morphisms out of and into v with both ends assigned
            for h in (*base.out(v), *into[v]):
                a, z = base.src[h], base.tgt[h]
                if a not in assigned or z not in assigned:
                    continue
                t1, t2 = z1.at_mor[h], z2.at_mor[h]
                ob_a, mor_a = assigned[a]
                ob_z, mor_z = assigned[z]
                if any(ob_z[t1.ob_map[x]] != t2.ob_map[ob_a[x]] for x in z1.at_ob[a].objects):
                    return False
                if any(mor_z[t1.mor_map[m]] != t2.mor_map[mor_a[m]] for m in z1.at_ob[a].mors):
                    return False
            return True

        def go(i: int, assigned: dict) -> dict | None:
            if i == len(order):
                return dict(assigned)
            v = order[i]
            for option in candidates[v]:
                b.tick()
                assigned[v] = option
                if squares_ok(assigned, v):
                    out = go(i + 1, assigned)
                    if out is not None:
                        return out
                del assigned[v]
            return None

        solution = go(0, {})
    except BudgetExceeded:
        return SearchResult(BUDGET, None, b.used)

    if solution is None:
        return SearchResult(NONE, None, b.used)
    return SearchResult(FOUND, diagram_iso_of_tables(z1, z2, solution), b.used)
