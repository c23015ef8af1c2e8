"""Backtracking search for strict isomorphisms at category, functor and diagram level.

Outcomes are tri-state: a verified witness, a proof of absence (the search
space was exhausted), or a budget overrun.  Budgets count search nodes and
are shared across the components of compound searches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    IsoWitness,
    inverse_functor,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
    verify_category_iso,
    verify_diagram_iso,
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

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded()


@dataclass
class SearchResult:
    status: str  # FOUND | NONE | BUDGET
    witness: IsoWitness | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _profile(c: FinCat, x: str):
    endo = len(c.hom(x, x))
    outs = sorted(len(c.hom(x, y)) for y in c.objects if y != x)
    ins = sorted(len(c.hom(y, x)) for y in c.objects if y != x)
    return endo, tuple(outs), tuple(ins)


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
    is no isomorphism satisfying the filters.  Raises BudgetExceeded when the
    node budget runs out.
    """
    if len(c.objects) != len(d.objects) or len(c.mors) != len(d.mors):
        return
    if sorted(len(ms) for ms in c.hom_table.values()) != sorted(len(ms) for ms in d.hom_table.values()):
        return

    d_profile = {u: _profile(d, u) for u in d.objects}
    cand: dict[str, list[str]] = {}
    for x in c.objects:
        px = _profile(c, x)
        cand[x] = [
            u
            for u in d.objects
            if d_profile[u] == px and (ob_allowed is None or ob_allowed(x, u))
        ]
        if not cand[x]:
            return
    order = sorted(c.objects, key=lambda x: len(cand[x]))

    non_ids = list(c.non_identity_mors())

    def assign_mors(ob_map: dict[str, str]) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
        mor_map: dict[str, str] = {c.identity[x]: d.identity[u] for x, u in ob_map.items()}
        used = set(mor_map.values())
        if mor_allowed is not None and any(
            not mor_allowed(m, mor_map[m]) for m in mor_map
        ):
            return

        def consistent(m: str) -> bool:
            # check every composition constraint whose three participants are now assigned
            for other in mor_map:
                for g, f in ((m, other), (other, m)):
                    if c.src[g] == c.tgt[f]:
                        h = c.comp[(g, f)]
                        if h in mor_map and d.comp[(mor_map[g], mor_map[f])] != mor_map[h]:
                            return False
            for g, f in c.factorizations[m]:
                if g in mor_map and f in mor_map:
                    if d.comp[(mor_map[g], mor_map[f])] != mor_map[m]:
                        return False
            return True

        def go(i: int) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
            if i == len(non_ids):
                yield dict(ob_map), dict(mor_map)
                return
            m = non_ids[i]
            targets = d.hom(ob_map[c.src[m]], ob_map[c.tgt[m]])
            for n in _order(list(targets), rng):
                budget.tick()
                if n in used or d.is_identity(n):
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
    return SearchResult(NONE, None, b.used)


def nat_iso_search(
    f: FunctorData,
    g: FunctorData,
    budget: int = DEFAULT_BUDGET,
    rng: random.Random | None = None,
) -> SearchResult:
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

    def natural_so_far(comp: dict[str, str], x: str) -> bool:
        for m in cat.mors:
            a, z = cat.src[m], cat.tgt[m]
            if a in comp and z in comp and (a == x or z == x):
                if target.comp[(comp[z], f.mor_map[m])] != target.comp[(g.mor_map[m], comp[a])]:
                    return False
        return True

    def go(i: int, comp: dict[str, str]) -> dict[str, str] | None:
        if i == len(order):
            return dict(comp)
        x = order[i]
        for m in _order(list(cand[x]), rng):
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
    extra_check: Callable[[FunctorData, FunctorData], str | None] | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Search for a strict iso of total categories commuting with the projections.

    `extra_check` may veto a candidate witness pair (e.g. to demand cleavage
    preservation); vetoed candidates are skipped and the search continues.
    """
    if proj1.cod is not proj2.cod and not proj1.cod.tables_equal(proj2.cod):
        raise ValueError("projections do not share a base")
    b = Budget(budget)
    ob_allowed = lambda x, u: proj1.ob_map[x] == proj2.ob_map[u]
    mor_allowed = lambda m, n: proj1.mor_map[m] == proj2.mor_map[n]
    try:
        for ob_map, mor_map in iter_iso_tables(total1, total2, b, ob_allowed, mor_allowed, rng=rng):
            witness = _wrap_category_witness(total1, total2, ob_map, mor_map, "over-base-iso")
            if extra_check is not None:
                veto = extra_check(witness.forward, witness.backward)
                if veto is not None:
                    continue
            return SearchResult(FOUND, witness, b.used)
    except BudgetExceeded:
        return SearchResult(BUDGET, None, b.used)
    return SearchResult(NONE, None, b.used)


def diagram_iso_search(
    z1: CatDiagram,
    z2: CatDiagram,
    budget: int = DEFAULT_BUDGET,
    component_filter: Callable[[str, dict, dict], bool] | None = None,
    component_candidates: Callable[[str, Budget], Iterator[tuple[dict, dict]]] | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Search for a strict natural isomorphism of Cat-valued diagrams.

    Per base object this enumerates category isos between the fibres, then
    backtracks across the base checking every naturality square strictly.
    `component_filter(v, ob_map, mor_map)` may restrict per-fibre candidates,
    and `component_candidates` may replace their enumeration outright.
    """
    if z1.base is not z2.base and not z1.base.tables_equal(z2.base):
        raise ValueError("diagrams do not share a base")
    base = z1.base
    b = Budget(budget)

    try:
        candidates: dict[str, list[tuple[dict, dict]]] = {}
        for v in base.objects:
            if component_candidates is not None:
                stream = component_candidates(v, b)
            else:
                stream = iter_iso_tables(z1.at_ob[v], z2.at_ob[v], b, rng=rng)
            options = [
                (ob, mor)
                for ob, mor in stream
                if component_filter is None or component_filter(v, ob, mor)
            ]
            if not options:
                return SearchResult(NONE, None, b.used)
            candidates[v] = options

        order = sorted(base.objects, key=lambda v: len(candidates[v]))

        def squares_ok(assigned: dict[str, tuple[dict, dict]], v: str) -> bool:
            for h in base.mors:
                a, z = base.src[h], base.tgt[h]
                if a not in assigned or z not in assigned or (a != v and z != v):
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
    fwd_comps = {
        v: validate_functor(z1.at_ob[v], z2.at_ob[v], ob, mor, name=f"iso@{v}")
        for v, (ob, mor) in solution.items()
    }
    bwd_comps = {v: inverse_functor(fwd_comps[v], f"osi@{v}") for v in solution}
    fwd = validate_diagram_mor(z1, z2, fwd_comps, name=f"diso[{z1.name}->{z2.name}]")
    bwd = validate_diagram_mor(z2, z1, bwd_comps, name=f"diso[{z2.name}->{z1.name}]")
    return SearchResult(FOUND, verify_diagram_iso(fwd, bwd), b.used)
