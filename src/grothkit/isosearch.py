"""Backtracking search for strict isomorphisms of categories, over a base, and of diagrams.

Outcomes are tri-state: a verified witness, a proof of absence, or a budget
overrun.  Before the first node, both categories are compared by invariants
that every isomorphism preserves (counts, hom-set sizes, then refined object
and morphism classes), seeded by the two projections in a search over a
base.  Each category is coloured on its own, with names that depend only on
the category and the seed, and its colouring is kept in its cache with the
tables the search reads, so a category searched again, against any partner,
is not coloured again.  A class of different sizes on the two sides proves
absence outright; otherwise only candidates of equal colour are tried, and
an object alone in its class takes its one candidate at once.  This removes
no isomorphism sought, so a search that runs dry is still a proof of
absence.  A node is one candidate tried for an object or for a morphism with
two or more candidates of its colour; a candidate already taken as another
image is passed over without one, and the other morphisms are forced moves.
Budgets count nodes, not the colouring work or the forced moves, and are
shared across the components of compound searches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator

from .fincat import (
    CatDiagram,
    FinCat,
    FunctorData,
    IsoWitness,
    category_iso_of_tables,
    diagram_iso_of_tables,
    first_disagreement,
)
from .report import Report, UsageError, ValidationError

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


def _power_cycles(c: FinCat) -> dict[str, tuple[int, int]]:
    """(index, period) of the powers m, m∘m, m∘m∘m, … of every endomorphism m.

    An identity's is (0, 1).  One walk of m gives those of all its powers:
    if m has index i and period r, m^k has index ⌊i/k⌋ and period r/gcd(r, k).
    """
    cycles = {m: (0, 1) for m in c.identity.values()}
    for x in c.objects:
        for m in c.hom_table[(x, x)]:
            if m not in cycles:
                seen: dict[str, int] = {}  # m^k -> k - 1
                p = m
                while p not in seen:
                    seen[p] = len(seen)
                    p = c.comp[(m, p)]
                i, r = seen[p], len(seen) - seen[p]
                for k, p in enumerate(seen, 1):
                    cycles.setdefault(p, (i // k, r // gcd(r, k)))
    return cycles


def _into(c: FinCat) -> dict[str, list[str]]:
    """For every object x, the morphisms with target x, in listing order."""
    into: dict[str, list[str]] = {x: [] for x in c.objects}
    for m in c.mors:
        into[c.tgt[m]].append(m)
    return into


def _colour(cat: FinCat, seed: FunctorData | None) -> tuple:
    """Colour the objects and then the morphisms of cat by invariants of strict
    isomorphisms, seeded by the projection `seed` or by nothing.

    Returns (records, (object colours, morphism colours), search tables).  A
    record lists the hom-set sizes, the keys of one round, or the morphism
    colours, in sorted order.  Each object keeps its links: one (index of y,
    code) for every y with a morphism either way, x itself included, where
    the code is |hom(x,y)| * span + |hom(y,x)| for a span above every
    hom-set size.  Object colours start from |hom(x,x)| and, seeded, the
    place of seed(x) among the base's sorted objects.  A round keys each x
    by (colour(x), the sorted colour(y) * span² + code of its links) and
    renames each class by the rank of its key among the distinct keys, so
    the names depend on the keys alone, not on the listing order.  Rounds go
    on until one splits no class; that round is recorded too, so the classes
    are stable: the members of a class have as many links of each code into
    each class.  A morphism's colour is one int whose digits, each below its
    radix, are its number of factorizations, for an endomorphism the index
    and period of its powers (0 for any other), the colours of its ends,
    whether it is an identity and, seeded, the place of seed(m) among the
    base's sorted morphisms.
    Equal hom-set sizes and object records give two categories the same
    radices.  The search tables, read by `iter_iso_tables` on either side,
    are the objects of each colour (a class of one as its object), the
    objects alone in their class, the others by class size, each in listing
    order, and for a cat with a wide source the morphism of each colour
    (None if shared) and `_into(cat)`.
    """
    hom = cat.hom_table
    sizes = sorted(map(len, hom.values()))
    span = 1 + (sizes[-1] if sizes else 0)  # above every hom-set size
    at = {x: i for i, x in enumerate(cat.objects)}
    links: list[list[tuple[int, int]]] = [[] for _ in at]
    for (x, y), ms in hom.items():
        back = hom.get((y, x))
        if back is None:
            links[at[x]].append((at[y], len(ms) * span))
            links[at[y]].append((at[x], len(ms)))
        else:
            links[at[x]].append((at[y], len(ms) * span + len(back)))
    col = [len(hom[(x, x)]) for x in cat.objects]
    if seed is not None:
        place = {u: i for i, u in enumerate(sorted(seed.cod.objects))}
        col = [k * len(place) + place[seed.ob_map[x]] for k, x in zip(col, cat.objects)]
    rounds, square, classes = [], span * span, len(set(col))
    while True:
        lifted = [k * square for k in col]
        keys = [(col[i], *sorted([lifted[j] + code for j, code in near])) for i, near in enumerate(links)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rounds.append(tuple(map(keys.__getitem__, order)))
        rank, last = -1, None
        for i in order:  # each object's rank among the distinct keys
            if keys[i] != last:
                rank, last = rank + 1, keys[i]
            col[i] = rank
        if rank + 1 == classes:  # no class split: the classes are stable
            break
        classes = rank + 1

    # a morphism's colour has the digits (factorizations, index, period) above those of
    # (source, target, identity), whose radix is `low`; every power of an endomorphism of x
    # lies in hom(x, x), so span bounds its index and period
    ob, fact, cycles = dict(zip(cat.objects, col)), cat.factorizations, _power_cycles(cat)
    ends, low = 2 * classes, 2 * classes * classes
    mor: dict[str, int] = {}
    for (x, y), ms in hom.items():
        end = ob[x] * ends + ob[y] * 2
        if x != y:
            for m in ms:
                mor[m] = len(fact[m]) * square * low + end
        else:
            identity = cat.identity[x]
            for m in ms:
                i, r = cycles[m]
                mor[m] = ((len(fact[m]) * span + i) * span + r) * low + end + (m == identity)
    if seed is not None:
        lies = {h: i for i, h in enumerate(sorted(seed.cod.mors))}
        mor = {m: k * len(lies) + lies[seed.mor_map[m]] for m, k in mor.items()}
    members: list = [[] for _ in range(classes)]
    for x, k in zip(cat.objects, col):
        members[k].append(x)
    by_size = sorted(cat.objects, key=lambda x: len(members[ob[x]]))
    alone = sum(len(xs) == 1 for xs in members)  # the objects alone in their class lead `by_size`
    members = [xs[0] if len(xs) == 1 else xs for xs in members]  # a class of one keeps its object, not a list
    single: dict[int, str | None] = {}  # in a thin category a hom-set is the one candidate already
    for m, k in mor.items() if cat.wide_sources else ():
        single[k] = None if k in single else m
    tables = members, by_size[:alone], by_size[alone:], single, _into(cat) if cat.wide_sources else {}
    return (sizes, tuple(rounds), sorted(mor.values())), (ob, mor), tables


def _colouring(cat: FinCat, seed: FunctorData | None) -> tuple:
    """`_colour(cat, seed)`, computed once and kept in cat.cache under ("colouring", seed)."""
    key = ("colouring", seed)
    if key not in cat.cache:
        cat.cache[key] = _colour(cat, seed)
    return cat.cache[key]


def _refine(c: FinCat, d: FinCat, over: tuple | None = None) -> tuple[str | None, tuple | None]:
    """Tell c and d apart by invariants that every isomorphism c -> d preserves or,
    with `over=(p, q)`, projections of c and d into one base, every one with q∘iso = p.

    Returns (refuted_by, colours).  `refuted_by` names the first invariant
    that differs: the object count, the morphism count, then the records of
    `_colouring`, seeded by p and q: the sorted hom-set sizes, the object
    rounds and the morphisms; or it is None, and then `colours` is ((objects
    of c, morphisms of c), (objects of d, morphisms of d)), each a map to
    colours that the isomorphisms sought preserve.

    Comparing the records decides what refining the colours on the disjoint
    union of c and d decides, with the same classes.  Equal hom-set sizes
    give equal spans.  While the records of the rounds so far agree, c and d
    name each class of the union alike, so their next keys are the union's,
    and the records of that round agree exactly when each of its classes has
    as many members in c as in d.  A class with more members on one side
    refutes the pair, and splits only into classes of which one again has more.
    """
    if len(c.objects) != len(d.objects):
        return "object count", None
    if len(c.mors) != len(d.mors):
        return "morphism count", None
    p, q = over or (None, None)
    (sizes_c, obs_c, mors_c), colours_c, _ = _colouring(c, p)
    (sizes_d, obs_d, mors_d), colours_d, _ = _colouring(d, q)
    if sizes_c != sizes_d:
        return "hom-set sizes", None
    if obs_c != obs_d:
        return "object classes", None
    if mors_c != mors_d:
        return "morphism classes", None
    return None, (colours_c, colours_d)


def _order(items: list, rng: random.Random | None) -> list:
    if rng is not None:
        items = list(items)
        rng.shuffle(items)
    return items


def _backtrack(slots: list, options: Callable, fits: Callable, budget: Budget, assigned: dict,
               used: set | None = None) -> Iterator[dict]:
    """Yield `assigned` each time it gives every slot a value, depth first.

    `options(slot)` lists a slot's candidates when the search reaches it.
    Each one is passed over if it is in `used` (when given); otherwise it is
    tried: a node, which ticks the budget, and kept if `fits(slot)` holds with
    it assigned.  The stack holds one candidate iterator per slot reached, so
    Python's stack depth stays the same however many slots there are.
    """
    stack: list[Iterator] = []
    while True:
        if len(stack) == len(slots):
            yield assigned
        else:
            stack.append(iter(options(slots[len(stack)])))
        while stack:  # move the deepest slot on to its next candidate that fits
            slot = slots[len(stack) - 1]
            if used is not None and slot in assigned:
                used.discard(assigned[slot])
            for value in stack[-1]:
                if used is not None and value in used:
                    continue
                budget.tick()
                assigned[slot] = value
                if fits(slot):
                    if used is not None:
                        used.add(value)
                    break
            else:
                assigned.pop(slot, None)
                stack.pop()
                continue
            break
        else:
            return


def iter_iso_tables(
    c: FinCat,
    d: FinCat,
    budget: Budget,
    over: tuple[FunctorData, FunctorData] | None = None,
    rng: random.Random | None = None,
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Yield every (ob_map, mor_map) pair describing a strict iso c -> d.

    With `over=(p, q)`, projections into one base, it yields those with
    q∘iso = p: `_refine` seeds the colours with p and q, so each candidate
    lies in its source's fibre.  The enumeration is exhaustive, so running
    the generator dry proves there is no such isomorphism; when an invariant
    of `_refine`, seeded or not, proves it before the first node,
    `budget.refuted_by` names the invariant.
    Objects are placed first: those alone in their class at once, a node
    each, then each other one on d's objects of its colour in listing order,
    kept when |hom| both ways to each placed object of a shared class equals
    that between the images.  That fixes the identities' images and, as forced
    moves, those of the morphisms with one candidate of their colour; they are
    checked but take no node, so the work stays within the budget times
    |mors|.  The other morphisms are backtracked over.  Raises
    BudgetExceeded when the node budget runs out.
    """
    refuted_by, _ = _refine(c, d, over)
    if refuted_by is not None:
        budget.refuted_by = refuted_by
        return
    p, q = over or (None, None)
    _, (ob_c, mor_c), (_, alone, shared, _, into) = _colouring(c, p)
    _, (_, mor_d), (of_colour, _, _, single, _) = _colouring(d, q)
    hom_c, hom_d, fact = c.hom_table, d.hom_table, c.factorizations
    ob_map: dict[str, str] = {}
    mor_map: dict[str, str] = {}
    wide: set[str] = set()

    def hom_sizes_agree(x: str) -> bool:
        # |hom| both ways between x and each placed y must equal that between their
        # images u and v.  Equal records of a stable colouring give x and u the same
        # links to each class, so x's one link to a y alone in its class and u's to y's
        # image have one code, and |hom(x, x)| is in x's colour: only the placed objects
        # of shared classes other than x, the slots before x, are compared
        u = ob_map[x]
        for y in shared:
            if y == x:
                return True
            v = ob_map[y]
            if (len(hom_c.get((x, y), ())) != len(hom_d.get((u, v), ()))
                    or len(hom_c.get((y, x), ())) != len(hom_d.get((v, u), ()))):
                return False
        return True

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
        for g, f in fact[m]:
            if g in mor_map and f in mor_map:
                if d.comp[(mor_map[g], mor_map[f])] != n:
                    return False
        return True

    for x in alone:  # one node each, as `_backtrack` would take
        budget.tick()
        ob_map[x] = of_colour[ob_c[x]]
    for _ in _backtrack(shared, lambda x: _order(of_colour[ob_c[x]], rng), hom_sizes_agree, budget, ob_map, set()):
        mor_map = {c.identity[x]: d.identity[u] for x, u in ob_map.items()}
        # with no wide image every constraint holds by its boundary
        wide = {x for x, u in ob_map.items() if u in d.wide_sources}
        used = set(mor_map.values())
        branching: dict[str, list[str]] = {}
        for m in c.mors:
            if m in mor_map:  # an identity, the one kind mapped before its turn
                continue
            k, s, t = mor_c[m], ob_map[c.src[m]], ob_map[c.tgt[m]]
            n = single.get(k)  # d's one morphism of m's colour, if d is wide and it has one
            options = hom_d.get((s, t), ()) if n is None else (n,) if (d.src[n], d.tgt[n]) == (s, t) else ()
            if len(options) > 1:
                options = [o for o in options if mor_d[o] == k]
                if len(options) > 1:
                    branching[m] = options
                    continue
            if not options or mor_d[options[0]] != k or options[0] in used:
                break
            n = mor_map[m] = options[0]  # a forced move
            if wide and not consistent(m):
                break
            used.add(n)
        else:
            for _ in _backtrack(list(branching), lambda m: _order(branching[m], rng), consistent, budget, mor_map, used):
                yield dict(ob_map), dict(mor_map)


def _first(budget: Budget, solutions: Iterator, witness: Callable[[object], IsoWitness]) -> SearchResult:
    """FOUND with the verified witness of the first solution, NONE if there is none, or BUDGET."""
    try:
        solution = next(solutions, None)
    except BudgetExceeded:
        return SearchResult(BUDGET, None, budget.used)
    if solution is None:
        return SearchResult(NONE, None, budget.used, budget.refuted_by)
    return SearchResult(FOUND, witness(solution), budget.used)


def iso_search(
    c: FinCat,
    d: FinCat,
    budget: int = DEFAULT_BUDGET,
    rng: random.Random | None = None,
) -> SearchResult:
    """Search for a strict isomorphism of categories; witnesses are machine-checked."""
    b = Budget(budget)
    names = f"iso[{c.name}->{d.name}]", f"iso[{d.name}->{c.name}]"
    return _first(b, iter_iso_tables(c, d, b, rng=rng),
                  lambda tables: category_iso_of_tables(c, d, *tables, "category-iso", names))


def over_base_iso_search(
    total1: FinCat,
    proj1: FunctorData,
    total2: FinCat,
    proj2: FunctorData,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Search for a strict iso of total categories commuting with the projections."""
    if not (proj1.dom.tables_equal(total1) and proj2.dom.tables_equal(total2)):
        raise UsageError("a projection does not start at its total")
    if not proj1.cod.tables_equal(proj2.cod):
        raise UsageError("projections do not share a base")
    b = Budget(budget)
    names = f"iso[{total1.name}->{total2.name}]", f"iso[{total2.name}->{total1.name}]"

    def witness(tables) -> IsoWitness:
        found = category_iso_of_tables(total1, total2, *tables, "over-base-iso", names)
        bad = first_disagreement((proj2, found.forward), (proj1,))  # the claim: proj2∘forward = proj1
        if bad is not None:
            rep = Report(f"over-base iso {names[0]}")
            rep.fail("over-base", f"proj2∘forward and proj1 differ on {bad[0]} {bad[1]}")
            raise ValidationError(rep)
        return found

    return _first(b, iter_iso_tables(total1, total2, b, (proj1, proj2)), witness)


def diagram_iso_search(z1: CatDiagram, z2: CatDiagram, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for a strict natural isomorphism of Cat-valued diagrams.

    Per base object this enumerates category isos between the fibres, then
    backtracks across the base checking every naturality square strictly.
    """
    if not z1.base.tables_equal(z2.base):
        raise UsageError("diagrams do not share a base")
    base = z1.base
    b = Budget(budget)
    into = _into(base)
    assigned: dict[str, FunctorData] = {}

    def squares_ok(v: str) -> bool:
        # the squares of the base morphisms out of and into v with both ends assigned, each once;
        # Z(id_v) is the identity functor in both diagrams, so the square of id_v commutes
        for h in dict.fromkeys((*base.out(v), *into[v])):
            a, z = base.src[h], base.tgt[h]
            if h != base.identity[v] and a in assigned and z in assigned and first_disagreement(
                    (z2.at_mor[h], assigned[a]), (assigned[z], z1.at_mor[h])) is not None:
                return False
        return True

    def solutions() -> Iterator[dict]:
        candidates: dict[str, list[FunctorData]] = {}
        for v in base.objects:
            c, d = z1.at_ob[v], z2.at_ob[v]
            candidates[v] = [FunctorData(f"iso@{v}", c, d, *tables) for tables in iter_iso_tables(c, d, b)]
            if not candidates[v]:
                return
        order = sorted(base.objects, key=lambda v: len(candidates[v]))
        yield from _backtrack(order, candidates.__getitem__, squares_ok, b, assigned)

    return _first(b, solutions(),
                  lambda sigma: diagram_iso_of_tables(z1, z2, {v: (f.ob_map, f.mor_map) for v, f in sigma.items()}))
