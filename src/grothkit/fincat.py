"""Finite categories, functors, natural transformations, and Cat-valued diagrams.

Everything is a plain lookup table: a category is a total composition table
over named objects and morphisms, a functor is a pair of total maps, and so
on.  Validators decide every law exactly and report each violation with a
concrete witness.  Values are immutable after validation.

Only finite categories are supported; see the README for the consequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

from .report import Report, UsageError, ValidationError


def id_name(obj: str) -> str:
    """Canonical identity-morphism name; every construction in this package uses it."""
    return "id_" + obj


def pair_id(a: str, b: str) -> str:
    """Canonical name for a pair, used for products, pullbacks and totals."""
    return f"({a},{b})"


def name_owners(names: Mapping[tuple, str], what: str) -> dict[str, tuple]:
    """The inverse of a naming table.  Raises UsageError naming two keys that share a
    name, which pair_id allows: ("x", "a,b") and ("x,a", "b") are both "(x,a,b)"."""
    owners = {n: k for k, n in names.items()}  # a shared name keeps its last key
    if len(owners) != len(names):
        k, n = next((k, n) for k, n in names.items() if owners[n] != k)
        raise UsageError(f"{what}: {k!r} and {owners[n]!r} are both named {n!r}")
    return owners


def pair_mor_id(c: FinCat, d: FinCat, f: str, g: str) -> str:
    """Name of the morphism (f, g) of a product or pullback of c and d.

    A pair of identities is the identity of the pair of their objects.
    """
    if c.is_identity(f) and d.is_identity(g):
        return id_name(pair_id(c.src[f], d.src[g]))
    return pair_id(f, g)


# ---------------------------------------------------------------------------
# FinCat


@dataclass(frozen=True, eq=False)
class FinCat:
    """A finite category as explicit tables.

    `comp[(g, f)]` is the composite g∘f, defined exactly when tgt(f) = src(g).
    """

    name: str
    objects: tuple[str, ...]
    mors: tuple[str, ...]
    src: Mapping[str, str]
    tgt: Mapping[str, str]
    identity: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]
    # derived lookups, filled by validate_category
    hom_table: Mapping[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    out_table: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    # the objects x with some hom(x, y) of two or more morphisms; an equation
    # between two morphisms out of any other object holds by their boundary
    wide_sources: frozenset[str] = frozenset()
    # lookups derived on first read: "generators", "factorizations", keyed by
    # ("opposite", name) the opposite category build.opposite makes under that name,
    # and keyed by ("colouring", seed) isosearch's colour records, classes and search
    # tables, seeded by the projection `seed` or by None; a copy made by dataclasses.replace
    # shares this dict, hence the name in the opposite's key (colourings name no category)
    cache: dict = field(default_factory=dict, repr=False)

    # -- basic queries ------------------------------------------------------

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_table.get((x, y), ())

    def out(self, x: str) -> tuple[str, ...]:
        """Morphisms with source x, in listing order."""
        return self.out_table.get(x, ())

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src[m]) == m

    def non_identity_mors(self) -> tuple[str, ...]:
        return tuple(m for m in self.mors if not self.is_identity(m))

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """All (g, f) with tgt(f) = src(g), f-major in listing order.

        Walks the outgoing-morphism index, so the cost is proportional to
        the number of composable pairs, not to the square of |mors|.
        """
        for f in self.mors:
            for g in self.out_table[self.tgt[f]]:
                yield g, f

    @property
    def factorizations(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """The pairs (g, f) with g∘f = m, for each morphism m, in composable_pairs order."""
        if "factorizations" not in self.cache:
            pairs: dict[str, list[tuple[str, str]]] = {m: [] for m in self.mors}
            for key in self.composable_pairs():
                pairs[self.comp[key]].append(key)
            self.cache["factorizations"] = {m: tuple(v) for m, v in pairs.items()}
        return self.cache["factorizations"]

    def generators(self) -> Mapping[str, tuple[str, ...]]:
        """A generating set S under composition, as the members of S out of each object:
        the irreducible non-identity morphisms (no composite of two non-identities), then,
        in listing order, each morphism that the composites of S do not reach yet.  A law
        over composable pairs (h, x) that identities satisfy, and a composite a∘b whenever
        a and b do, holds for every h once it holds for every h in S."""
        if "generators" not in self.cache:
            ids, src, tgt, comp = set(self.identity.values()), self.src, self.tgt, self.comp
            non_ids = [m for m in self.mors if m not in ids]
            reducible = {comp[(g, f)] for f in non_ids for g in self.out_table[tgt[f]] if g not in ids}
            members: dict[str, list[str]] = {x: [] for x in self.objects}
            reached, ending_at = set(ids), {x: [] for x in self.objects}
            # an irreducible morphism is reached only as a member of S
            for m in [m for m in non_ids if m not in reducible] + non_ids:
                if m in reached:
                    continue
                members[src[m]].append(m)
                todo = [m] + [comp[(m, r)] for r in ending_at[src[m]]]
                while todo:  # the new words of S, m∘r and then members of S composed on the left
                    r = todo.pop()
                    if r not in reached:
                        reached.add(r)
                        ending_at[tgt[r]].append(r)
                        todo += [comp[(s, r)] for s in members[tgt[r]]]
            self.cache["generators"] = {x: tuple(v) for x, v in members.items()}
        return self.cache["generators"]

    def inverse(self, m: str) -> str | None:
        """Two-sided inverse of m, or None."""
        x, y = self.src[m], self.tgt[m]
        for n in self.hom(y, x):
            if self.comp[(n, m)] == self.identity[x] and self.comp[(m, n)] == self.identity[y]:
                return n
        return None

    def is_discrete(self) -> bool:
        return all(self.is_identity(m) for m in self.mors)

    # -- structural comparison ---------------------------------------------

    def canonical_key(self):
        return (
            tuple(sorted(self.objects)),
            tuple(sorted(self.mors)),
            tuple(sorted(self.src.items())),
            tuple(sorted(self.tgt.items())),
            tuple(sorted(self.identity.items())),
            tuple(sorted(self.comp.items())),
        )

    def tables_equal(self, other: "FinCat") -> bool:
        """Table equality up to listing order (names of entities aside).

        Agrees with comparing canonical_key()s, since identifiers are unique
        after validation, but compares the tables in place instead of sorting
        copies; the keys of src are the morphisms; an instance equals itself.
        """
        return self is other or (
            set(self.objects) == set(other.objects)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.identity == other.identity
            and self.comp == other.comp
        )

    def __repr__(self) -> str:
        return f"FinCat({self.name!r}, {len(self.objects)} objects, {len(self.mors)} morphisms)"


def validate_category(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    identity: Mapping[str, str],
    comp: Mapping[tuple[str, str], str],
    name: str = "category",
) -> FinCat:
    """Check raw tables against every category law; raise with every violation
    of the first law group that fails.

    `arrows` lists (morphism, src, tgt) triples.  Each law group is decided
    exactly and the report names a concrete witness per violation.  The
    composition laws walk an index of outgoing morphisms, so their cost is
    proportional to the number of composable pairs, not to |mors|².
    Associativity is decided on the triples (h, g, f) with h a generator and
    src f in `wide_sources` (see law_failures).
    """
    rep = Report(f"validate category {name}")
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        rep.fail("object-names-unique", "duplicate object identifier")
    mors = tuple(a[0] for a in arrows)
    if len(set(mors)) != len(mors):
        rep.fail("morphism-names-unique", "duplicate morphism identifier")
    src = {m: s for m, s, _ in arrows}
    tgt = {m: t for m, _, t in arrows}

    dangling = [m for m, s, t in arrows if s not in obj_set or t not in obj_set]
    for m in dangling:
        rep.fail("dangling-identifier", f"morphism {m}: {src[m]} -> {tgt[m]} uses undeclared object")
    for x in objects:
        if x not in identity:
            rep.fail("identity-total", f"no identity declared for object {x}")
        elif identity[x] not in src:
            rep.fail("dangling-identifier", f"identity of {x} is undeclared morphism {identity[x]}")
    if not rep.passed:
        raise ValidationError(rep)

    for x in objects:
        i = identity[x]
        if src[i] != x or tgt[i] != x:
            rep.fail("identity-endo", f"identity {i} of {x} has boundary {src[i]} -> {tgt[i]}")

    out: dict[str, list[str]] = {x: [] for x in objects}
    hom: dict[tuple[str, str], list[str]] = {}
    for m in mors:
        out[src[m]].append(m)
        hom.setdefault((src[m], tgt[m]), []).append(m)

    # one pass over the composable pairs, f-major: then[f][g] = g∘f, failures
    # (f, g, law, message) in scan order; comp itself is scanned only when the
    # pass misses one of its entries or reaches an undeclared value
    then: dict[str, dict[str, str]] = {}
    failures: list[tuple[str, str, str, str]] = []
    complete = True
    for f in mors:
        row = then[f] = {}
        src_f = src[f]
        for g in out[tgt[f]]:
            key = (g, f)
            h = comp.get(key)
            if h is None:
                failures.append((f, g, "composition-total", f"missing composite {g}∘{f}"))
                continue
            row[g] = h
            src_h = src.get(h)
            if src_h is None:
                complete = False
            elif src_h != src_f or tgt[h] != tgt[g]:
                failures.append((
                    f, g, "composition-boundary",
                    f"{g}∘{f} = {h} has boundary {src[h]} -> {tgt[h]}, expected {src[f]} -> {tgt[g]}",
                ))
    complete = complete and sum(map(len, then.values())) == len(comp)
    if not complete:
        for (g, f), h in comp.items():
            if g not in src or f not in src or h not in src:
                rep.fail("dangling-identifier", f"compose entry ({g},{f}) = {h} uses undeclared morphism")
    if not rep.passed:
        raise ValidationError(rep)

    if not complete:
        pos = {m: i for i, m in enumerate(mors)}
        failures += [(f, g, "composition-domain", f"entry for non-composable pair ({g},{f})")
                     for g, f in comp if src[g] != tgt[f]]
        failures.sort(key=lambda fail: (pos[fail[0]], pos[fail[1]]))
    for _, _, law, message in failures:
        rep.fail(law, message)
    if not rep.passed:
        raise ValidationError(rep)

    for f in mors:
        left = then[f][identity[tgt[f]]]
        if left != f:
            rep.fail("identity-law", f"{identity[tgt[f]]}∘{f} = {left}, expected {f}")
        right = then[identity[src[f]]][f]
        if right != f:
            rep.fail("identity-law", f"{f}∘{identity[src[f]]} = {right}, expected {f}")

    wide = frozenset(x for (x, _), ms in hom.items() if len(ms) > 1)
    cat = FinCat(
        name=name,
        objects=tuple(objects),
        mors=mors,
        src=src,
        tgt=tgt,
        identity=dict(identity),
        comp=dict(comp),
        hom_table={k: tuple(v) for k, v in hom.items()},
        out_table={x: tuple(v) for x, v in out.items()},
        wide_sources=wide,
    )

    def associativity(outer: Mapping[str, Sequence[str]]) -> Iterator[str]:
        for f in mors:
            if src[f] not in wide:
                continue  # h∘(g∘f) and (h∘g)∘f lie in a one-morphism hom(src f, tgt h)
            then_f = then[f]
            for g, gf in then_f.items():
                then_g, then_gf = then[g], then[gf]
                for h in outer[tgt[g]]:
                    h_gf, hg_f = then_gf[h], then_f[then_g[h]]
                    if h_gf != hg_f:
                        yield f"({h}∘{g})∘{f} = {hg_f} but {h}∘({g}∘{f}) = {h_gf}"

    if wide:
        for message in law_failures(cat, associativity, exact=rep.passed):
            rep.fail("associativity", message)
    if not rep.passed:
        raise ValidationError(rep)
    return cat


def law_failures(cat: FinCat, scan: Callable[[Mapping[str, Sequence[str]]], Iterator[str]],
                 exact: bool = True) -> Iterator[str]:
    """The violations that `scan(outer)` yields for a law over the composable pairs of cat
    whose outer morphism lies in outer[its source].  When `exact` (identities satisfy the
    law, and a composite does whenever its parts do), a pass over FinCat.generators()
    decides; otherwise, or on a violation, every violation comes from a full scan."""
    if exact and next(scan(cat.generators()), None) is None:
        return iter(())
    return scan(cat.out_table)


def square_verdicts(cat: FinCat, square: Callable[[str], str | None]) -> dict[str, str | None]:
    """square(h), the violation of a naturality law at h or None, at each morphism h of cat in
    listing order.  Between validated functors and strict diagrams an identity's square holds
    and a composite's square is the pasting of its parts', so the squares at the members of
    FinCat.generators() decide and every other h is recorded as passed; every square is
    checked only when one of those fails."""
    if all(square(h) is None for members in cat.generators().values() for h in members):
        return dict.fromkeys(cat.mors)
    return {h: square(h) for h in cat.mors}


def make_category(
    name: str,
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    comp: Mapping[tuple[str, str], str],
) -> FinCat:
    """Build a category whose identities follow the id_<object> convention.

    Identity morphisms and identity-composition entries are synthesized;
    `comp` needs only the composites of non-identity pairs.
    """
    identity = {x: id_name(x) for x in objects}
    all_arrows = [(id_name(x), x, x) for x in objects] + list(arrows)
    full: dict[tuple[str, str], str] = dict(comp)
    for m, s, t in all_arrows:
        # dangling boundaries are left for validate_category to report
        if t in identity:
            full[(identity[t], m)] = m
        if s in identity:
            full[(m, identity[s])] = m
    return validate_category(objects, all_arrows, identity, full, name=name)


# ---------------------------------------------------------------------------
# FunctorData


@dataclass(frozen=True, eq=False)
class FunctorData:
    """A functor between finite categories, given by total object/morphism maps."""

    name: str
    dom: FinCat
    cod: FinCat
    ob_map: Mapping[str, str]
    mor_map: Mapping[str, str]

    def ob(self, x: str) -> str:
        return self.ob_map[x]

    def mor(self, m: str) -> str:
        return self.mor_map[m]

    def tables_equal(self, other: "FunctorData") -> bool:
        return (
            self.dom.tables_equal(other.dom)
            and self.cod.tables_equal(other.cod)
            and first_disagreement((self,), (other,)) is None
        )

    def is_identity_functor(self) -> bool:
        return self.dom.tables_equal(self.cod) and first_disagreement((self,), ()) is None

    def __repr__(self) -> str:
        return f"FunctorData({self.name!r}: {self.dom.name} -> {self.cod.name})"


def validate_functor(
    dom: FinCat,
    cod: FinCat,
    ob_map: Mapping[str, str],
    mor_map: Mapping[str, str],
    name: str = "functor",
) -> FunctorData:
    rep = Report(f"validate functor {name}")
    cod_objects = set(cod.objects)
    for x in dom.objects:
        if x not in ob_map:
            rep.fail("object-map-total", f"no image for object {x}")
        elif ob_map[x] not in cod_objects:
            rep.fail("dangling-identifier", f"object image {ob_map[x]} not in codomain")
    cod_mors = set(cod.mors)
    for m in dom.mors:
        if m not in mor_map:
            rep.fail("morphism-map-total", f"no image for morphism {m}")
        elif mor_map[m] not in cod_mors:
            rep.fail("dangling-identifier", f"morphism image {mor_map[m]} not in codomain")
    if not rep.passed:
        raise ValidationError(rep)

    for m in dom.mors:
        n = mor_map[m]
        if cod.src[n] != ob_map[dom.src[m]] or cod.tgt[n] != ob_map[dom.tgt[m]]:
            rep.fail(
                "boundary-preserved",
                f"image of {m}: {dom.src[m]} -> {dom.tgt[m]} is {n}: {cod.src[n]} -> {cod.tgt[n]}",
            )
    for x in dom.objects:
        if mor_map.get(dom.identity[x]) != cod.identity.get(ob_map.get(x, "")):
            rep.fail("identities-preserved", f"image of id at {x} is {mor_map.get(dom.identity[x])}")
    if not rep.passed:
        raise ValidationError(rep)

    def preserved(outer: Mapping[str, Sequence[str]]) -> Iterator[str]:
        for f in dom.mors:
            if ob_map[dom.src[f]] not in cod.wide_sources:
                continue  # both sides lie in a one-morphism hom(F src f, F tgt g)
            for g in outer[dom.tgt[f]]:
                lhs = mor_map[dom.comp[(g, f)]]
                rhs = cod.comp[(mor_map[g], mor_map[f])]
                if lhs != rhs:
                    yield f"image of {g}∘{f} is {lhs}, but images compose to {rhs}"

    if cod.wide_sources:
        for message in law_failures(dom, preserved):
            rep.fail("composition-preserved", message)
    if not rep.passed:
        raise ValidationError(rep)
    return FunctorData(name, dom, cod, dict(ob_map), dict(mor_map))


def first_disagreement(left: Sequence[FunctorData], right: Sequence[FunctorData]) -> tuple[str, str] | None:
    """Where the composites of two parallel paths of functors first differ, in the
    listing order of the domain of the functor that `left` applies first:
    ("object", x) or ("morphism", m); None when they agree.

    A path lists its functors in composition order, so g∘f is (g, f) and () is
    the identity.  Raises UsageError on a path that does not compose.
    """
    if len(left) == len(right) == 1 and left[0].ob_map == right[0].ob_map and left[0].mor_map == right[0].mor_map:
        return None
    if not (left or right):
        return None
    dom = (left or right)[-1].dom
    images = []
    for path in (left, right):
        obs, mors, inner = dom.objects, dom.mors, None
        for f in reversed(path):
            if inner is not None and not f.dom.tables_equal(inner.cod):
                raise UsageError(f"cannot compose {f.name} after {inner.name}: boundary mismatch")
            obs, mors, inner = map(f.ob_map.__getitem__, obs), map(f.mor_map.__getitem__, mors), f
        images.append((list(obs), list(mors)))
    for kind, entries, one, other in zip(("object", "morphism"), (dom.objects, dom.mors), *images):
        if one != other:
            return kind, next(x for x, a, b in zip(entries, one, other) if a != b)
    return None


def inverse_functor(f: FunctorData, name: str) -> FunctorData:
    """The validated inverse tables of a functor that is bijective on objects and morphisms."""
    return validate_functor(
        f.cod,
        f.dom,
        {v: k for k, v in f.ob_map.items()},
        {v: k for k, v in f.mor_map.items()},
        name=name,
    )


def identity_functor(c: FinCat) -> FunctorData:
    return FunctorData(f"id[{c.name}]", c, c, {x: x for x in c.objects}, {m: m for m in c.mors})


def compose_functors(g: FunctorData, f: FunctorData, name: str | None = None) -> FunctorData:
    """g∘f; the composite of valid functors needs no re-validation."""
    if not g.dom.tables_equal(f.cod):
        raise UsageError(f"cannot compose {g.name} after {f.name}: boundary mismatch")
    return FunctorData(
        name or f"{g.name}∘{f.name}",
        f.dom,
        g.cod,
        {x: g.ob_map[f.ob_map[x]] for x in f.dom.objects},
        {m: g.mor_map[f.mor_map[m]] for m in f.dom.mors},
    )


# ---------------------------------------------------------------------------
# categories of pairs: products and pullbacks


def pair_category(
    c: FinCat,
    d: FinCat,
    ob_pairs: Sequence[tuple[str, str]],
    mor_pairs: Sequence[tuple[str, str]],
    name: str,
) -> tuple[FinCat, dict, dict, dict, dict]:
    """The category of the listed pairs, composed componentwise, with its naming tables
    obj_of and mor_of and their inverses ob_pair and mor_pair; the pairs must be closed
    under boundaries and composites.  Two pairs that share a name raise UsageError.

    Objects, arrows and composites follow the listing order of the pairs.
    """
    obj_of = {xy: pair_id(*xy) for xy in ob_pairs}
    ob_pair = name_owners(obj_of, f"object name collision in {name}")
    c_ids, d_ids = set(c.identity.values()), set(d.identity.values())
    mor_of, arrows, starting_at = {}, [], {}
    non_ids: list[tuple[str, str, str, tuple[str, str]]] = []  # (f, g, name, target), listed
    for f, g in mor_pairs:
        source, target = (c.src[f], d.src[g]), (c.tgt[f], d.tgt[g])
        if f in c_ids and g in d_ids:
            mor_of[(f, g)] = id_name(obj_of[source])
            continue
        n = mor_of[(f, g)] = pair_id(f, g)
        arrows.append((n, obj_of[source], obj_of[target]))
        non_ids.append((f, g, n, target))
        starting_at.setdefault(source, []).append((f, g, n))
    mor_pair = name_owners(mor_of, f"morphism name collision in {name}")
    comp = {}
    for f1, g1, n1, target in non_ids:
        for f2, g2, n2 in starting_at.get(target, ()):
            comp[(n2, n1)] = mor_of[(c.comp[(f2, f1)], d.comp[(g2, g1)])]
    return make_category(name, list(obj_of.values()), arrows, comp), obj_of, mor_of, ob_pair, mor_pair


def pair_projections(
    p: FinCat,
    c: FinCat,
    d: FinCat,
    obj_of: Mapping[tuple[str, str], str],
    mor_of: Mapping[tuple[str, str], str],
    names: tuple[str, str],
) -> tuple[FunctorData, FunctorData]:
    """The validated projections of a pair_category p onto c and onto d, named `names`."""
    fst = validate_functor(
        p, c, {v: x for (x, _), v in obj_of.items()}, {n: f for (f, _), n in mor_of.items()}, name=names[0]
    )
    snd = validate_functor(
        p, d, {v: y for (_, y), v in obj_of.items()}, {n: g for (_, g), n in mor_of.items()}, name=names[1]
    )
    return fst, snd


# ---------------------------------------------------------------------------
# NatTransData


@dataclass(frozen=True, eq=False)
class NatTransData:
    """A natural transformation between parallel functors, one component per object."""

    name: str
    dom: FunctorData
    cod: FunctorData
    components: Mapping[str, str]

    def is_identity_nat(self) -> bool:
        c = self.dom.cod
        return all(c.is_identity(self.components[x]) for x in self.dom.dom.objects)

    def tables_equal(self, other: "NatTransData") -> bool:
        return (
            self.dom.tables_equal(other.dom)
            and self.cod.tables_equal(other.cod)
            and dict(self.components) == dict(other.components)
        )


def validate_nat_trans(
    dom: FunctorData,
    cod: FunctorData,
    components: Mapping[str, str],
    name: str = "nattrans",
) -> NatTransData:
    rep = Report(f"validate nattrans {name}")
    if not dom.dom.tables_equal(cod.dom):
        rep.fail("parallel-functors", "domain categories differ")
    if not dom.cod.tables_equal(cod.cod):
        rep.fail("parallel-functors", "codomain categories differ")
    if not rep.passed:
        raise ValidationError(rep)

    cat = dom.dom
    target = dom.cod
    target_mors = set(target.mors)
    for x in cat.objects:
        if x not in components:
            rep.fail("components-total", f"no component at {x}")
            continue
        m = components[x]
        if m not in target_mors:
            rep.fail("dangling-identifier", f"component at {x} is undeclared morphism {m}")
        elif target.src[m] != dom.ob_map[x] or target.tgt[m] != cod.ob_map[x]:
            rep.fail(
                "component-boundary",
                f"component at {x} is {m}: {target.src[m]} -> {target.tgt[m]}, "
                f"expected {dom.ob_map[x]} -> {cod.ob_map[x]}",
            )
    if not rep.passed:
        raise ValidationError(rep)

    def square(f: str) -> str | None:
        x, y = cat.src[f], cat.tgt[f]
        lhs = target.comp[(components[y], dom.mor_map[f])]
        rhs = target.comp[(cod.mor_map[f], components[x])]
        return None if lhs == rhs else (f"square at {f}: {components[y]}∘{dom.mor_map[f]} = {lhs} "
                                        f"but {cod.mor_map[f]}∘{components[x]} = {rhs}")

    for message in filter(None, square_verdicts(cat, square).values()):
        rep.fail("naturality", message)
    if not rep.passed:
        raise ValidationError(rep)
    return NatTransData(name, dom, cod, dict(components))


def identity_nat_trans(f: FunctorData) -> NatTransData:
    comps = {x: f.cod.identity[f.ob_map[x]] for x in f.dom.objects}
    return NatTransData(f"id[{f.name}]", f, f, comps)


# ---------------------------------------------------------------------------
# CatDiagram


@dataclass(frozen=True, eq=False)
class CatDiagram:
    """A strict Cat-valued diagram: a category per base object, a functor per base morphism."""

    name: str
    base: FinCat
    at_ob: Mapping[str, FinCat]
    at_mor: Mapping[str, FunctorData]

    def is_set_valued(self) -> bool:
        return all(c.is_discrete() for c in self.at_ob.values())

    def tables_equal(self, other: "CatDiagram") -> bool:
        return self is other or (
            self.base.tables_equal(other.base)
            and all(self.at_ob[x].tables_equal(other.at_ob[x]) for x in self.base.objects)
            and all(first_disagreement((self.at_mor[f],), (other.at_mor[f],)) is None for f in self.base.mors)
        )

    def __repr__(self) -> str:
        return f"CatDiagram({self.name!r} on {self.base.name})"


def validate_diagram(base: FinCat, at_ob: Mapping[str, FinCat], at_mor: Mapping[str, FunctorData],
                     name: str = "diagram") -> CatDiagram:
    return _diagram(base, at_ob, at_mor, name, None)


def _diagram(base: FinCat, at_ob: Mapping[str, FinCat], at_mor: Mapping[str, FunctorData], name: str,
             composed: set[tuple[str, str]] | None) -> CatDiagram:
    """validate_diagram; generated_diagram passes the pairs (s, r) it `composed` as Z(s)∘Z(r), and
    neither those pairs nor the identity functors it made each Z(id) are compared."""
    rep = Report(f"validate diagram {name}")
    for x in base.objects:
        if x not in at_ob:
            rep.fail("fibres-total", f"no category at {x}")
    for f in base.mors:
        if f not in at_mor:
            rep.fail("arrows-total", f"no functor at {f}")
    if not rep.passed:
        raise ValidationError(rep)

    for f in base.mors:
        t = at_mor[f]
        if not t.dom.tables_equal(at_ob[base.src[f]]) or not t.cod.tables_equal(at_ob[base.tgt[f]]):
            rep.fail("arrow-boundary", f"functor at {f} does not go {base.src[f]} fibre -> {base.tgt[f]} fibre")
    if not rep.passed:
        raise ValidationError(rep)

    for x in base.objects:
        if composed is None and not at_mor[base.identity[x]].is_identity_functor():
            rep.fail("strict-identity", f"functor at identity of {x} is not the identity functor")
    # once every Z(id) is the identity functor, a pair with an identity composes strictly
    ids = set(base.identity.values()) if rep.passed else ()
    composed = composed or ()

    def strict(outer: Mapping[str, Sequence[str]]) -> Iterator[str]:
        for f in base.mors:
            for g in outer[base.tgt[f]]:
                gf = base.comp[(g, f)]
                if (g not in ids and f not in ids and (g, f) not in composed
                        and first_disagreement((at_mor[g], at_mor[f]), (at_mor[gf],))):
                    yield f"functor at {gf} differs from composite over ({g},{f})"

    for message in law_failures(base, strict, exact=rep.passed):
        rep.fail("strict-composition", message)
    if not rep.passed:
        raise ValidationError(rep)
    return CatDiagram(name, base, dict(at_ob), dict(at_mor))


def generated_diagram(base: FinCat, at_ob: Mapping[str, FinCat], build: Callable[[str], FunctorData],
                      label: str, name: str) -> CatDiagram:
    """The strict diagram on base with categories at_ob that acts by build(s) at each member s
    of base.generators(), in listing order.  Z(id_x) is the identity functor on at_ob[x], named
    label(id_x): each caller's build(id_x) is the identity by a law it has already checked, so
    it is not built.  Any other m = s∘r (s a member, r reached before) acts by Z(s)∘Z(r), named
    label(m).  A diagram is fixed by its values on a generating set, so strict composition is
    decided, as in validate_diagram, on the generator pairs other than the pairs (s, r) composed
    here, where it holds by definition.  Raises KeyError on a morphism not reached."""
    members = base.generators()
    at = {i: replace(identity_functor(at_ob[x]), name=f"{label}({i})") for x, i in base.identity.items()}
    made = [s for s in base.mors if s in members[base.src[s]]]
    at.update((s, build(s)) for s in made)
    composed = set()
    for r in made:  # grows as it is walked, so every composite is composed on further
        for s in members[base.tgt[r]]:
            m = base.comp[(s, r)]
            if m not in at:
                at[m] = compose_functors(at[s], at[r], name=f"{label}({m})")
                composed.add((s, r))
                made.append(m)
    return _diagram(base, at_ob, {m: at[m] for m in base.mors}, name, composed)


# ---------------------------------------------------------------------------
# DiagramMor: strict morphisms of Cat-valued diagrams


@dataclass(frozen=True, eq=False)
class DiagramMor:
    """A strict morphism of diagrams over a shared base: one functor per base object."""

    name: str
    dom: CatDiagram
    cod: CatDiagram
    components: Mapping[str, FunctorData]

    def is_identity_mor(self) -> bool:
        return all(self.components[x].is_identity_functor() for x in self.dom.base.objects)


def validate_diagram_mor(
    dom: CatDiagram,
    cod: CatDiagram,
    components: Mapping[str, FunctorData],
    name: str = "dmor",
) -> DiagramMor:
    rep = Report(f"validate diagram morphism {name}")
    if not dom.base.tables_equal(cod.base):
        rep.fail("shared-base", "domain and codomain diagrams live on different bases")
        raise ValidationError(rep)
    for x in dom.base.objects:
        if x not in components:
            rep.fail("components-total", f"no component at {x}")
            continue
        t = components[x]
        if not t.dom.tables_equal(dom.at_ob[x]) or not t.cod.tables_equal(cod.at_ob[x]):
            rep.fail("component-boundary", f"component at {x} does not map fibre to fibre")
    if not rep.passed:
        raise ValidationError(rep)

    def square(h: str) -> str | None:
        a, b = dom.base.src[h], dom.base.tgt[h]
        bad = first_disagreement((cod.at_mor[h], components[a]), (components[b], dom.at_mor[h]))
        return None if bad is None else f"square at {h} does not commute strictly"

    for message in filter(None, square_verdicts(dom.base, square).values()):
        rep.fail("naturality", message)
    if not rep.passed:
        raise ValidationError(rep)
    return DiagramMor(name, dom, cod, dict(components))


def identity_diagram_mor(d: CatDiagram) -> DiagramMor:
    comps = {x: identity_functor(d.at_ob[x]) for x in d.base.objects}
    return DiagramMor(f"id[{d.name}]", d, d, comps)


def compose_diagram_mors(g: DiagramMor, f: DiagramMor, name: str | None = None) -> DiagramMor:
    comps = {x: compose_functors(g.components[x], f.components[x]) for x in f.dom.base.objects}
    return DiagramMor(name or f"{g.name}∘{f.name}", f.dom, g.cod, comps)


def reindex(d: CatDiagram, h: FunctorData, name: str | None = None) -> CatDiagram:
    """Precompose a diagram on A with a functor h: B -> A, giving a diagram on B."""
    if not h.cod.tables_equal(d.base):
        raise UsageError("reindexing functor does not land in the diagram base")
    return validate_diagram(
        h.dom,
        {b: d.at_ob[h.ob_map[b]] for b in h.dom.objects},
        {u: d.at_mor[h.mor_map[u]] for u in h.dom.mors},
        name=name or f"{d.name}∘{h.name}",
    )


# ---------------------------------------------------------------------------
# IsoWitness


@dataclass(frozen=True, eq=False)
class IsoWitness:
    """A machine-verified invertible comparison; `flavor` says at which level."""

    forward: object  # FunctorData | DiagramMor
    backward: object
    flavor: str  # "category-iso" | "over-base-iso" | "diagram-iso"

    def describe(self) -> str:
        fwd = getattr(self.forward, "name", "forward")
        return f"{self.flavor} witness {fwd}"


def verify_category_iso(fwd: FunctorData, bwd: FunctorData, flavor: str = "category-iso") -> IsoWitness:
    """Re-check that two functors compose to identities both ways."""
    rep = Report("verify category iso")
    for law, composite in (("backward∘forward", (bwd, fwd)), ("forward∘backward", (fwd, bwd))):
        if first_disagreement(composite, ()) is not None:
            rep.fail(law, "composite is not the identity functor")
    if not rep.passed:
        raise ValidationError(rep)
    return IsoWitness(fwd, bwd, flavor)


def category_iso_of_tables(c: FinCat, d: FinCat, ob_map: Mapping[str, str], mor_map: Mapping[str, str],
                           flavor: str, names: tuple[str, str]) -> IsoWitness:
    """Validate (ob_map, mor_map) as a functor c -> d named names[0], invert it as
    names[1], and verify that the two compose to identities both ways."""
    fwd = validate_functor(c, d, ob_map, mor_map, name=names[0])
    return verify_category_iso(fwd, inverse_functor(fwd, names[1]), flavor)


def diagram_iso_of_tables(
    z1: CatDiagram,
    z2: CatDiagram,
    tables: Mapping[str, tuple[Mapping[str, str], Mapping[str, str]]],
) -> IsoWitness:
    """Verify per-object (ob_map, mor_map) tables as a strict natural isomorphism z1 -> z2.

    Each component must be a category iso (category_iso_of_tables) and both
    families must be natural; otherwise ValidationError names the first law
    that fails, and every component that is not inverted by its base object.
    """
    rep = Report("verify diagram iso")
    fwd_comps, bwd_comps = {}, {}
    for v, (ob, mor) in tables.items():
        try:
            iso = category_iso_of_tables(z1.at_ob[v], z2.at_ob[v], ob, mor, "category-iso", (f"iso@{v}", f"osi@{v}"))
        except ValidationError as err:
            if err.report.title != "verify category iso":
                raise
            for check in err.report.checks:
                rep.fail(check.name, f"component at {v} is not inverted")
            continue
        fwd_comps[v], bwd_comps[v] = iso.forward, iso.backward
    if not rep.passed:
        raise ValidationError(rep)
    fwd = validate_diagram_mor(z1, z2, fwd_comps, name=f"diso[{z1.name}->{z2.name}]")
    bwd = validate_diagram_mor(z2, z1, bwd_comps, name=f"diso[{z2.name}->{z1.name}]")
    return IsoWitness(fwd, bwd, "diagram-iso")
