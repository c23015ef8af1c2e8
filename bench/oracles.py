"""Correctness oracles, computed apart from the program under test.

Nothing here imports grothkit.  The checks read the public attributes of the
values the program returns (objects, mors, src, tgt, identity, comp, ob_map,
mor_map, ...) and compare them with what counting formulas, group and order
theory, or the documented CLI contract say the answer must be.  Each check
returns None when the answer is right and a message when it is wrong; a
check raises `Failed` when the program did not deliver a verdict at all
(an exit code that is neither pass nor refuted, where one of those was
due), which the harness counts as a failed operation rather than a wrong
answer.
"""

from __future__ import annotations

import json
from math import gcd


class Failed(Exception):
    """The operation did not deliver the kind of verdict its contract promises."""


# ---------------------------------------------------------------------------
# counting formulas


def chain_mors(n: int) -> int:
    """The chain 0 < 1 < ... < n-1 has one morphism i -> j for each i <= j."""
    return n * (n + 1) // 2


def shift(k: int, steps: int, t: int, m: int) -> int:
    """Position of fibre object k after `steps` base steps of the clamped shift by t."""
    return min(k + t * steps, m - 1)


def shift_total_mors(n: int, m: int, t: int) -> int:
    """Morphisms of the total category of the shift diagram on chain(n) with fibre chain(m).

    The base morphism i <= j acts on chain(m) by k -> min(k + t(j-i), m-1);
    a total morphism over it out of (i, k) is a fibre morphism out of the
    image, and chain(m) has m - y morphisms out of y.  t = 0 is the constant
    diagram, whose total has |Mor A| * |Mor B| morphisms.
    """
    return sum(
        m - shift(k, j - i, t, m) for i in range(n) for j in range(i, n) for k in range(m)
    )


def check_counts(cat, objects: int, mors: int, what: str) -> str | None:
    if len(cat.objects) != objects or len(cat.mors) != mors:
        return (f"{what}: {len(cat.objects)} objects and {len(cat.mors)} morphisms, "
                f"expected {objects} and {mors}")
    return None


def check_thin(cat, what: str) -> str | None:
    """A poset has at most one morphism between any two objects."""
    if len({(cat.src[m], cat.tgt[m]) for m in cat.mors}) != len(cat.mors):
        return f"{what}: two morphisms share a source and a target, but a poset is thin"
    return None


def check_chain(cat, order: list[str], what: str) -> str | None:
    """The chain on `order` has exactly one morphism x_i -> x_j for each i <= j."""
    pos = {x: i for i, x in enumerate(order)}
    if set(cat.objects) != set(order):
        return f"{what}: objects differ from the declared elements"
    pairs = sorted((pos[cat.src[m]], pos[cat.tgt[m]]) for m in cat.mors)
    expected = [(i, j) for i in range(len(order)) for j in range(i, len(order))]
    if pairs != expected:
        return f"{what}: morphism boundaries are not those of the chain"
    return None


# ---------------------------------------------------------------------------
# group theory


def check_group_law(cat, names: list[str], law, what: str) -> str | None:
    """A delooping composes like its group: names[a] . names[b] = names[law(a, b)].

    names[0] is the unit, which the delooping represents by the identity.
    """
    if len(cat.objects) != 1:
        return f"{what}: a delooping has one object, got {len(cat.objects)}"
    unit = cat.identity[cat.objects[0]]
    mor = [unit] + names[1:]
    if sorted(cat.mors) != sorted(mor):
        return f"{what}: morphisms are not the group elements"
    n = len(names)
    for a in range(n):
        for b in range(n):
            if cat.comp[(mor[a], mor[b])] != mor[law(a, b)]:
                return f"{what}: {mor[a]}.{mor[b]} = {cat.comp[(mor[a], mor[b])]}, expected {mor[law(a, b)]}"
    return None


def check_non_abelian(cat, what: str) -> str | None:
    """D_n for n >= 3 is not abelian, so some pair must fail to commute."""
    for (g, f), h in cat.comp.items():
        if cat.comp.get((f, g)) != h:
            return None
    return f"{what}: every pair commutes, but the total should be dihedral"


def cyclic_product_is_cyclic(a: int, b: int) -> bool:
    """Z/a x Z/b is cyclic (so isomorphic to Z/ab) exactly when gcd(a, b) = 1."""
    return gcd(a, b) == 1


def expect_status(result, expected: str, what: str) -> str | None:
    if result.status != expected:
        return f"{what}: search ended {result.status!r}, expected {expected!r}"
    if (result.witness is None) == (expected == "found"):
        return f"{what}: witness presence does not match status {result.status!r}"
    return None


# ---------------------------------------------------------------------------
# witnesses, re-checked entry by entry


def check_category_iso(fwd, bwd, c, d, what: str, over=None) -> str | None:
    """fwd: c -> d and bwd: d -> c are mutually inverse functors.

    Every object and morphism map is checked for bijectivity and inversion,
    every morphism for its boundary, every identity, and every entry of the
    composition table of c.  With `over = (p1, p2)` the iso must also commute
    with the projections p1: c -> base and p2: d -> base.
    """
    fo, fm, bo, bm = fwd.ob_map, fwd.mor_map, bwd.ob_map, bwd.mor_map
    if set(fo) != set(c.objects) or sorted(fo.values()) != sorted(d.objects):
        return f"{what}: object map is not a bijection"
    if set(fm) != set(c.mors) or sorted(fm.values()) != sorted(d.mors):
        return f"{what}: morphism map is not a bijection"
    if any(bo.get(fo[x]) != x for x in c.objects) or any(bm.get(fm[m]) != m for m in c.mors):
        return f"{what}: backward map does not invert forward map"
    if set(bo) != set(d.objects) or set(bm) != set(d.mors):
        return f"{what}: backward map is not total"
    for m in c.mors:
        n = fm[m]
        if d.src[n] != fo[c.src[m]] or d.tgt[n] != fo[c.tgt[m]]:
            return f"{what}: image of {m} has the wrong boundary"
    for x in c.objects:
        if fm[c.identity[x]] != d.identity[fo[x]]:
            return f"{what}: identity of {x} is not preserved"
    for (g, f), h in c.comp.items():
        if d.comp.get((fm[g], fm[f])) != fm[h]:
            return f"{what}: composite {g}.{f} = {h} is not preserved"
    if over is not None:
        p1, p2 = over
        if any(p2.ob_map[fo[x]] != p1.ob_map[x] for x in c.objects) or any(
            p2.mor_map[fm[m]] != p1.mor_map[m] for m in c.mors
        ):
            return f"{what}: iso does not commute with the projections"
    return None


def check_diagram_iso(fwd, bwd, z1, z2, what: str) -> str | None:
    """Componentwise category isos whose naturality squares commute strictly."""
    base = z1.base
    for v in base.objects:
        bad = check_category_iso(fwd.components[v], bwd.components[v], z1.at_ob[v], z2.at_ob[v],
                                 f"{what} at {v}")
        if bad:
            return bad
    for h in base.mors:
        a, b = base.src[h], base.tgt[h]
        ca, cb = fwd.components[a], fwd.components[b]
        t1, t2 = z1.at_mor[h], z2.at_mor[h]
        if any(cb.ob_map[t1.ob_map[x]] != t2.ob_map[ca.ob_map[x]] for x in z1.at_ob[a].objects):
            return f"{what}: naturality square at {h} fails on objects"
        if any(cb.mor_map[t1.mor_map[m]] != t2.mor_map[ca.mor_map[m]] for m in z1.at_ob[a].mors):
            return f"{what}: naturality square at {h} fails on morphisms"
    return None


# ---------------------------------------------------------------------------
# law-check verdicts


def check_report(report, passed: bool, what: str, failing: str | None = None) -> str | None:
    """A law check's verdict; `failing` names a check that must be among the failures."""
    if report.passed != passed:
        return f"{what}: verdict {'pass' if report.passed else 'fail'}, expected {'pass' if passed else 'fail'}"
    if failing is not None and failing not in {c.name for c in report.checks if not c.passed}:
        return f"{what}: check {failing!r} should have failed"
    return None


# ---------------------------------------------------------------------------
# the CLI contract


EXIT_VERDICT = {0: "pass", 1: "fail", 2: "error", 3: "budget"}
JSON_KEYS = {"command", "inputs", "verdict", "witnesses", "counterexamples", "budget"}


def check_exit(code, expected: int, what: str, decides: bool) -> str | None:
    """Documented exit codes: 0 pass, 1 refuted, 2 usage or parse error, 3 budget.

    For a command that `decides` a question (is it valid, are these
    isomorphic, is this an opfibration), 0 and 1 are its answer, so one in
    place of the other is a wrong answer.  Any other unexpected code, or a 1
    from a command that builds something, means no verdict was delivered.
    """
    if code == expected:
        return None
    if decides and code in (0, 1) and expected in (0, 1):
        return f"{what}: verdict {EXIT_VERDICT[code]} (exit {code}), expected {EXIT_VERDICT[expected]}"
    raise Failed(f"{what}: exit code {code}, expected {expected}")


def check_json_report(text: str, code: int, what: str) -> str | None:
    try:
        payload = json.loads(text)
    except ValueError:
        return f"{what}: --json output is not JSON"
    if not isinstance(payload, dict) or set(payload) != JSON_KEYS:
        return f"{what}: JSON report keys differ from the documented schema"
    if payload["verdict"] != EXIT_VERDICT.get(code):
        return f"{what}: JSON verdict {payload['verdict']!r} does not match exit code {code}"
    if set(payload["budget"]) != {"used", "limit"}:
        return f"{what}: JSON budget block differs from the documented schema"
    return None


def check_reprint(text: str, parse, render, what: str) -> str | None:
    """Canonical printing is byte-stable: printing the parse of printed text reproduces it."""
    try:
        again = render(parse(text))
    except Exception as err:  # any failure to re-read printed output is a wrong answer
        return f"{what}: printed output does not parse again: {err}"
    if again != text:
        return f"{what}: re-parsing and re-printing the output changed it"
    return None


def read_categories(text: str) -> dict[str, tuple[int, int]]:
    """Object and morphism counts of each explicit category block in workspace text.

    A reader of the canonical layout only: `objects:` lists the objects, each
    `name: src -> tgt ;` line under `arrows:` is one non-identity morphism,
    and every object contributes its implicit identity.
    """
    out: dict[str, tuple[int, int]] = {}
    name = None
    section = None
    objects = arrows = 0
    for line in text.splitlines():
        s = line.strip()
        if name is None:
            if s.startswith("category ") and s.endswith("{"):
                name, section, objects, arrows = s.split()[1], None, 0, 0
            continue
        if s == "}":
            out[name] = (objects, objects + arrows)
            name = None
        elif s.startswith("objects:"):
            objects = len(s[len("objects:"):].rstrip(";").split())
        elif s in ("arrows:", "compose:"):
            section = s
        elif section == "arrows:" and "->" in s:
            arrows += 1
    return out
