"""Seeded inputs: chains, cyclic and dihedral groups, shift diagrams, workspace text.

The seed chooses every identifier and every listing order, so two seeds give
structurally equal inputs under different names; that keeps the work per
job the same across seeds while the program never sees the same tables
twice.  Identifiers are a letter plus four digits, which the workspace
format accepts and which no pair name can collide with.
"""

from __future__ import annotations

import random


class Names:
    """Distinct identifiers drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def take(self, k: int, prefix: str) -> list[str]:
        out = []
        while len(out) < k:
            name = f"{prefix}{self.rng.randrange(10_000):04d}"
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out


def shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def chain_args(rng: random.Random, order: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """Arguments of the poset builder for the chain order[0] < order[1] < ...: its covering pairs."""
    covers = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    return shuffled(rng, order), shuffled(rng, covers)


def chain(gk, rng: random.Random, order: list[str], name: str):
    return gk.poset(*chain_args(rng, order), name=name)


def cyclic_law(n: int):
    return lambda a, b: (a + b) % n


def dihedral_law(n: int):
    """D_n on indices k + n*e for rotation k and reflection e: (k1,e1)(k2,e2) = (k1 + (-1)^e1 k2, e1 + e2)."""
    def law(a: int, b: int) -> int:
        k1, e1 = a % n, a // n
        k2, e2 = b % n, b // n
        return (k1 + (k2 if e1 == 0 else -k2)) % n + n * ((e1 + e2) % 2)
    return law


def group_args(rng: random.Random, names: list[str], law, shuffle: bool = True) -> tuple[list[str], dict]:
    """Arguments of the delooping builder for the group on indices 0..n-1 with unit 0:
    its elements, listed in a seeded order or in index order, and its full Cayley table."""
    n = len(names)
    table = {(names[a], names[b]): names[law(a, b)] for a in range(n) for b in range(n)}
    return (shuffled(rng, names) if shuffle else list(names)), table


def group(gk, rng: random.Random, names: list[str], law, name: str, shuffle: bool = True):
    return gk.delooping(*group_args(rng, names, law, shuffle), name=name)


def mor_between(cat, x: str, y: str) -> str:
    (m,) = cat.hom(x, y)
    return m


def shift_diagram(gk, base, base_order: list[str], fibre, fibre_order: list[str], t: int, name: str):
    """The diagram on a chain sending every object to the chain `fibre` and i <= j to the
    clamped shift k -> min(k + t(j-i), m-1); t = 0 gives the constant diagram."""
    m = len(fibre_order)
    fpos = {x: k for k, x in enumerate(fibre_order)}
    bpos = {x: i for i, x in enumerate(base_order)}
    at_mor = {}
    for u in base.mors:
        steps = bpos[base.tgt[u]] - bpos[base.src[u]]
        img = {x: fibre_order[min(fpos[x] + t * steps, m - 1)] for x in fibre_order}
        mor_map = {a: mor_between(fibre, img[fibre.src[a]], img[fibre.tgt[a]]) for a in fibre.mors}
        at_mor[u] = gk.validate_functor(fibre, fibre, img, mor_map, name=f"{name}_{u}")
    return gk.validate_diagram(base, {x: fibre for x in base.objects}, at_mor, name=name)


def inversion_diagram(gk, base, fibre, fibre_names: list[str], name: str):
    """Z/2 (the delooping `base`) acting on the delooping of Z/n by inversion."""
    n = len(fibre_names)
    unit = fibre.identity[fibre.objects[0]]
    mor = [unit] + fibre_names[1:]
    inv = gk.validate_functor(fibre, fibre, {x: x for x in fibre.objects},
                              {mor[a]: mor[(-a) % n] for a in range(n)}, name=f"{name}_inv")
    at_mor = {u: (gk.identity_functor(fibre) if base.is_identity(u) else inv) for u in base.mors}
    return gk.validate_diagram(base, {x: fibre for x in base.objects}, at_mor, name=name)


# ---------------------------------------------------------------------------
# workspace text


def poset_block(name: str, order: list[str], leq) -> str:
    """An explicit `category` block for the poset on `order` under `leq`, every composite declared."""
    arrows = {(x, y): f"{name}_{x}_{y}" for x in order for y in order if x != y and leq(x, y)}
    lines = [f"category {name} {{", "  objects: " + " ".join(order) + " ;"]
    if arrows:
        lines.append("  arrows:")
        lines += [f"    {m}: {x} -> {y} ;" for (x, y), m in arrows.items()]
        compose = [
            f"    {arrows[(y, z)]}.{arrows[(x, y)]} = {arrows[(x, z)]} ;"
            for (x, y) in arrows for z in order if (y, z) in arrows
        ]
        if compose:
            lines.append("  compose:")
            lines += compose
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain_block(name: str, order: list[str]) -> str:
    pos = {x: i for i, x in enumerate(order)}
    return poset_block(name, order, lambda x, y: pos[x] <= pos[y])


def grid_block(name: str, rows: list[str], cols: list[str]) -> str:
    """The product order on rows x cols with objects named row + col."""
    rp = {x: i for i, x in enumerate(rows)}
    cp = {y: j for j, y in enumerate(cols)}
    order = [r + c for r in rows for c in cols]
    split = {r + c: (rp[r], cp[c]) for r in rows for c in cols}
    return poset_block(name, order, lambda a, b: split[a][0] <= split[b][0] and split[a][1] <= split[b][1])


def chain_functor_block(name: str, dom: str, cod: str, dom_order: list[str], cod_order: list[str],
                        img: dict[str, str]) -> str:
    """A functor between chains written as explicit `chain_block` arrows, given by its monotone object map."""
    cpos = {x: i for i, x in enumerate(cod_order)}
    dpos = {x: i for i, x in enumerate(dom_order)}
    if any(cpos[img[x]] > cpos[img[y]] for x in dom_order for y in dom_order if dpos[x] <= dpos[y]):
        raise ValueError(f"{name}: object map is not monotone")
    lines = [f"functor {name} : {dom} -> {cod} {{", "  ob:"]
    lines += [f"    {x} |-> {img[x]} ;" for x in dom_order]
    arr = []
    for x in dom_order:
        for y in dom_order:
            if dpos[x] < dpos[y]:
                a, b = img[x], img[y]
                target = f"id_{a}" if a == b else f"{cod}_{a}_{b}"
                arr.append(f"    {dom}_{x}_{y} |-> {target} ;")
    if arr:
        lines.append("  arr:")
        lines += arr
    lines.append("}")
    return "\n".join(lines) + "\n"


def projection_block(name: str, total: str, base: str, rows: list[str], cols: list[str]) -> str:
    """The first projection of `grid_block(total, rows, cols)` onto `chain_block(base, rows)`."""
    rp = {x: i for i, x in enumerate(rows)}
    cp = {y: j for j, y in enumerate(cols)}
    lines = [f"functor {name} : {total} -> {base} {{", "  ob:"]
    lines += [f"    {r + c} |-> {r} ;" for r in rows for c in cols]
    lines.append("  arr:")
    for r1 in rows:
        for c1 in cols:
            for r2 in rows:
                for c2 in cols:
                    if (r1, c1) != (r2, c2) and rp[r1] <= rp[r2] and cp[c1] <= cp[c2]:
                        image = f"id_{r1}" if r1 == r2 else f"{base}_{r1}_{r2}"
                        lines.append(f"    {total}_{r1 + c1}_{r2 + c2} |-> {image} ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cleavage_block(name: str, functor: str, total: str, base: str, rows: list[str], cols: list[str],
                   vertical: tuple[str, str, str] | None = None) -> str:
    """The split cleavage of that projection: (r, c) lifts r -> r' to (r, c) -> (r', c).

    `vertical = (r, c, c2)` overrides the lift of the identity at (r, c) with the
    non-identity vertical morphism (r, c) -> (r, c2), which breaks the identity law.
    """
    rp = {x: i for i, x in enumerate(rows)}
    lines = [f"cleavage {name} for {functor} {{"]
    for r1 in rows:
        for c in cols:
            for r2 in rows:
                if rp[r1] < rp[r2]:
                    lines.append(f"  lift ({r1 + c}, {base}_{r1}_{r2}) |-> {total}_{r1 + c}_{r2 + c} ;")
    if vertical is not None:
        r, c, c2 = vertical
        lines.append(f"  lift ({r + c}, id_{r}) |-> {total}_{r + c}_{r + c2} ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def identity_cleavage_block(name: str, functor: str, cat: str, order: list[str]) -> str:
    """The tautological cleavage of the identity functor on `chain_block(cat, order)`."""
    lines = [f"cleavage {name} for {functor} {{"]
    lines += [f"  lift ({x}, {cat}_{x}_{y}) |-> {cat}_{x}_{y} ;"
              for i, x in enumerate(order) for y in order[i + 1:]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def shift_diagram_text(diagram: str, base: str, base_order: list[str], fibre: str, fibre_order: list[str],
                       t: int) -> str:
    """`shift_diagram` written out: one explicit functor block per non-identity base morphism."""
    m = len(fibre_order)
    blocks = []
    at = [f"  at {x} = {fibre} ;" for x in base_order]
    for i, x in enumerate(base_order):
        for j in range(i + 1, len(base_order)):
            y = base_order[j]
            img = {z: fibre_order[min(k + t * (j - i), m - 1)] for k, z in enumerate(fibre_order)}
            fname = f"S_{x}_{y}"
            blocks.append(chain_functor_block(fname, fibre, fibre, fibre_order, fibre_order, img))
            at.append(f"  at {base}_{x}_{y} = {fname} ;")
    return "".join(blocks) + f"diagram {diagram} on {base} {{\n" + "\n".join(at) + "\n}\n"


def delooping_line(name: str, names: list[str], law) -> str:
    """`category NAME = delooping(...)` with the full table of the group on indices (unit 0)."""
    n = len(names)
    products = " ".join(f"{names[a]}.{names[b]}={names[law(a, b)]}" for a in range(n) for b in range(n))
    return f"category {name} = delooping({' '.join(names)} : {products})\n"
