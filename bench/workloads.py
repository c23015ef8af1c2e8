"""The three workloads: seeded inputs made during set-up, and one round of jobs each.

A job is one call into grothkit's public API (or one `cli.run_command`) with
its inputs already built, plus an oracle from `oracles` that judges what the
call returned.  A round is the workload's whole job list; runs repeat whole
rounds, so every run attempts the same operations in the same proportions.

Every round mixes three size classes.  About 30% of the jobs are small, 40%
medium and 30% large, so the median falls in the middle of the medium class
and the 90th percentile inside the large class, away from the boundary
between two classes where a small change in timing would swap which class
the percentile reads.  Where a class holds kinds of unequal time, the jobs
at the percentile's rank are six of one kind, so the percentile reads that
kind's time whichever way its neighbours' times move.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import inputs as gen
import oracles as orc


@dataclass
class Job:
    kind: str                              # what the job exercises, e.g. "groth_shift"
    size: str                              # size class: S, M or L
    call: Callable[[], Any]                # the timed call into the program
    check: Callable[[Any], str | None]     # oracle: None when right; may raise oracles.Failed


def first(*checks: str | None) -> str | None:
    return next((c for c in checks if c), None)


class Maker:
    """Seeded inputs shared by the job makers of every workload.

    The program's cost depends on the listing order of its inputs (by up to a
    tenth on `construct`'s large jobs), so chains are listed in index order
    under seeded names that sort the same way: the seed chooses every name,
    and the work per job is the same for every seed.
    """

    def __init__(self, gk, rng: random.Random):
        self.gk, self.rng, self.names = gk, rng, gen.Names(rng)

    def chain(self, n: int, prefix: str):
        order = sorted(self.names.take(n, prefix))  # poset() lists its arrows by name
        covers = list(zip(order, order[1:]))
        return order, self.gk.poset(order, covers, name=f"ch{n}")

    def shift(self, n: int, m: int, t: int):
        """A shift diagram on chain(n) with fibre chain(m), and its total's morphism count."""
        base_order, base = self.chain(n, "a")
        fib_order, fib = self.chain(m, "b")
        d = gen.shift_diagram(self.gk, base, base_order, fib, fib_order, t, name=f"shift{t}")
        return d, orc.shift_total_mors(n, m, t)


# ---------------------------------------------------------------------------
# construct: builders, constructions and law checks, no isomorphism search


class Construct(Maker):
    """Job makers for `construct`; each builds its inputs and returns one job."""

    def chain_builder(self, n: int) -> Job:
        gk = self.gk
        order = self.names.take(n, "c")
        elements, covers = gen.chain_args(self.rng, order)
        return Job("chain", "", lambda: gk.poset(elements, covers, name=f"chain{n}"),
                   lambda c: first(orc.check_counts(c, n, orc.chain_mors(n), "chain"),
                                   orc.check_chain(c, order, "chain")))

    def delooping(self, n: int) -> Job:
        gk = self.gk
        elems = self.names.take(n, "g")
        elements, table = gen.group_args(self.rng, elems, gen.cyclic_law(n))
        return Job("delooping", "", lambda: gk.delooping(elements, table, name=f"Z{n}"),
                   lambda c: orc.check_group_law(c, elems, gen.cyclic_law(n), f"Z/{n}"))

    def product(self, n: int, m: int) -> Job:
        gk = self.gk
        (_, c), (_, d) = self.chain(n, "a"), self.chain(m, "b")
        return Job("product", "", lambda: gk.product(c, d),
                   lambda p: first(orc.check_counts(p, n * m, orc.chain_mors(n) * orc.chain_mors(m), "product"),
                                   orc.check_thin(p, "product")))

    def product_group(self, n: int) -> Job:
        gk = self.gk
        zn = gen.group(gk, self.rng, self.names.take(n, "g"), gen.cyclic_law(n), f"Z{n}")
        z2 = gen.group(gk, self.rng, self.names.take(2, "s"), gen.cyclic_law(2), "Z2")
        return Job("product_group", "", lambda: gk.product(zn, z2),
                   lambda p: orc.check_counts(p, 1, 2 * n, f"Z/{n} x Z/2"))

    def groth(self, n: int, m: int, t: int) -> Job:
        gk = self.gk
        d, mors = self.shift(n, m, t)
        return Job("groth_shift" if t else "groth_const", "", lambda: gk.groth(d),
                   lambda g: orc.check_counts(g.total, n * m, mors, "total"))

    def groth_semidirect(self, n: int) -> Job:
        gk = self.gk
        d = semidirect(gk, self.rng, self.names, n)
        return Job("groth_semidirect", "", lambda: gk.groth(d),
                   lambda g: first(orc.check_counts(g.total, 1, 2 * n, "Z/n x| Z/2"),
                                   orc.check_non_abelian(g.total, "Z/n x| Z/2")))

    def fibres(self, n: int, m: int, t: int) -> Job:
        gk = self.gk
        d, _ = self.shift(n, m, t)
        gt = gk.groth(d)
        return Job("fibres", "", lambda: gk.fibres(gt.opfib()),
                   lambda z: first(orc.check_counts(z.base, n, orc.chain_mors(n), "fibres base"), *(
                       orc.check_counts(z.at_ob[x], m, orc.chain_mors(m), f"fibre over {x}")
                       for x in z.base.objects)))

    def pullback(self, n: int, m: int, k: int) -> Job:
        gk = self.gk
        base_order, base = self.chain(n, "a")
        fib_order, fib = self.chain(m, "b")
        gt = gk.groth(gen.shift_diagram(gk, base, base_order, fib, fib_order, 0, name="const"))
        sub_order, sub = self.chain(k, "e")
        picked = sorted(self.rng.sample(range(n), k))
        img = {x: base_order[i] for x, i in zip(sub_order, picked)}
        h = gk.validate_functor(sub, base, img, {
            u: gen.mor_between(base, img[sub.src[u]], img[sub.tgt[u]]) for u in sub.mors}, name="h")
        return Job("pullback", "", lambda: gk.pullback_opfib(h, gt.opfib()),
                   lambda pb: orc.check_counts(pb.opfib.total, k * m, orc.chain_mors(k) * orc.chain_mors(m),
                                               "pullback total"))

    def check_split(self, n: int, m: int, t: int, mutate: bool = False) -> Job:
        gk = self.gk
        d, _ = self.shift(n, m, t)
        gt = gk.groth(d)
        lifts = dict(gt.lifts)
        if mutate:
            # the chosen lift of an identity becomes a non-identity vertical morphism
            p, total = gt.projection, gt.total
            vertical = {(e, u): sorted(v for v in total.mors if total.src[v] == e and p.mor_map[v] == u
                                       and not total.is_identity(v))
                        for (e, u) in lifts if d.base.is_identity(u)}
            # at a fixed place in the check's scan, which an early exit makes part of the work
            keys = sorted(k for k, vs in vertical.items() if vs)
            key = keys[len(keys) // 2]
            lifts[key] = vertical[key][0]
        return Job("check_split_mutated" if mutate else "check_split", "",
                   lambda: gk.check_split_opfib(gk.cleaved_opfib(gt.projection, lifts)),
                   lambda rep: orc.check_report(rep, not mutate, "split check",
                                                failing="identity-law" if mutate else None))

    def check_diagram(self, n: int, m: int, t: int) -> Job:
        gk = self.gk
        d, _ = self.shift(n, m, t)
        phi = gk.identity_diagram_opfib(d, name="phi")
        return Job("check_diagram_opfib", "", lambda: gk.check_diagram_opfib(phi),
                   lambda rep: orc.check_report(rep, True, "diagram opfibration check"))

    def indexed_fibres(self, n: int, m: int, t: int) -> Job:
        gk = self.gk
        d, mors = self.shift(n, m, t)
        phi, gt = gk.identity_diagram_opfib(d, name="phi"), gk.groth(d)
        # the identity's fibre over each object of the total is terminal
        return Job("indexed_fibres", "", lambda: gk.indexed_fibres(phi, gt),
                   lambda z: first(orc.check_counts(z.base, n * m, mors, "indexed fibres base"), *(
                       orc.check_counts(z.at_ob[v], 1, 1, f"fibre at {v}") for v in z.base.objects)))

    def indexed_groth(self, n: int, m: int, t: int) -> Job:
        gk = self.gk
        d, _ = self.shift(n, m, t)
        gt = gk.groth(d)
        z = gk.terminal_diagram(gt.total)
        # the total of a terminal diagram on F(a) is F(a) again
        return Job("indexed_groth", "", lambda: gk.indexed_groth(z, d, gt),
                   lambda phi: first(*(orc.check_counts(phi.total.at_ob[a], m, orc.chain_mors(m),
                                                        f"component {a}") for a in d.base.objects)))


# (maker, arguments, jobs per round, size class)
CONSTRUCT_ROUND = [
    ("check_split", (5, 5, 1), 2, "S"),
    ("check_split", (5, 5, 0, True), 2, "S"),
    ("check_diagram", (6, 6, 1), 2, "S"),
    ("groth_semidirect", (8,), 2, "S"),
    ("chain_builder", (10,), 2, "S"),
    ("delooping", (16,), 2, "S"),
    ("groth", (4, 5, 1), 3, "M"),
    ("indexed_fibres", (5, 5, 1), 2, "M"),
    ("product", (3, 6), 3, "M"),
    ("fibres", (6, 6, 1), 3, "M"),
    ("indexed_groth", (4, 4, 1), 2, "M"),
    ("pullback", (6, 5, 3), 2, "M"),
    ("product_group", (12,), 1, "M"),
    ("groth", (6, 5, 1), 5, "L"),
    ("product", (5, 5), 6, "L"),
    ("groth", (5, 5, 0), 1, "L"),
]


def make_round(maker, table) -> list[Job]:
    jobs = []
    for name, args, count, size in table:
        for _ in range(count):
            job = getattr(maker, name)(*args)
            job.size = size
            jobs.append(job)
    maker.rng.shuffle(jobs)
    return jobs


def construct(gk, rng: random.Random, scratch: str) -> list[Job]:
    return make_round(Construct(gk, rng), CONSTRUCT_ROUND)


# ---------------------------------------------------------------------------
# search: isomorphism searches on inputs built and validated during set-up


class Search(Maker):
    """Job makers for `search`: found cases stop at the first witness, absent ones exhaust.

    The search tries morphisms in the listing order of its arguments, and its
    cost depends on that order, so no listing order here depends on the seed:
    chains are listed in index order under names that sort the same way, and
    groups in index order or in one scrambled order fixed by their size.  The
    seed still chooses every name, so node counts repeat exactly across seeds.
    """

    def shift(self, n: int, m: int, t: int):
        base_order, base = self.chain(n, "a")
        fib_order, fib = self.chain(m, "b")
        return gen.shift_diagram(self.gk, base, base_order, fib, fib_order, t, name=f"shift{t}")

    def group(self, n: int, law, name: str, scrambled: bool = True):
        return gen.group(self.gk, random.Random(n), self.names.take(n, "g"), law, name, scrambled)

    def cyclic(self, n: int, scrambled: bool = True):
        return self.group(n, gen.cyclic_law(n), f"Z{n}", scrambled)

    def iso(self, kind: str, c, d, found: bool, what: str) -> Job:
        gk = self.gk
        return Job(kind, "", lambda: gk.iso_search(c, d),
                   lambda r: orc.expect_status(r, "found" if found else "none", what) or (
                       orc.check_category_iso(r.witness.forward, r.witness.backward, c, d, what)
                       if found else None))

    def iso_product(self, n: int, m: int) -> Job:
        """chain(n) x chain(m) is isomorphic to chain(m) x chain(n)."""
        gk = self.gk
        c = gk.product(self.chain(n, "a")[1], self.chain(m, "b")[1])
        d = gk.product(self.chain(m, "c")[1], self.chain(n, "e")[1])
        return self.iso("iso_product", c, d, True, f"chain({n}) x chain({m})")

    def iso_relabelled(self, n: int) -> Job:
        """Z/n against a copy under other names and another listing order."""
        return self.iso("iso_relabelled", self.cyclic(n, scrambled=False), self.cyclic(n), True, f"Z/{n}")

    def iso_dihedral(self, n: int) -> Job:
        """The total of Z/n x| Z/2 (inversion) is the dihedral group D_n."""
        gk = self.gk
        total = gk.groth(semidirect(gk, self.rng, self.names, n, shuffle=False)).total
        dn = self.group(2 * n, gen.dihedral_law(n), f"D{n}")
        return self.iso("iso_dihedral", total, dn, True, f"Z/{n} x| Z/2 against D_{n}")

    def iso_cyclic_product(self, n: int, scrambled: int = 0) -> Job:
        """Z/2n against Z/n x Z/2: isomorphic exactly when gcd(n, 2) = 1.

        Z/2n is listed in index order, or with `scrambled` in a fixed order
        that does not depend on the seed, because the search assigns its
        morphisms in listing order and its cost depends on that order.
        """
        gk = self.gk
        prod = gk.product(self.cyclic(n), self.cyclic(2))
        found = orc.cyclic_product_is_cyclic(n, 2)
        elems = self.names.take(2 * n, "g")
        listed = gen.shuffled(random.Random(scrambled), elems) if scrambled else elems
        _, table = gen.group_args(self.rng, elems, gen.cyclic_law(2 * n), shuffle=False)
        cyclic = gk.delooping(listed, table, name=f"Z{2 * n}")
        return self.iso("iso_cyclic_product_scrambled" if scrambled else "iso_cyclic_product", cyclic, prod,
                        found, f"Z/{2 * n} against Z/{n} x Z/2")

    def iso_semidirect_cyclic(self, n: int) -> Job:
        """The total of Z/n x| Z/2 is not abelian for n >= 3, so it is not Z/2n."""
        gk = self.gk
        total = gk.groth(semidirect(gk, self.rng, self.names, n, shuffle=False)).total
        return self.iso("iso_semidirect_cyclic", total, self.cyclic(2 * n), n < 3,
                        f"Z/{n} x| Z/2 against Z/{2 * n}")

    def roundtrip_diagram(self, n: int, m: int, t: int) -> Job:
        """fibres(groth(F)) is isomorphic to F."""
        gk = self.gk
        d = self.shift(n, m, t)
        z = gk.fibres(gk.groth(d).opfib())
        return Job("roundtrip_diagram", "", lambda: gk.diagram_iso_search(z, d),
                   lambda r: orc.expect_status(r, "found", "fibres(groth(F)) against F") or
                   orc.check_diagram_iso(r.witness.forward, r.witness.backward, z, d, "fibres(groth(F)) against F"))

    def roundtrip_total(self, n: int, m: int, t: int) -> Job:
        """groth(fibres(groth(F))) is isomorphic to groth(F) over the base."""
        gk = self.gk
        g1 = gk.groth(self.shift(n, m, t))
        g2 = gk.groth(gk.fibres(g1.opfib()))
        what = "groth(fibres(groth(F))) against groth(F)"
        return Job("roundtrip_total", "",
                   lambda: gk.over_base_iso_search(g2.total, g2.projection, g1.total, g1.projection),
                   lambda r: orc.expect_status(r, "found", what) or
                   orc.check_category_iso(r.witness.forward, r.witness.backward, g2.total, g1.total, what,
                                          over=(g2.projection, g1.projection)))


# ---------------------------------------------------------------------------
# workspace: the CLI in-process over workspace files written during set-up


DECIDING = {"validate", "iso", "check-opfib", "indexed"}  # commands whose exit 0 or 1 is their answer


class Workspace(Maker):
    """Job makers for `workspace`: each writes its input files and returns one CLI job.

    A CLI job fails when `run_command` raises or gives no verdict (see
    `oracles.check_exit`); from a command that decides a question, a pass
    where a refutation was due, or the reverse, is a wrong answer.  With the right exit code, its report and
    output are checked against the oracles.
    """

    def __init__(self, gk, rng: random.Random, scratch: str):
        super().__init__(gk, rng)
        self.scratch = scratch
        self.files = 0

    def write(self, text: str) -> str:
        self.files += 1
        path = os.path.join(self.scratch, f"in{self.files}.cat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def output(self) -> str:
        self.files += 1
        return os.path.join(self.scratch, f"out{self.files}.cat")

    def cli(self, kind: str, argv: list[str], code: int, json_out: bool = False, output: str | None = None,
            check_output=None) -> Job:
        """One `run_command` call; `check_output(text)` judges the workspace it printed or wrote."""
        gk = self.gk
        argv = argv + (["--json"] if json_out else []) + (["-o", output] if output else [])

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = gk.run_command(argv)
            return rc, buf.getvalue()

        def check(out):
            rc, stdout = out
            what = " ".join([argv[0]] + (["--json"] if json_out else []))
            bad = orc.check_exit(rc, code, what, decides=argv[0] in DECIDING)
            if bad:
                return bad
            if json_out:
                bad = orc.check_json_report(stdout, rc, what)
                if bad:
                    return bad
            if check_output is None:
                return None
            if output is not None:
                with open(output, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = stdout[stdout.index("\ncategory ") + 1:]  # the workspace follows the summary line
            return orc.check_reprint(text, gk.parse_workspace, gk.print_workspace, what) or check_output(text)

        return Job(kind + ("_json" if json_out else ""), "", call, check)

    def new_categories(self, inputs: str, expected: list[tuple[int, int]], what: str):
        """Oracle for an output workspace: the categories it adds to `inputs` and their sizes."""
        before = set(orc.read_categories(inputs))

        def check(text: str) -> str | None:
            added = sorted(v for k, v in orc.read_categories(text).items() if k not in before)
            if added != sorted(expected):
                return f"{what}: new categories have (objects, morphisms) {added}, expected {sorted(expected)}"
            return None
        return check

    # -- job makers ---------------------------------------------------------

    def validate(self, rows: int, cols: int, json_out: bool = False) -> Job:
        path = self.write(gen.grid_block("G", self.names.take(rows, "r"), self.names.take(cols, "c")))
        return self.cli("validate", ["validate", "-i", path], 0, json_out)

    def build(self, n: int, m: int, json_out: bool = False) -> Job:
        text = gen.chain_block("C", self.names.take(n, "a")) + gen.chain_block("D", self.names.take(m, "b"))
        out = self.output() if json_out else None
        return self.cli("build", ["build", "-i", self.write(text), "--name", "P", "--spec", "product(C, D)"], 0,
                        json_out, out, self.new_categories(text, [(n * m, orc.chain_mors(n) * orc.chain_mors(m))],
                                                           "build product"))

    def build_commas(self) -> Job:
        """A product of valid categories whose identifiers contain commas; the pair names collide."""
        text = "category C {\n  objects: a a,b ;\n}\ncategory D {\n  objects: c b,c ;\n}\n"
        return self.cli("build_commas", ["build", "-i", self.write(text), "--name", "P", "--spec",
                                         "product(C, D)"], 0, False, None,
                        self.new_categories(text, [(4, 4)], "build product of comma names"))

    def groth(self, n: int, m: int, t: int, json_out: bool = False) -> Job:
        base, fibre = self.names.take(n, "a"), self.names.take(m, "b")
        text = gen.chain_block("A", base) + gen.chain_block("B", fibre) + \
            gen.shift_diagram_text("F", "A", base, "B", fibre, t)
        return self.cli("groth", ["groth", "-i", self.write(text), "F"], 0, json_out, self.output(),
                        self.new_categories(text, [(n * m, orc.shift_total_mors(n, m, t))], "groth total"))

    def total(self, n: int, m: int, k: int = 0):
        """The projection of chain(n) x chain(m) onto chain(n), with its cleavage `cl`, a broken
        cleavage `bad`, a functor h: chain(k) -> A and a functor off: chain(k) -> B that misses the base."""
        rows, cols = self.names.take(n, "a"), self.names.take(m, "b")
        c, c2 = sorted(self.rng.sample(range(m), 2))
        text = (gen.chain_block("A", rows) + gen.chain_block("B", cols) + gen.grid_block("T", rows, cols)
                + gen.projection_block("p", "T", "A", rows, cols)
                + gen.cleavage_block("cl", "p", "T", "A", rows, cols)
                + gen.cleavage_block("bad", "p", "T", "A", rows, cols,
                                     vertical=(self.rng.choice(rows), cols[c], cols[c2])))
        if k:
            sub = self.names.take(k, "k")
            picked = sorted(self.rng.sample(range(n), k))
            text += gen.chain_block("K", sub) + gen.chain_functor_block(
                "h", "K", "A", sub, rows, {x: rows[i] for x, i in zip(sub, picked)})
            text += gen.chain_functor_block("off", "K", "B", sub, cols,
                                            {x: cols[min(i, m - 1)] for i, x in enumerate(sub)})
        return text

    def check_opfib(self, n: int, m: int, broken: bool, json_out: bool = False) -> Job:
        path = self.write(self.total(n, m))
        return self.cli("check_opfib_mutated" if broken else "check_opfib",
                        ["check-opfib", "-i", path, "p", "bad" if broken else "cl"], 1 if broken else 0, json_out)

    def ungroth(self, n: int, m: int, json_out: bool = False) -> Job:
        text = self.total(n, m)
        return self.cli("ungroth", ["ungroth", "-i", self.write(text), "p", "cl"], 0, json_out, self.output(),
                        self.new_categories(text, [(m, orc.chain_mors(m))] * n, "fibres of the projection"))

    def pullback(self, n: int, m: int, k: int, json_out: bool = False) -> Job:
        text = self.total(n, m, k)
        return self.cli("pullback", ["pullback", "-i", self.write(text), "h", "p", "cl"], 0, json_out,
                        self.output(), self.new_categories(text, [(k * m, orc.chain_mors(k) * orc.chain_mors(m))],
                                                           "pullback total"))

    def pullback_off_base(self, n: int, m: int, k: int) -> Job:
        """A functor that does not land in the base is a usage error (exit 2)."""
        return self.cli("pullback_off_base", ["pullback", "-i", self.write(self.total(n, m, k)), "off", "p", "cl"],
                        2)

    def indexed(self, sub: str, n: int, m: int, t: int, json_out: bool = False) -> Job:
        base, fibre = self.names.take(n, "a"), self.names.take(m, "b")
        text = (gen.chain_block("A", base) + gen.chain_block("B", fibre)
                + gen.shift_diagram_text("F", "A", base, "B", fibre, t)
                + "functor I = identity(B)\n" + gen.identity_cleavage_block("icl", "I", "B", fibre)
                + "opfib phi {\n  over: F ;\n  total: F ;\n"
                + "".join(f"  component {a} = (I, icl) ;\n" for a in base) + "}\n")
        return self.cli(f"indexed_{sub}", ["indexed", sub, "-i", self.write(text), "phi"], 0, json_out)

    def iso_grid(self, rows: int, cols: int, json_out: bool = False) -> Job:
        """chain(rows) x chain(cols) against chain(cols) x chain(rows), written out under other names."""
        text = (gen.grid_block("G", self.names.take(rows, "r"), self.names.take(cols, "c"))
                + gen.grid_block("H", self.names.take(cols, "s"), self.names.take(rows, "t")))
        return self.cli("iso_grid", ["iso", "-i", self.write(text), "G", "H"], 0, json_out)

    def iso_cyclic(self, n: int, json_out: bool = False) -> Job:
        """Z/2n against Z/n x Z/2: exit 0 when gcd(n, 2) = 1, else exit 1 (refuted)."""
        text = (gen.delooping_line("Z", self.names.take(2 * n, "g"), gen.cyclic_law(2 * n))
                + gen.delooping_line("Zn", self.names.take(n, "h"), gen.cyclic_law(n))
                + gen.delooping_line("Z2", self.names.take(2, "s"), gen.cyclic_law(2))
                + "category P = product(Zn, Z2)\n")
        code = 0 if orc.cyclic_product_is_cyclic(n, 2) else 1
        return self.cli("iso_cyclic", ["iso", "-i", self.write(text), "Z", "P"], code, json_out)


def semidirect(gk, rng: random.Random, names: gen.Names, n: int, shuffle: bool = True):
    """Z/2 acting on Z/n by inversion; the groups are listed in index order unless shuffled."""
    z2_names = names.take(2, "s")
    zn_names = names.take(n, "r")
    base = gen.group(gk, rng, z2_names, gen.cyclic_law(2), "Z2", shuffle)
    fibre = gen.group(gk, rng, zn_names, gen.cyclic_law(n), f"Z{n}", shuffle)
    return gen.inversion_diagram(gk, base, fibre, zn_names, name=f"Z{n}xZ2")


def search(gk, rng: random.Random, scratch: str) -> list[Job]:
    return make_round(Search(gk, rng), SEARCH_ROUND)


SEARCH_ROUND = [
    ("iso_relabelled", (12,), 2, "S"),
    ("iso_dihedral", (8,), 2, "S"),
    ("iso_cyclic_product", (6,), 2, "S"),
    ("iso_semidirect_cyclic", (8,), 2, "S"),
    ("roundtrip_diagram", (5, 5, 1), 2, "S"),
    ("iso_product", (2, 6), 2, "S"),
    ("roundtrip_total", (4, 4, 1), 2, "M"),
    ("iso_product", (3, 5), 3, "M"),
    ("iso_product", (4, 4), 6, "M"),
    ("roundtrip_total", (5, 4, 1), 2, "M"),
    ("iso_product", (3, 6), 3, "M"),
    ("iso_semidirect_cyclic", (14,), 3, "L"),
    ("iso_cyclic_product", (8, 1), 2, "L"),
    ("iso_semidirect_cyclic", (16,), 6, "L"),
    ("iso_cyclic_product", (14,), 1, "L"),
]

def workspace(gk, rng: random.Random, scratch: str) -> list[Job]:
    return make_round(Workspace(gk, rng, scratch), WORKSPACE_ROUND)


WORKSPACE_ROUND = [
    ("validate", (3, 4), 1, "S"),
    ("validate", (3, 4, True), 1, "S"),
    ("indexed", ("check", 3, 3, 1), 1, "S"),
    ("indexed", ("check", 3, 3, 1, True), 1, "S"),
    ("iso_cyclic", (4,), 1, "S"),
    ("iso_cyclic", (4, True), 1, "S"),
    ("groth", (3, 3, 1), 1, "S"),
    ("groth", (3, 3, 1, True), 1, "S"),
    ("iso_cyclic", (5,), 1, "S"),
    ("iso_cyclic", (5, True), 1, "S"),
    ("build", (3, 4), 1, "S"),
    ("build", (3, 4, True), 1, "S"),
    ("indexed", ("roundtrip", 3, 3, 1), 2, "M"),
    ("indexed", ("roundtrip", 3, 3, 1, True), 1, "M"),
    ("groth", (4, 4, 1), 2, "M"),
    ("groth", (4, 4, 1, True), 1, "M"),
    ("validate", (4, 4), 1, "M"),
    ("validate", (4, 4, True), 1, "M"),
    ("build", (4, 4), 1, "M"),
    ("build", (4, 4, True), 1, "M"),
    ("iso_grid", (3, 4), 1, "M"),
    ("iso_grid", (3, 4, True), 1, "M"),
    ("check_opfib", (4, 4, False), 1, "M"),
    ("check_opfib", (4, 4, False, True), 1, "M"),
    ("check_opfib", (4, 4, True), 1, "M"),
    ("check_opfib", (4, 4, True, True), 1, "M"),
    ("indexed", ("roundtrip", 4, 4, 1), 2, "L"),
    ("indexed", ("roundtrip", 4, 4, 1, True), 1, "L"),
    ("iso_grid", (4, 4), 2, "L"),
    ("iso_grid", (4, 4, True), 1, "L"),
    ("ungroth", (4, 5), 2, "L"),
    ("ungroth", (4, 5, True), 1, "L"),
    ("pullback", (5, 4, 2), 2, "L"),
    ("pullback", (5, 4, 2, True), 1, "L"),
    # two operations that fail on every run until the program is fixed
    ("build_commas", (), 1, "S"),
    ("pullback_off_base", (3, 3, 2), 1, "S"),
]

WORKLOADS = {"construct": construct, "search": search, "workspace": workspace}
