"""Tests of the benchmark's own code: every oracle rejects a deliberately wrong answer,
the tracer wraps what it claims to, and every workload's jobs pass their oracles.

    python3 -m unittest discover -s bench
"""

import contextlib
import copy
import importlib
import io
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import grothkit as gk  # noqa: E402

import inputs as gen  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def tampered(functor, **changes):
    """A copy of a functor's maps with some images replaced."""
    out = copy.copy(functor)
    object.__setattr__(out, "ob_map", {**functor.ob_map, **changes.get("ob", {})})
    object.__setattr__(out, "mor_map", {**functor.mor_map, **changes.get("mor", {})})
    return out


class CountingOracles(unittest.TestCase):
    def test_chain_and_product_counts(self):
        c = gk.chain(4)
        self.assertIsNone(orc.check_counts(c, 4, orc.chain_mors(4), "chain"))
        self.assertIsNotNone(orc.check_counts(c, 4, orc.chain_mors(4) - 1, "chain"))
        p = gk.product(gk.chain(2), gk.chain(3))
        self.assertIsNone(orc.check_counts(p, 6, 3 * 6, "product"))
        self.assertIsNotNone(orc.check_counts(p, 5, 18, "product"))

    def test_shift_formula(self):
        self.assertEqual(orc.shift_total_mors(3, 4, 0), orc.chain_mors(3) * orc.chain_mors(4))
        rng = random.Random(1)
        names = gen.Names(rng)
        bo, fo = names.take(3, "a"), names.take(4, "b")
        d = gen.shift_diagram(gk, gen.chain(gk, rng, bo, "A"), bo, gen.chain(gk, rng, fo, "B"), fo, 1, "F")
        total = gk.groth(d).total
        self.assertIsNone(orc.check_counts(total, 12, orc.shift_total_mors(3, 4, 1), "total"))
        self.assertIsNotNone(orc.check_counts(total, 12, orc.shift_total_mors(3, 4, 0), "total"))

    def test_thin_and_chain(self):
        order = ["x", "y", "z"]
        c = gk.poset(order, [("x", "y"), ("y", "z")])
        self.assertIsNone(orc.check_thin(c, "chain"))
        self.assertIsNone(orc.check_chain(c, order, "chain"))
        self.assertIsNotNone(orc.check_chain(c, list(reversed(order)), "chain"))
        e, t = gk.cyclic_table(2)
        self.assertIsNotNone(orc.check_thin(gk.delooping(e, t), "Z/2"))

    def test_read_categories(self):
        text = gen.chain_block("C", ["a", "b", "c"]) + gen.grid_block("G", ["r", "s"], ["u", "v"])
        self.assertEqual(orc.read_categories(text), {"C": (3, 6), "G": (4, 9)})


class GroupOracles(unittest.TestCase):
    def test_group_law(self):
        names = ["e", "g1", "g2", "g3"]
        z4 = gen.group(gk, random.Random(2), names, gen.cyclic_law(4), "Z4")
        self.assertIsNone(orc.check_group_law(z4, names, gen.cyclic_law(4), "Z/4"))
        self.assertIsNotNone(orc.check_group_law(z4, names, lambda a, b: (a - b) % 4, "Z/4"))

    def test_non_abelian(self):
        d3 = gen.group(gk, random.Random(3), [f"d{i}" for i in range(6)], gen.dihedral_law(3), "D3")
        self.assertIsNone(orc.check_non_abelian(d3, "D3"))
        z6 = gen.group(gk, random.Random(3), [f"z{i}" for i in range(6)], gen.cyclic_law(6), "Z6")
        self.assertIsNotNone(orc.check_non_abelian(z6, "Z6"))

    def test_cyclic_products_and_status(self):
        self.assertTrue(orc.cyclic_product_is_cyclic(3, 2))
        self.assertFalse(orc.cyclic_product_is_cyclic(4, 2))
        e6, t6 = gk.cyclic_table(6)
        e3, t3 = gk.cyclic_table(3, prefix="a")
        e2, t2 = gk.cyclic_table(2, prefix="b")
        found = gk.iso_search(gk.delooping(e6, t6), gk.product(gk.delooping(e3, t3), gk.delooping(e2, t2)))
        self.assertIsNone(orc.expect_status(found, "found", "Z/6"))
        self.assertIsNotNone(orc.expect_status(found, "none", "Z/6"))


class WitnessOracles(unittest.TestCase):
    def setUp(self):
        self.c = gk.product(gk.chain(2), gk.chain(3))
        self.d = gk.product(gk.chain(3), gk.chain(2))
        self.w = gk.iso_search(self.c, self.d).witness

    def test_category_iso(self):
        self.assertIsNone(orc.check_category_iso(self.w.forward, self.w.backward, self.c, self.d, "iso"))

    def test_category_iso_rejects_swapped_morphisms(self):
        f = self.w.forward
        m1, m2 = [m for m in self.c.non_identity_mors()][:2]
        bad = tampered(f, mor={m1: f.mor_map[m2], m2: f.mor_map[m1]})
        self.assertIsNotNone(orc.check_category_iso(bad, self.w.backward, self.c, self.d, "iso"))

    def test_category_iso_rejects_broken_composite(self):
        # swapping r1 and r2 in Z/5 is a bijection that keeps boundaries and identities
        # but sends r1.r1 = r2 to r1, while the images compose to r2.r2 = r4
        e, t = gk.cyclic_table(5)
        z5 = gk.delooping(e, t)
        w = gk.iso_search(z5, z5).witness
        swap = {"r1": w.forward.mor_map["r2"], "r2": w.forward.mor_map["r1"]}
        bad_f = tampered(w.forward, mor=swap)
        bad_b = tampered(w.backward, mor={v: k for k, v in swap.items()})
        self.assertIsNotNone(orc.check_category_iso(bad_f, bad_b, z5, z5, "iso"))

    def test_over_base(self):
        d = gk.constant_diagram(gk.chain(2), gk.chain(2))
        g1 = gk.groth(d)
        g2 = gk.groth(gk.fibres(g1.opfib()))
        r = gk.over_base_iso_search(g2.total, g2.projection, g1.total, g1.projection)
        over = (g2.projection, g1.projection)
        self.assertIsNone(orc.check_category_iso(r.witness.forward, r.witness.backward, g2.total, g1.total,
                                                 "over", over=over))
        flip = {x: ("1" if v == "0" else "0") for x, v in g2.projection.ob_map.items()}
        skewed = (tampered(g2.projection, ob=flip), g1.projection)
        self.assertIsNotNone(orc.check_category_iso(r.witness.forward, r.witness.backward, g2.total, g1.total,
                                                    "over", over=skewed))

    def test_diagram_iso(self):
        d = gk.constant_diagram(gk.walking_arrow(), gk.chain(2))
        z = gk.fibres(gk.groth(d).opfib())
        w = gk.diagram_iso_search(z, d).witness
        self.assertIsNone(orc.check_diagram_iso(w.forward, w.backward, z, d, "diagram"))
        # replace one component by a constant map: no longer an iso
        a = d.base.objects[0]
        comp = w.forward.components[a]
        y = comp.cod.objects[0]
        bad = copy.copy(w.forward)
        object.__setattr__(bad, "components", {**w.forward.components, a: tampered(
            comp, ob={x: y for x in comp.dom.objects})})
        self.assertIsNotNone(orc.check_diagram_iso(bad, w.backward, z, d, "diagram"))


class ReportAndCliOracles(unittest.TestCase):
    def test_report(self):
        q = gk.groth(gk.constant_diagram(gk.chain(2), gk.chain(2))).opfib()
        rep = gk.check_split_opfib(q)
        self.assertIsNone(orc.check_report(rep, True, "split"))
        self.assertIsNotNone(orc.check_report(rep, False, "split"))
        self.assertIsNotNone(orc.check_report(rep, True, "split", failing="identity-law"))

    def test_exit_code(self):
        self.assertIsNone(orc.check_exit(1, 1, "iso", decides=True))
        self.assertIsNotNone(orc.check_exit(0, 1, "iso", decides=True))
        self.assertIsNotNone(orc.check_exit(1, 0, "check-opfib", decides=True))
        with self.assertRaises(orc.Failed):
            orc.check_exit(2, 1, "iso", decides=True)
        with self.assertRaises(orc.Failed):
            orc.check_exit(1, 0, "build", decides=False)
        with self.assertRaises(orc.Failed):
            orc.check_exit(None, 2, "pullback", decides=False)

    def test_swapped_verdict_is_wrong(self):
        """A program that answers pass for refuted (and the reverse) makes the run incorrect."""

        class Swapped:
            def __getattr__(self, name):
                return getattr(gk, name)

            @staticmethod
            def run_command(argv):
                rc = gk.run_command(argv)
                return {0: 1, 1: 0}.get(rc, rc)

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            maker = workloads.Workspace(Swapped(), random.Random(5), tmp)
            for job in (maker.iso_cyclic(4), maker.iso_cyclic(4, True), maker.check_opfib(3, 3, True),
                        maker.check_opfib(3, 3, False, True), maker.validate(2, 2)):
                failed, wrong = run.judge(job, run.call(job))
                self.assertFalse(failed, job.kind)
                self.assertIsNotNone(wrong, job.kind)
            # a builder that exits 1 delivered no verdict: a failed operation, not a wrong one
            build = maker.build(2, 2)
            failed, _ = run.judge(build, run.call(build))
            self.assertTrue(failed)

    def test_json_report(self):
        good = ('{"command": "iso", "inputs": {}, "verdict": "fail", "witnesses": [], '
                '"counterexamples": [], "budget": {"used": 1, "limit": null}}')
        self.assertIsNone(orc.check_json_report(good, 1, "iso"))
        self.assertIsNotNone(orc.check_json_report(good, 0, "iso"))
        self.assertIsNotNone(orc.check_json_report(good.replace('"witnesses": [], ', ""), 1, "iso"))
        self.assertIsNotNone(orc.check_json_report("refuted", 1, "iso"))

    def test_reprint(self):
        text = gk.print_workspace(gk.parse_workspace(gen.chain_block("C", ["a", "b", "c"])))
        self.assertIsNone(orc.check_reprint(text, gk.parse_workspace, gk.print_workspace, "print"))
        self.assertIsNotNone(orc.check_reprint(text, gk.parse_workspace,
                                               lambda ws: gk.print_workspace(ws) + "\n", "print"))
        self.assertIsNotNone(orc.check_reprint(text.replace("->", "=>"), gk.parse_workspace,
                                               gk.print_workspace, "print"))

    def test_new_categories(self):
        with tempfile.TemporaryDirectory() as tmp:
            maker = workloads.Workspace(gk, random.Random(4), tmp)
            text = gen.chain_block("C", ["a", "b"])
            check = maker.new_categories(text, [(4, 9)], "product")
            self.assertIsNone(check(text + gen.grid_block("P", ["a", "b"], ["c", "d"])))
            self.assertIsNotNone(check(text + gen.grid_block("P", ["a", "b"], ["c"])))


class Tracer(unittest.TestCase):
    def test_triples(self):
        # composable triples of chain(n) are the sequences i <= j <= k <= l: C(n + 3, 4)
        self.assertEqual(tracing.composable_triples(gk.chain(3)), 15)

    def test_install_and_self_time(self):
        # wrap a fresh import, so the modules the other tests use stay as they are
        saved = {n: m for n, m in sys.modules.items() if n == "grothkit" or n.startswith("grothkit.")}
        for name in saved:
            del sys.modules[name]
        t = tracing.Tracer()
        try:
            fresh = importlib.import_module("grothkit")
            t.install(fresh)
        finally:
            for name in [m for m in sys.modules if m == "grothkit" or m.startswith("grothkit.")]:
                del sys.modules[name]
            sys.modules.update(saved)
        self.assertIs(fresh.make_category, fresh.fincat.make_category)
        self.assertIs(fresh.build.make_category, fresh.fincat.make_category)
        self.assertTrue(hasattr(fresh.build.product, "__wrapped__"))
        self.assertTrue(hasattr(fresh.cli.groth, "__wrapped__"))
        self.assertFalse(hasattr(fresh.fincat.pair_id, "__wrapped__"))
        t.enabled = True
        fresh.product(fresh.chain(3), fresh.chain(2))
        t.enabled = False
        self.assertGreater(t.self_ns["build"], 0)
        self.assertGreater(t.self_ns["fincat"], 0)
        self.assertEqual(t.stack, [])
        # chain(3), chain(2) and their product are validated: 15 + 5 + 15 * 5 triples
        self.assertEqual(t.count["triples"], 15 + 5 + 75)
        m = t.metrics(1, {})
        self.assertEqual(m["isosearch.nodes"][0], 0)
        self.assertGreater(m["fincat.ns_per_triple"][0], 0)


class Workloads(unittest.TestCase):
    """Every job of every workload passes its oracle, except the two known CLI faults."""

    KNOWN_FAILING = {"build_commas", "pullback_off_base"}

    def test_every_job_once(self):
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                jobs = make(gk, random.Random(7), tmp)
                failing = set()
                for job in jobs:
                    try:
                        out = job.call()
                        self.assertIsNone(job.check(out), job.kind)
                    except (orc.Failed, ValueError):
                        failing.add(job.kind)
                self.assertEqual(failing, self.KNOWN_FAILING if name == "workspace" else set())
                self.assertEqual({j.size for j in jobs}, {"S", "M", "L"})


if __name__ == "__main__":
    unittest.main()
