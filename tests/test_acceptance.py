"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (table equality or machine-verified witnesses);
time limits are asserted where stated.
"""

import time
from pathlib import Path

from grothkit import build, examples
from grothkit.cli import run_command
from grothkit.dsl import parse_workspace, print_workspace
from grothkit.groth import base_change, groth
from grothkit.indexed import (
    discrete_check_diagram,
    discrete_check_opfib,
    indexed_fibres,
    indexed_groth,
    indexed_roundtrip_diagram,
    indexed_roundtrip_opfib,
    pseudonat_check,
)
from grothkit.fincat import (
    diagram_iso_of_tables,
    identity_functor,
    inverse_functor,
    validate_functor,
    verify_category_iso,
)
from grothkit.isosearch import FOUND, iso_search
from grothkit.opfib import check_cleavage_preserving, fibres
from grothkit.report import ValidationError

import corpus
from helpers import (
    cross_morphism_count,
    group_axiom_failures,
    groth_morphism_count,
    groth_object_count,
    semidirect_table,
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_classical_equivalence():
    start = time.monotonic()
    diagrams = corpus.corpus_diagrams()
    assert len(diagrams) >= 10
    failures = []
    for d in diagrams:
        gt = groth(d)
        q = gt.opfib()
        z = fibres(q)
        try:
            _verify_fibres_of_groth(gt, z)
        except ValidationError as err:
            failures.append(f"fibres(groth({d.name})) !~ {d.name}: {err.report.first_failure().describe()}")
            continue
        back = groth(z)
        sub = _verify_groth_of_fibres(back, gt)
        if not sub.passed:
            failures.append(f"groth(fibres({d.name})) !~ groth({d.name}): {sub.first_failure().describe()}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    _verdict(1, ok, f"{len(diagrams)} diagrams, both round trips strict, {elapsed:.1f}s"
                    + (f"; failures: {failures}" if failures else ""))


def _verify_fibres_of_groth(gt, z):
    """The canonical comparison fibres(groth F) -> F: w = (c, x) goes to x, (id, α) to α."""
    tables = {
        c: (
            {w: gt.ob_pair[w][1] for w in z.at_ob[c].objects},
            {n: gt.mor_pair[n][1] for n in z.at_ob[c].mors},
        )
        for c in z.base.objects
    }
    return diagram_iso_of_tables(z, gt.diagram, tables)


def _verify_groth_of_fibres(back, gt):
    """The canonical comparison groth(fibres q) -> q: (c, v) goes to v and
    (f, β, v) to β∘lift(v, f); an iso over the base that preserves chosen lifts."""
    q = gt.opfib()
    ob_map = {u: v for u, (_, v) in back.ob_pair.items()}
    mor_map = {
        n: gt.total.comp[(beta, q.lifts[(v, f)])] for n, (f, beta, v) in back.mor_pair.items()
    }
    fwd = validate_functor(back.total, gt.total, ob_map, mor_map, name="groth(fibres)->total")
    verify_category_iso(fwd, inverse_functor(fwd, "total->groth(fibres)"), flavor="over-base-iso")
    # the square of this check is the comparison with the projections
    return check_cleavage_preserving(fwd, identity_functor(gt.diagram.base), back.opfib(), q)


def test_criterion_2_indexed_equivalence():
    start = time.monotonic()
    opfibs = corpus.corpus_opfibs()
    zs = corpus.corpus_z_instances()
    assert len(opfibs) >= 8 and len(zs) >= 8
    base_names = {phi.base.name for phi in opfibs}
    assert {"terminal", "walking_arrow", "walking_iso", "chain(3)", "BZ2"} <= base_names
    failures = []
    for phi in opfibs:
        rep = indexed_roundtrip_opfib(phi)
        if not rep.passed:
            failures.append(f"opfib side: {phi.name}")
    for z, f in zs:
        rep = indexed_roundtrip_diagram(z, f)
        if not rep.passed:
            failures.append(f"diagram side: {z.name} on {f.name}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300
    _verdict(2, ok, f"{len(opfibs)}+{len(zs)} round trips with exact witnesses, {elapsed:.1f}s"
                    + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_stock_identities():
    bases = corpus.stock_bases()
    fibre_choices = {
        "walking_arrow": build.walking_arrow(),
        "discrete2": build.discrete(2),
        "BZ3": corpus.bz(3),
    }
    failures = []
    for name, a in bases.items():
        gt = groth(build.terminal_diagram(a))
        if iso_search(gt.total, a).status != FOUND:
            failures.append(f"groth(delta1) !~ {name}")
        for bname, b in fibre_choices.items():
            gtb = groth(build.constant_diagram(a, b))
            if iso_search(gtb.total, build.product(a, b)).status != FOUND:
                failures.append(f"groth(delta {bname}) !~ {name} x {bname}")
    # base = terminal: the indexed operations collapse to the classical ones
    f = build.one_object_diagram(build.walking_arrow(), name="pick")
    gt = groth(f)
    z0 = corpus._two_point_z(gt.total)
    phi = indexed_groth(z0, f, gt)
    classical_total = groth(
        build.validate_diagram(
            f.at_ob["*"],
            {x: z0.at_ob[gt.obj_of[("*", x)]] for x in f.at_ob["*"].objects},
            {m: z0.at_mor[gt.mor_of[(build.terminal().identity["*"], m, f.at_ob["*"].src[m])]]
             for m in f.at_ob["*"].mors},
            name="classical",
        )
    )
    if not phi.total.at_ob["*"].tables_equal(classical_total.total):
        failures.append("indexed_groth at terminal base differs from classical groth")
    z_back = indexed_fibres(phi, gt)
    classical_fibres = fibres(phi.component_opfib("*"))
    for v, (a, x) in gt.ob_pair.items():
        if not z_back.at_ob[v].tables_equal(classical_fibres.at_ob[x]):
            failures.append("indexed_fibres at terminal base differs from classical fibres")
            break
    _verdict(3, not failures, "groth(delta 1) ~ base (5 bases), groth(delta B) ~ base x B "
                              "(15 pairs), terminal-base collapse exact"
                              + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_semidirect_product():
    gt = groth(corpus.semidirect_diagram())
    elems, table, unit = semidirect_table(3)
    ok = group_axiom_failures(elems, table, unit) == []
    oracle = build.delooping(elems, table, name="BS3_oracle")
    found = iso_search(gt.total, oracle).status == FOUND
    not_cyclic = iso_search(gt.total, build.delooping(*build.cyclic_table(6))).status == "none"
    _verdict(4, ok and found and not_cyclic,
             "groth of the inversion action is the independently built Z/3 x| Z/2, and not Z/6")


def test_criterion_5_counting_laws():
    failures = []
    for d in corpus.corpus_diagrams():
        gt = groth(d)
        if len(gt.total.objects) != groth_object_count(d):
            failures.append(f"object count for {d.name}")
        if len(gt.total.mors) != groth_morphism_count(d):
            failures.append(f"morphism count for {d.name}")
    d = [x for x in corpus.corpus_diagrams() if x.name == "collapse_arrow"][0]
    gt = groth(d)
    cross = [m for m in gt.total.mors if gt.mor_pair[m][0] == "f"]
    if len(cross) != cross_morphism_count(d.at_mor["f"]):
        failures.append("cross-morphism count vs comma objects")
    _verdict(5, not failures, f"object/morphism formulas on {len(corpus.corpus_diagrams())} "
                              "instances, comma-category count exact"
                              + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_discrete_restriction():
    failures = []
    for phi in corpus.corpus_opfibs():
        if not discrete_check_opfib(phi).passed:
            failures.append(f"opfib side: {phi.name}")
    saw_nondiscrete = False
    for z, f in corpus.corpus_z_instances():
        rep = discrete_check_diagram(z, f)
        if not rep.passed:
            failures.append(f"diagram side: {z.name}")
        if any(c.name == "diagram-not-set-valued" for c in rep.checks):
            saw_nondiscrete = True
    if not saw_nondiscrete:
        failures.append("corpus lacks a non-discrete witness")
    _verdict(6, not failures, "set-valued <-> discrete biconditional on the corpus, "
                              "including a deliberately non-discrete witness"
                              + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_slice_identity():
    sq = build.commuting_square_poset()
    failures = []
    for a in sq.objects:
        _, y = build.representable_diagram(sq, a)
        total = groth(y).total
        target = build.opposite(build.slice_category(sq, a))
        if iso_search(total, target).status != FOUND:
            failures.append(a)
    _verdict(7, not failures, "groth_op of the representable at each of the four objects is "
                              "the opposite slice" + (f"; failures: {failures}" if failures else ""))


def test_criterion_8_pseudonaturality():
    start = time.monotonic()
    failures = []
    pn = corpus.pseudonat_instances()
    bc = corpus.base_change_instances()
    assert len(pn) >= 5 and len(bc) >= 5
    for alpha, phi in pn:
        rep = pseudonat_check(alpha, phi)
        if not rep.passed:
            failures.append(f"pseudonat ({alpha.name},{phi.name})")
    for h, d in bc:
        try:
            base_change(h, d)
        except Exception as err:  # noqa: BLE001 - any failure refutes the criterion
            failures.append(f"base_change ({h.name},{d.name}): {err}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _verdict(8, ok, f"{len(pn)} pseudonaturality squares and {len(bc)} base changes verified, "
                    f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_9_negative_controls(tmp_path):
    exdir = tmp_path / "examples"
    assert run_command(["examples", "-o", str(exdir)]) == 0
    cases = [
        (["validate", "-i", str(exdir / "broken_assoc.cat")], "broken associativity"),
        (["check-opfib", "-i", str(exdir / "mutated_cleavage.cat"), "p", "mutated"], "broken cleavage"),
        (
            ["check-cleavage", "-i", str(exdir / "mutated_cleavage.cat"),
             "idT", "idA", "p", "canonical", "p", "mutated"],
            "non-cleavage-preserving square",
        ),
        (["check-discrete", "-i", str(exdir / "nondiscrete.cat"), "proj"], "non-discrete fibre"),
    ]
    failures = []
    for argv, label in cases:
        rc = run_command(argv)
        if rc != 1:
            failures.append(f"{label}: exit {rc}")
    _verdict(9, not failures, "all four mutation suites refuted with exit code 1"
                              + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_parser_round_trip():
    failures = []
    for name, text in examples.shipped_examples().items():
        if name == "broken_assoc.cat":
            continue  # the deliberate negative control cannot validate
        ws = parse_workspace(text, name)
        printed = print_workspace(ws)
        ws2 = parse_workspace(printed, name)
        if print_workspace(ws2) != printed:
            failures.append(f"idempotence: {name}")
    ws = parse_workspace(examples.shipped_examples()["deltaB.cat"])
    gt = groth(ws.get("diagram", "F"))
    ws.add("category", "F_total", gt.total)
    printed = print_workspace(ws)
    ws2 = parse_workspace(printed)
    if not ws2.get("category", "F_total").tables_equal(gt.total):
        failures.append("groth output does not re-validate")
    if print_workspace(ws2) != printed:
        failures.append("groth output not byte-stable")
    _verdict(10, not failures, "round-trip idempotent on all shipped files; groth output "
                               "re-parses byte-stably" + (f"; failures: {failures}" if failures else ""))


def test_readme_quick_start_runs():
    """The README's first python block, run as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import grothkit" in block
    exec(compile(block, "README.md", "exec"), {})
