import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import grothkit
from grothkit.cli import run_command
from grothkit.dsl import parse_workspace
from grothkit.examples import shipped_examples
from grothkit.isosearch import DEFAULT_BUDGET

import corpus
from helpers import quaternion_table


@pytest.fixture(scope="module")
def exdir(tmp_path_factory):
    target = tmp_path_factory.mktemp("examples")
    rc = run_command(["examples", "-o", str(target)])
    assert rc == 0
    return target


def path(exdir, name):
    return str(exdir / name)


# `indexed` calls on identity_opfib.cat (phi is its opfib) with a name too few or too many
INDEXED_NAME_COUNTS = [
    (["groth", "phi"], "groth needs the underlying diagram: indexed groth Z F"),
    (["pseudonat", "phi"], "pseudonat needs the opfib: indexed pseudonat ALPHA PHI"),
    (["fibres", "phi", "extra"], "fibres takes one name: indexed fibres PHI"),
    (["check", "phi", "extra"], "check takes one name: indexed check PHI"),
    (["dualize", "phi", "extra"], "dualize takes one name: indexed dualize PHI|Z"),
    (["roundtrip", "phi", "extra"], "roundtrip on an opfib takes one name: indexed roundtrip PHI"),
    (["discrete", "phi", "extra"], "discrete check on an opfib takes one name: indexed discrete PHI"),
]


# validate on (file, its text or None for the shipped file, exit code, verdict, diagnostic after the path)
VALIDATE_REPORTS = [
    ("walking_arrow.cat", None, 0, "pass", None),
    ("broken_assoc.cat", None, 1, "fail",
     "3:1: semantic: 'category BAD': associativity: (r2∘r1)∘r1 = r1 but r2∘(r1∘r1) = r2"),
    ("syntax.cat", "category C {\n  objects: a ;\n  arrows: f a -> ;\n}\n", 2, "error",
     "3:3: syntax: expected 'name: src -> tgt', got 'f a ->'"),
    ("undeclared.cat", "category C {\n  objects: a ;\n  arrows: f: a -> b ;\n}\n", 1, "fail",
     "1:1: semantic: 'category C': dangling-identifier: morphism f: a -> b uses undeclared object"),
]

# ('x', 'a,b') and ('x,a', 'b') are both named (x,a,b): in the total of F, in the pullback of p
# along h and in B x X; in the slice of Y over x, the maps named by ('a', 'b,c') and ('a,b', 'c')
# are both sl(a,b,c)
COLLIDING = """\
category B {
  objects: x x,a ;
}
category X {
  objects: a,b b ;
}
category Y {
  objects: p q x ;
  arrows: a: p -> q ; a,b: p -> q ; b,c: q -> x ; c: q -> x ; u: p -> x ;
  compose: b,c.a = u ; c.a = u ; b,c.a,b = u ; c.a,b = u ;
}
diagram F on B = constant(X)
functor h : B -> B {
  ob: x |-> x ; x,a |-> x ;
}
functor p : X -> B {
  ob: a,b |-> x ; b |-> x ;
}
cleavage cl for p {
}
"""
COLLIDING_PAIRS = "('x', 'a,b') and ('x,a', 'b') are both named '(x,a,b)'"
# (arguments after the file, exit code, verdict, message); the workspace reader reports a
# builder call whose arguments do not fit together as a usage diagnostic, which exits 2 as the
# same refusal does under a command
COLLISIONS = [
    pytest.param(["groth", "F"], 2, "error", f"object name collision in groth(F): {COLLIDING_PAIRS}", id="groth"),
    pytest.param(["pullback", "h", "p", "cl"], 2, "error",
                 f"object name collision in pb(h,p): {COLLIDING_PAIRS}", id="pullback"),
    pytest.param(["build", "--name", "P", "--spec", "product(B, X)"], 2, "error",
                 f"<build>:1:1: usage: 'category P': object name collision in product(B,X): {COLLIDING_PAIRS}",
                 id="build"),
    pytest.param(["build", "--name", "S", "--spec", "slice(Y, x)"], 2, "error",
                 "<build>:1:1: usage: 'category S': morphism name collision in slice(Y,x): "
                 "('a', 'b,c') and ('a,b', 'c') are both named 'sl(a,b,c)'", id="slice"),
]


class TestExitCodes:
    @pytest.mark.parametrize("name, text, code, verdict, diagnostic", VALIDATE_REPORTS,
                             ids=[case[0] for case in VALIDATE_REPORTS])
    def test_validate_report(self, tmp_path, capsys, name, text, code, verdict, diagnostic):
        f = tmp_path / name
        f.write_text(shipped_examples()[name] if text is None else text)
        found = [f"{f}:{diagnostic}"] if diagnostic else []
        assert run_command(["validate", "-i", str(f)]) == code
        assert capsys.readouterr().out == "\n".join(found or ["category WA: ok"]) + "\n"
        assert run_command(["validate", "-i", str(f), "--json"]) == code
        assert json.loads(capsys.readouterr().out) == {
            "budget": {"limit": None, "used": 0}, "command": "validate", "counterexamples": found,
            "inputs": {"arguments": [], "files": [str(f)]}, "verdict": verdict, "witnesses": [],
        }

    def test_validate_ok(self, exdir, capsys):
        assert run_command(["validate", "-i", path(exdir, "walking_arrow.cat")]) == 0
        assert "category WA: ok" in capsys.readouterr().out

    def test_validate_broken_assoc_exits_1_with_witness(self, exdir, capsys):
        rc = run_command(["validate", "-i", path(exdir, "broken_assoc.cat")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "associativity" in out

    def test_check_opfib_mutated_exits_1(self, exdir, capsys):
        rc = run_command(["check-opfib", "-i", path(exdir, "mutated_cleavage.cat"), "p", "mutated"])
        out = capsys.readouterr().out
        assert rc == 1 and "FAIL" in out

    def test_check_cleavage_bad_square_exits_1(self, exdir, capsys):
        rc = run_command([
            "check-cleavage", "-i", path(exdir, "mutated_cleavage.cat"),
            "idT", "idA", "p", "canonical", "p", "mutated",
        ])
        assert rc == 1
        assert "lifts-preserved" in capsys.readouterr().out

    def test_check_discrete_non_discrete_exits_1(self, exdir, capsys):
        rc = run_command(["check-discrete", "-i", path(exdir, "nondiscrete.cat"), "proj"])
        out = capsys.readouterr().out
        assert rc == 1 and "2 lifts" in out

    def test_unknown_entity_exits_2(self, exdir, capsys):
        rc = run_command(["check-discrete", "-i", path(exdir, "nondiscrete.cat"), "missing"])
        assert rc == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cat"
        bad.write_text("wibble X { }\n")
        assert run_command(["validate", "-i", str(bad)]) == 2

    def test_budget_exceeded_exits_3(self, groups, capsys):
        # the search runs dry only after 1,381 nodes
        rc = run_command(["iso", "-i", groups, "Z4xZ4", "Q8xZ2", "--budget", "1"])
        assert rc == 3

    def test_env_budget_respected(self, groups, monkeypatch, capsys):
        monkeypatch.setenv("GROTHKIT_BUDGET", "1")
        rc = run_command(["iso", "-i", groups, "Z4xZ4", "Q8xZ2"])
        assert rc == 3

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("source", ["--budget", "GROTHKIT_BUDGET"])
    def test_negative_budget_is_a_usage_error(self, groups, monkeypatch, capsys, source, as_json):
        argv = ["iso", "-i", groups, "Z4xZ4", "Q8xZ2"] + ["--json"] * as_json
        if source == "--budget":
            argv += ["--budget", "-5"]
        else:
            monkeypatch.setenv("GROTHKIT_BUDGET", "-5")
        rc = run_command(argv)
        out = capsys.readouterr().out
        message = f"{source} must not be negative, got -5"
        assert rc == 2
        if as_json:
            payload = json.loads(out)
            assert payload["verdict"] == "error" and payload["counterexamples"] == [message]
            assert payload["budget"] == {"used": 0, "limit": None}
        else:
            assert out == message + "\n"

    @pytest.mark.parametrize("source", ["--budget", "GROTHKIT_BUDGET"])
    def test_zero_budget_is_valid(self, groups, monkeypatch, capsys, source):
        argv = ["iso", "-i", groups, "Z4xZ4", "Q8xZ2", "--json"]
        if source == "--budget":
            argv += ["--budget", "0"]
        else:
            monkeypatch.setenv("GROTHKIT_BUDGET", "0")
        rc = run_command(argv)
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["budget"] == {"used": 1, "limit": 0}

    @pytest.mark.parametrize("option", [["--budget", "5"], ["--seed", "3"]])
    def test_indexed_takes_no_search_options(self, exdir, capsys, option):
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), "roundtrip", "phi", *option])
        assert rc == 2

    def test_pullback_off_base_exits_2(self, exdir, capsys):
        # idT goes T -> T, but p lands in A
        rc = run_command(["pullback", "-i", path(exdir, "mutated_cleavage.cat"), "idT", "p", "canonical"])
        assert rc == 2
        assert "does not land in the base" in capsys.readouterr().out

    def test_base_change_off_base_exits_2(self, exdir, capsys):
        # invert goes BZ3 -> BZ3, but F lives on BZ2
        rc = run_command(["base-change", "-i", path(exdir, "semidirect.cat"), "invert", "F"])
        assert rc == 2
        assert capsys.readouterr().out == "invert does not land in the base of F\n"

    def test_indexed_groth_off_total_exits_2(self, exdir, capsys):
        # F lives on BZ2, not on the total category of F
        rc = run_command(["indexed", "-i", path(exdir, "semidirect.cat"), "groth", "F", "F"])
        assert rc == 2
        assert capsys.readouterr().out == "the base of F is not the total category of F\n"

    @pytest.mark.parametrize("names, message", INDEXED_NAME_COUNTS)
    def test_indexed_name_count_exits_2(self, exdir, capsys, names, message):
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), *names])
        assert (rc, capsys.readouterr().out) == (2, message + "\n")

    @pytest.mark.parametrize("sub", ["fibres", "check", "roundtrip", "discrete"])
    def test_indexed_on_fibration_flavor_exits_2(self, exdir, tmp_path, capsys, sub):
        dual = tmp_path / "dual.cat"
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), "dualize", "phi", "-o", str(dual)])
        assert rc == 0
        capsys.readouterr()
        rc = run_command(["indexed", "-i", str(dual), sub, "phi_op", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 2 and payload["verdict"] == "error"
        assert payload["counterexamples"] == [
            "phi_op is fibration-flavored; dualize it before using opfibration machinery"
        ]

    @pytest.mark.parametrize("args, code, verdict, message", COLLISIONS)
    def test_colliding_constructed_names(self, tmp_path, capsys, args, code, verdict, message):
        f = tmp_path / "colliding.cat"
        f.write_text(COLLIDING)
        argv = [args[0], "-i", str(f), *args[1:]]
        assert (run_command(argv), capsys.readouterr().out) == (code, message + "\n")
        assert run_command(argv + ["--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["counterexamples"]) == (verdict, [message])

    # a usage diagnostic exits 2 also beside a law violation, which alone would exit 1
    @pytest.mark.parametrize("extra", ["", "category BAD {\n  objects: a ;\n  arrows: f: a -> b ;\n}\n"],
                             ids=["alone", "beside-a-refutation"])
    def test_builder_collision_in_a_file_exits_2(self, tmp_path, capsys, extra):
        f = tmp_path / "colliding.cat"
        f.write_text(COLLIDING + "category P = product(B, X)\n" + extra)
        message = f"{f}:21:1: usage: 'category P': object name collision in product(B,X): {COLLIDING_PAIRS}"
        assert run_command(["validate", "-i", str(f)]) == 2
        assert capsys.readouterr().out.splitlines()[0] == message
        assert run_command(["validate", "-i", str(f), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "error" and payload["counterexamples"][0] == message

    def test_check_cleavage_off_square_exits_2(self, exdir, capsys):
        # idA is not a functor between the totals of p and p
        rc = run_command([
            "check-cleavage", "-i", path(exdir, "mutated_cleavage.cat"),
            "idA", "idA", "p", "canonical", "p", "canonical",
        ])
        assert rc == 2
        assert "is not a square" in capsys.readouterr().out


def _delooping_decl(name, elems, table):
    """A workspace line declaring the delooping of a group; the unit is listed first."""
    products = " ".join(f"{a}.{b}={table[(a, b)]}" for a in elems[1:] for b in elems[1:])
    return f"category {name} = delooping({' '.join(elems)} : {products})\n"


def _cyclic_decl(name, n):
    elems = [f"r{i}" for i in range(n)]
    return _delooping_decl(name, elems, {(f"r{i}", f"r{j}"): f"r{(i + j) % n}" for i in range(n) for j in range(n)})


@pytest.fixture(scope="module")
def groups(tmp_path_factory):
    elems, table, unit = quaternion_table()
    elems = [unit] + [e for e in elems if e != unit]
    src = tmp_path_factory.mktemp("groups") / "groups.cat"
    src.write_text(
        "".join(_cyclic_decl(f"Z{n}", n) for n in (2, 4, 8)) + _delooping_decl("Q8", elems, table)
        + "category Z4xZ2 = product(Z4, Z2)\ncategory Z4xZ4 = product(Z4, Z4)\n"
        + "category Q8xZ2 = product(Q8, Z2)\n"
    )
    return str(src)


class TestRefutation:
    @pytest.mark.parametrize("first, second, how", [
        ("Z8", "Z4xZ2", "refuted by morphism classes"),
        ("Z8", "Z4", "refuted by morphism count"),
        ("Z4xZ4", "Q8xZ2", "search exhausted"),  # same element orders, so the search runs
    ])
    def test_iso_says_how_absence_was_proved(self, groups, capsys, first, second, how):
        rc = run_command(["iso", "-i", groups, first, second])
        assert rc == 1
        assert capsys.readouterr().out == f"no isomorphism between {first} and {second} ({how})\n"

    def test_iso_refutation_json(self, groups, capsys):
        rc = run_command(["iso", "-i", groups, "Z8", "Z4xZ2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["counterexamples"] == ["no isomorphism between Z8 and Z4xZ2 (refuted by morphism classes)"]
        assert payload["budget"] == {"used": 0, "limit": DEFAULT_BUDGET}


def _fresh_process(argv, cwd, launch=("-c", "from grothkit.cli import main; main()")):
    """Run the CLI in a new interpreter; returns (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(grothkit.__file__))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *launch, *argv], capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_runs_the_cli(exdir, capsys):
    """`python -m grothkit` answers as `run_command` does, exit code and output."""
    argv = ["validate", "-i", path(exdir, "broken_assoc.cat")]
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 1 and "associativity" in captured.out
    assert _fresh_process(argv, str(exdir), launch=("-m", "grothkit")) == (rc, captured.out, captured.err)


def test_parser_reused_across_calls(exdir, monkeypatch, capsys):
    """One process running several commands answers each as a fresh process does."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["iso", "-i", path(exdir, "semidirect.cat"), "BZ2"],  # missing argument: usage error
        ["iso", "-i", path(exdir, "semidirect.cat"), "BZ3", "BZ3"],
        ["iso", "--help"],
    ]
    in_process = []
    for argv in calls:
        rc = run_command(argv)
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    assert [rc for rc, _, _ in in_process] == [2, 0, 0]
    assert in_process == [_fresh_process(argv, str(exdir)) for argv in calls]


class TestPipelines:
    def test_groth_delta1_output_is_iso_to_base(self, exdir, tmp_path, capsys):
        out = tmp_path / "total.cat"
        rc = run_command(["groth", "-i", path(exdir, "delta1.cat"), "F", "-o", str(out)])
        assert rc == 0
        capsys.readouterr()
        rc = run_command(["iso", "-i", str(out), "F_total", "A"])
        assert rc == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_groth_semidirect(self, exdir, tmp_path, capsys):
        out = tmp_path / "semi.cat"
        rc = run_command(["groth", "-i", path(exdir, "semidirect.cat"), "F", "-o", str(out)])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        total = ws.get("category", "F_total")
        assert len(total.objects) == 1 and len(total.mors) == 6

    def test_ungroth_roundtrip(self, exdir, tmp_path, capsys):
        mid = tmp_path / "total.cat"
        assert run_command(["groth", "-i", path(exdir, "deltaB.cat"), "F", "-o", str(mid)]) == 0
        capsys.readouterr()
        out = tmp_path / "fibres.cat"
        rc = run_command(["ungroth", "-i", str(mid), "F_proj", "F_cleav", "-o", str(out)])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        assert "F_proj_fibres" in ws.names("diagram")

    def test_indexed_roundtrip_identity_opfib(self, exdir, capsys):
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), "roundtrip", "phi"])
        out = capsys.readouterr().out
        assert rc == 0 and "roundtrip-isomorphism" in out

    def test_indexed_discrete(self, exdir, capsys):
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), "discrete", "phi"])
        assert rc == 0

    def test_factorize(self, exdir, capsys):
        rc = run_command([
            "factorize", "-i", path(exdir, "a2_collapse.cat"), "F", "(f,id_a)@a",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "cartesian" in out

    def test_base_change_command(self, exdir, tmp_path, capsys):
        extra = tmp_path / "h.cat"
        extra.write_text(
            "functor H : TWO -> TWO {\n  ob: a |-> a ; b |-> b ;\n  arr: f |-> f ;\n}\n"
        )
        rc = run_command([
            "base-change", "-i", path(exdir, "a2_collapse.cat"), "-i", str(extra), "H", "F",
        ])
        assert rc == 0

    def test_build_command_and_dot(self, tmp_path, capsys):
        rc = run_command(["build", "--name", "P", "--spec", "product(C, C)", "-i", str(_write(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 0 and "4 objects" in out
        rc = run_command(["build", "--name", "P", "--spec", "walking_arrow()", "--dot"])
        out = capsys.readouterr().out
        assert rc == 0 and "digraph" in out

    def test_validate_dot_flag(self, exdir, capsys):
        rc = run_command(["validate", "-i", path(exdir, "walking_arrow.cat"), "--dot", "WA"])
        out = capsys.readouterr().out
        assert rc == 0 and 'digraph "WA"' in out


def _write(tmp_path):
    p = tmp_path / "c.cat"
    p.write_text("category C { objects: a b ; arrows: f: a -> b ; }\n")
    return p


# one call of each subcommand, the -i file first, with the `inputs.arguments` of its JSON
# report: the declared values ordered by argument name, so not in the order they were given
REPORTED_ARGUMENTS = [
    (["validate", "walking_arrow.cat", "--dot", "WA"], []),
    (["build", "walking_arrow.cat", "--spec", "product(WA, WA)", "--name", "P"], ["P", "product(WA, WA)"]),
    (["iso", "semidirect.cat", "BZ3", "BZ2"], ["BZ3", "BZ2"]),
    (["groth", "semidirect.cat", "F"], ["F"]),
    (["ungroth", "mutated_cleavage.cat", "p", "canonical"], ["canonical", "p"]),
    (["factorize", "semidirect.cat", "F", "m"], ["F", "m"]),
    (["cocone-factorize", "walking_arrow.cat", "s"], ["s"]),
    (["base-change", "a2_collapse.cat", "collapse", "F"], ["F", "collapse"]),
    (["check-opfib", "mutated_cleavage.cat", "p", "mutated"], ["mutated", "p"]),
    (["check-discrete", "nondiscrete.cat", "proj"], ["proj"]),
    (["check-cleavage", "mutated_cleavage.cat", "idA", "idT", "p", "canonical", "p", "mutated"],
     ["canonical", "mutated", "idA", "idT", "p", "p"]),
    (["pullback", "mutated_cleavage.cat", "idA", "p", "canonical"], ["canonical", "p", "idA"]),
    (["indexed", "identity_opfib.cat", "roundtrip", "phi_total", "phi_over"], ["phi_total", "roundtrip", "phi_over"]),
    (["examples", None, "--list"], []),
]


def _choices(usage: str) -> list[str]:
    """The names in the first {a,b,...} of an argparse usage text."""
    return usage[usage.index("{") + 1:usage.index("}")].split(",")


def test_readme_lists_every_subcommand(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("Subcommands:")
    listed = readme[start:readme.index("`examples`", start) + len("`examples`")]
    names = re.findall(r"`([^`]+)`", listed)
    assert run_command(["--help"]) == 0
    commands = _choices(capsys.readouterr().out)
    assert run_command(["indexed", "--help"]) == 0
    indexed = _choices(capsys.readouterr().out)
    assert names == [c if c != "indexed" else "indexed " + "|".join(indexed) for c in commands]


class TestJsonReports:
    @pytest.mark.parametrize("argv, arguments", REPORTED_ARGUMENTS, ids=[a[0][0] for a in REPORTED_ARGUMENTS])
    def test_reported_arguments(self, exdir, capsys, argv, arguments):
        command, name, *rest = argv
        files = ["-i", path(exdir, name)] if name else []
        run_command([command, *files, *rest, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"] == {"arguments": arguments, "files": files[1:]}

    def test_schema_keys(self, exdir, capsys):
        rc = run_command([
            "check-discrete", "-i", path(exdir, "nondiscrete.cat"), "proj", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert set(payload) == {"command", "inputs", "verdict", "witnesses", "counterexamples", "budget"}
        assert payload["verdict"] == "fail"
        assert payload["counterexamples"]
        assert set(payload["budget"]) == {"used", "limit"}

    def test_iso_budget_limit_reported(self, exdir, capsys):
        rc = run_command(["iso", "-i", path(exdir, "semidirect.cat"), "BZ2", "BZ3", "--budget", "50", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["budget"]["limit"] == 50

    def test_pass_verdict(self, exdir, capsys):
        rc = run_command([
            "indexed", "-i", path(exdir, "identity_opfib.cat"), "roundtrip", "phi", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["verdict"] == "pass" and payload["witnesses"]
        assert payload["budget"] == {"used": 0, "limit": None}  # no search was run

    def test_examples_list(self, capsys):
        rc = run_command(["examples", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in shipped_examples():
            assert name in out


COCONE_FILE = """
category A = walking_arrow()
category ONE = terminal()
category U = chain(3)
diagram F on A = constant(ONE)
functor leg_a : ONE -> U { ob: * |-> 0 ; }
functor leg_b : ONE -> U { ob: * |-> 2 ; }
nattrans cell_f : leg_a => leg_b { at * = le(0,2) ; }
cocone s for F { vertex: U ; leg a = leg_a ; leg b = leg_b ; cell f = cell_f ; }
"""


class TestRemainingPathways:
    def test_cocone_factorize_command(self, tmp_path, capsys):
        src = tmp_path / "cocone.cat"
        src.write_text(COCONE_FILE)
        out = tmp_path / "out.cat"
        rc = run_command(["cocone-factorize", "-i", str(src), "s", "-o", str(out)])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        assert "s_factor" in ws.names("functor")

    def test_pullback_command(self, exdir, tmp_path, capsys):
        mid = tmp_path / "total.cat"
        assert run_command(["groth", "-i", path(exdir, "deltaB.cat"), "F", "-o", str(mid)]) == 0
        capsys.readouterr()
        extra = tmp_path / "h.cat"
        extra.write_text(
            "functor H : B -> A {\n  ob: a |-> 0 ; b |-> 2 ;\n  arr: f |-> le(0,2) ;\n}\n"
        )
        out = tmp_path / "pb.cat"
        rc = run_command([
            "pullback", "-i", str(mid), "-i", str(extra), "H", "F_proj", "F_cleav",
            "-o", str(out),
        ])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        assert "pb_H_F_proj_total" in ws.names("category")

    def test_indexed_groth_and_fibres_commands(self, exdir, tmp_path, capsys):
        mid = tmp_path / "total.cat"
        assert run_command(["groth", "-i", path(exdir, "delta1.cat"), "F", "-o", str(mid)]) == 0
        capsys.readouterr()
        extra = tmp_path / "z.cat"
        extra.write_text(
            "category W = walking_arrow()\ndiagram Z on F_total = constant(W)\n"
        )
        out = tmp_path / "phi.cat"
        rc = run_command([
            "indexed", "-i", str(mid), "-i", str(extra), "groth", "Z", "F", "-o", str(out),
        ])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        assert "Z_groth" in ws.names("opfib")
        capsys.readouterr()
        back = tmp_path / "z2.cat"
        rc = run_command(["indexed", "-i", str(out), "fibres", "Z_groth", "-o", str(back)])
        assert rc == 0
        ws2 = parse_workspace(back.read_text())
        assert "Z_groth_fibres" in ws2.names("diagram")

    def test_indexed_check_command(self, exdir, capsys):
        rc = run_command(["indexed", "-i", path(exdir, "identity_opfib.cat"), "check", "phi"])
        assert rc == 0

    def test_indexed_dualize_command(self, exdir, tmp_path, capsys):
        out = tmp_path / "dual.cat"
        rc = run_command([
            "indexed", "-i", path(exdir, "identity_opfib.cat"), "dualize", "phi_over",
            "-o", str(out),
        ])
        assert rc == 0
        assert "phi_over_op" in parse_workspace(out.read_text()).names("diagram")

    def test_indexed_pseudonat_command(self, tmp_path, capsys):
        from grothkit.dsl import Workspace, export_opfib, print_workspace as pw
        from grothkit import build
        from grothkit.fincat import id_name, validate_diagram_mor, validate_functor
        from grothkit.groth import groth
        from grothkit.indexed import indexed_groth

        coll = build.arrow_diagram(corpus.collapse_functor(), name="collapse")
        gtc = groth(coll)
        zc = build.constant_diagram(gtc.total, build.walking_arrow(), name="zc")
        phi = indexed_groth(zc, coll, gtc, name="phi")
        ws = Workspace()
        export_opfib(ws, "phi", phi)
        d1 = build.terminal_diagram(coll.base, name="D1")
        from grothkit.dsl import export_diagram

        export_diagram(ws, "D1", d1, base_name="phi_idx")
        pt_a = validate_functor(d1.at_ob["a"], coll.at_ob["a"], {"*": "a"},
                                {id_name("*"): id_name("a")}, name="pt_a")
        pt_b = validate_functor(d1.at_ob["b"], coll.at_ob["b"], {"*": "a"},
                                {id_name("*"): id_name("a")}, name="pt_b")
        alpha = validate_diagram_mor(d1, coll, {"a": pt_a, "b": pt_b}, name="alpha")
        na = ws.add("functor", "pt_a", pt_a, {"dom": "D1_at_a", "cod": "phi_over_at_a"})
        nb = ws.add("functor", "pt_b", pt_b, {"dom": "D1_at_b", "cod": "phi_over_at_b"})
        ws.add("dmor", "alpha", alpha, {"dom": "D1", "cod": "phi_over", "at": {"a": na, "b": nb}})
        src = tmp_path / "pn.cat"
        src.write_text(pw(ws))
        rc = run_command(["indexed", "-i", str(src), "pseudonat", "alpha", "phi"])
        out = capsys.readouterr().out
        assert rc == 0 and "pseudonaturality-square" in out

    def test_indexed_dualize_opfib_round_trips(self, exdir, tmp_path, capsys):
        out = tmp_path / "dual.cat"
        rc = run_command([
            "indexed", "-i", path(exdir, "identity_opfib.cat"), "dualize", "phi",
            "-o", str(out),
        ])
        assert rc == 0
        ws = parse_workspace(out.read_text())
        dual = ws.get("opfib", "phi_op")
        assert dual.flavor == "fibration"
        from grothkit.indexed import check_diagram_opfib, dualize_opfib

        back = dualize_opfib(dual)
        assert check_diagram_opfib(back).passed


# ---------------------------------------------------------------------------
# an output name that the input already uses is refused

# (input files, declarations the command needs, declarations that take the name, command, kind, name)
_DELTA1_Z = "category W = walking_arrow()\ndiagram Z on F_total = constant(W)"
CLASHES = [
    (["deltaB.cat"], "", "category F_total = terminal()", ["groth", "F"], "category", "F_total"),
    (["deltaB.cat"], "", "functor F_proj = identity(A)", ["groth", "F"], "functor", "F_proj"),
    (["deltaB.cat"], "", "category T = terminal()\nfunctor P = identity(T)\ncleavage F_cleav for P { }",
     ["groth", "F"], "cleavage", "F_cleav"),
    (["mutated_cleavage.cat"], "", "category p_fibres_at_a = terminal()", ["ungroth", "p", "canonical"],
     "category", "p_fibres_at_a"),
    (["mutated_cleavage.cat"], "", "category pb_idA_p_total = terminal()", ["pullback", "idA", "p", "canonical"],
     "category", "pb_idA_p_total"),
    ([], COCONE_FILE, "category s_total = terminal()", ["cocone-factorize", "s"], "category", "s_total"),
    (["delta1_total.cat"], _DELTA1_Z, "category Z_groth_idx = terminal()", ["indexed", "groth", "Z", "F"],
     "category", "Z_groth_idx"),
    (["identity_opfib.cat"], "", "category phi_base_total = terminal()", ["indexed", "fibres", "phi"],
     "category", "phi_base_total"),
    (["identity_opfib.cat"], "", "category phi_op_idx = terminal()", ["indexed", "dualize", "phi"],
     "category", "phi_op_idx"),
]


@pytest.fixture(scope="module")
def clash_inputs(exdir):
    """The shipped examples plus `delta1_total.cat`, the groth output of delta1.cat."""
    total = str(exdir / "delta1_total.cat")
    assert run_command(["groth", "-i", path(exdir, "delta1.cat"), "F", "-o", total]) == 0
    return exdir


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("files, context, clash, argv, kind, name", CLASHES,
                         ids=[c[5] for c in CLASHES])
def test_taken_output_name_exits_2_naming_it(clash_inputs, tmp_path, capsys, files, context, clash, argv,
                                             kind, name, as_json):
    (tmp_path / "context.cat").write_text(context + "\n")
    (tmp_path / "taken.cat").write_text(clash + "\n")
    inputs = [path(clash_inputs, f) for f in files] + [str(tmp_path / "context.cat")]
    command = [argv[0]] + [a for f in inputs for a in ("-i", f)] + argv[1:]
    assert run_command(command) == 0  # free names: the command succeeds
    capsys.readouterr()
    out = tmp_path / "out.cat"
    rc = run_command(command + ["-i", str(tmp_path / "taken.cat"), "-o", str(out)] + ["--json"] * as_json)
    printed = capsys.readouterr().out
    message = f"a {kind} named {name!r} is already in the workspace"
    assert rc == 2
    if as_json:
        payload = json.loads(printed)
        assert (payload["verdict"], payload["counterexamples"]) == ("error", [message])
    else:
        assert printed == message + "\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# every subcommand over every shipped example: documented exit codes only

SIGNATURES = [
    ("iso", [["category", "category"]]),
    ("groth", [["diagram"]]),
    ("ungroth", [["functor", "cleavage"]]),
    ("factorize", [["diagram", "morphism"]]),
    ("cocone-factorize", [["cocone"]]),
    ("base-change", [["functor", "diagram"]]),
    ("check-opfib", [["functor", "cleavage"]]),
    ("check-discrete", [["functor"]]),
    ("check-cleavage", [["functor", "functor", "functor", "cleavage", "functor", "cleavage"]]),
    ("pullback", [["functor", "functor", "cleavage"]]),
    ("indexed groth", [["diagram", "diagram"]]),
    ("indexed fibres", [["opfib"]]),
    ("indexed roundtrip", [["opfib"], ["diagram", "diagram"]]),
    ("indexed discrete", [["opfib"], ["diagram", "diagram"]]),
    ("indexed pseudonat", [["dmor", "opfib"]]),
    ("indexed check", [["opfib"]]),
    ("indexed dualize", [["opfib"], ["diagram"]]),
]
COMBOS_PER_SIGNATURE = 2


def _entity_names(ws, kind):
    if kind != "morphism":
        return ws.names(kind)
    from grothkit.groth import groth

    return [groth(ws.get("diagram", d)).total.mors[-1] for d in ws.names("diagram")]


def _combos(ws, signature):
    """Up to COMBOS_PER_SIGNATURE argument lists; list i fills slot j with name i + j of
    the slot's kind, cyclically, so that slots of one kind get different names."""
    pools = [_entity_names(ws, kind) for kind in signature]
    if not all(pools):
        return []
    count = min(COMBOS_PER_SIGNATURE, max(len(p) for p in pools))
    return [[p[(i + j) % len(p)] for j, p in enumerate(pools)] for i in range(count)]


def _sweep_files(exdir, tmp_path):
    from grothkit.dsl import WorkspaceParseError, parse_files

    files = []
    for name in sorted(shipped_examples()):
        try:
            ws = parse_files([path(exdir, name)])
        except WorkspaceParseError:
            continue
        files.append((path(exdir, name), ws))
    duals = []
    for f, ws in files:
        # the dual of an opfib is fibration-flavoured, which the indexed commands must refuse
        names = ws.names("opfib") or ws.names("diagram")
        if names:
            out = str(tmp_path / f"dual_{len(duals)}.cat")
            assert run_command(["indexed", "-i", f, "dualize", names[0], "-o", out]) == 0
            duals.append((out, parse_files([out])))
    return files + duals


def _unreadable(tmp_path):
    """(argv, path): -i files that cannot be read and -o targets that cannot be written."""
    latin = tmp_path / "latin1.cat"
    latin.write_bytes("category C { objects: \u00e9 ; }\n".encode("latin-1"))
    missing, out = str(tmp_path / "missing.cat"), str(tmp_path / "no_such_dir" / "P.cat")
    blocked = tmp_path / "blocked" / sorted(shipped_examples())[0]
    blocked.mkdir(parents=True, exist_ok=True)
    return [
        (["iso", "-i", missing, "a", "b"], missing),
        (["iso", "-i", str(tmp_path), "a", "b"], str(tmp_path)),
        (["validate", "-i", str(latin)], str(latin)),
        (["build", "--name", "P", "--spec", "walking_arrow()", "-o", out], out),
        # a regular file where `examples` wants a directory, and a directory where it wants its first file
        (["examples", "-o", str(latin)], str(latin)),
        (["examples", "-o", str(blocked.parent)], str(blocked)),
    ]


@pytest.mark.parametrize("as_json", [False, True])
def test_unreadable_files_exit_2_naming_the_path(tmp_path, capsys, as_json):
    reasons = ["No such file or directory", "Is a directory", "not UTF-8 text", "No such file or directory",
               "File exists", "Is a directory"]
    for (argv, name), reason in zip(_unreadable(tmp_path), reasons):
        rc = run_command(argv + ["--json"] * as_json)
        out = capsys.readouterr().out
        verb = "write" if "-o" in argv else "read"
        message = f"cannot {verb} {name}: {reason}"
        assert rc == 2, argv
        if as_json:
            payload = json.loads(out)
            assert (payload["verdict"], payload["counterexamples"]) == ("error", [message])
        else:
            assert out == message + "\n"
    assert not (tmp_path / "no_such_dir").exists()
    assert (tmp_path / "latin1.cat").is_file()
    assert os.listdir(tmp_path / "blocked") == [sorted(shipped_examples())[0]]


def test_sweep_never_raises(exdir, tmp_path, capsys):
    files = _sweep_files(exdir, tmp_path)
    runs = [["examples", "--list"]]
    # each twice in a row, so that one run of the pair adds --json below
    runs += [argv for argv, _ in _unreadable(tmp_path) for _ in range(2)]
    runs += [["validate", "-i", path(exdir, name)] for name in sorted(shipped_examples())]
    runs += [["build", "-i", f, "--name", "P", "--spec", f"product({c}, {c})"]
             for f, ws in files for c in ws.names("category")[:1]]
    # a builder call with a missing argument is a syntax error, not an IndexError
    short = ["build", "-i", files[0][0], "--name", "P", "--spec", "product(C)"]
    runs += [short] * 2
    for command, signatures in SIGNATURES:
        found = [
            command.split() + ["-i", f] + args
            for f, ws in files
            for signature in signatures
            for args in _combos(ws, signature)
        ]
        # where no shipped example has the entities, name missing ones
        runs += found or [command.split() + ["-i", files[0][0]] + ["nosuch"] * len(signatures[0])]
    # each twice, so that one run of the pair adds --json below
    counts = [["indexed", "-i", path(exdir, "identity_opfib.cat"), *names] for names, _ in INDEXED_NAME_COUNTS]
    runs += [argv for argv in counts for _ in range(2)]
    # chain(8)² has more slots than Python's recursion limit; its search takes 64 nodes, one per object
    deep = tmp_path / "deep.cat"
    deep.write_text("category C = chain(8)\ncategory P = product(C, C)\ncategory Q = product(C, C)\n")
    runs += [["iso", "-i", str(deep), "P", "Q"]] * 2
    outs = {}
    for i, argv in enumerate(runs):
        if argv[0] == "iso":
            argv = argv + ["--budget", "2000"]
        argv = argv + ["--json"] * (i % 2)
        rc = run_command(argv)
        outs[tuple(argv)] = rc, capsys.readouterr().out
        assert rc in (0, 1, 2, 3), argv
    assert outs[tuple(short)] == (2, "<build>:1:1: syntax: expected product(C, D), got product(C)\n")
    assert outs[tuple(short + ["--json"])][0] == 2
    deep_iso = ["iso", "-i", str(deep), "P", "Q", "--budget", "2000"]
    assert outs[tuple(deep_iso)] == (0, "P and Q are isomorphic\n")
    rc, out = outs[tuple(deep_iso + ["--json"])]
    assert rc == 0 and json.loads(out)["witnesses"]
    for argv, (_, message) in zip(counts, INDEXED_NAME_COUNTS):
        assert outs[tuple(argv)] == (2, message + "\n")
        rc, out = outs[tuple(argv + ["--json"])]
        assert (rc, json.loads(out)["counterexamples"]) == (2, [message])
    # forced moves take no node, but placing an object does
    assert run_command(["iso", "-i", str(deep), "P", "Q", "--budget", "0"]) == 3
    assert capsys.readouterr().out == "budget exceeded\n"
