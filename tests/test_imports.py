"""The import layering: `import grothkit` runs only the core that every caller
needs, and each other layer runs on its first use.

Each check runs in a fresh interpreter that writes no bytecode, so it sees
only what its own imports ran.  A deferred module that has not run is still
the lazy module registered by the package; `type(...)` tells the two apart
without reading an attribute, which would run it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import grothkit

PACKAGE = Path(grothkit.__file__).parent
EAGER = ["build", "fincat", "groth", "opfib", "report"]
DEFERRED = ["cli", "dsl", "examples", "indexed", "isosearch"]

PRELUDE = """\
import json, sys, types
import grothkit as gk

def unrun():
    return sorted(m for m in %r if type(sys.modules["grothkit." + m]) is not types.ModuleType)

""" % DEFERRED


def fresh(code: str):
    """Run PRELUDE and `code` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_construct_caller_runs_no_search_or_text_layer():
    assert fresh("""
        before = unrun()
        gk.product, gk.groth, gk.indexed_fibres
        print(json.dumps([before, unrun()]))
    """) == [DEFERRED, ["cli", "dsl", "examples", "isosearch"]]


def test_a_search_caller_runs_no_indexed_or_text_layer():
    assert fresh("""
        gk.iso_search
        print(json.dumps(unrun()))
    """) == ["cli", "dsl", "examples", "indexed"]


def test_the_cli_runs_examples_only_for_its_command():
    assert fresh("""
        import io, contextlib
        gk.run_command
        after_import = unrun()
        with contextlib.redirect_stdout(io.StringIO()):
            gk.run_command(["examples", "--list"])
        print(json.dumps([after_import, unrun()]))
    """) == [["examples"], []]


def test_every_export_is_its_home_modules_object():
    report = fresh("""
        import grothkit.groth
        wrong = []
        for name in gk.__all__:
            value = getattr(gk, name)
            if isinstance(value, types.ModuleType):
                own = value.__name__ == "grothkit." + name
            else:
                home = "grothkit." + gk._HOME[name] if name in gk._HOME else value.__module__
                defined = value.__module__ if isinstance(value, (type, types.FunctionType)) else home
                own = getattr(sys.modules[home], name) is value and defined == home
            if not own:
                wrong.append(name)
        groth_is_the_function = callable(gk.groth) and gk.groth is sys.modules["grothkit.groth"].groth
        print(json.dumps([len(gk.__all__), wrong, groth_is_the_function, unrun(),
                          sorted(set(gk.__all__) - set(dir(gk)))]))
    """)
    assert report == [115, [], True, [], []]


def test_star_import_binds_every_export():
    assert fresh("""
        ns = {}
        exec("from grothkit import *", ns)
        print(json.dumps([len(gk.__all__), sorted(set(ns) - {"__builtins__"}) == gk.__all__]))
    """) == [115, True]


def test_every_module_is_eager_or_deferred():
    """A new module must be imported by __init__ or listed in its _DEFERRED table."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    eager = sorted(node.module for node in init.body if isinstance(node, ast.ImportFrom) and node.level == 1)
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert eager == EAGER
    assert sorted(grothkit._DEFERRED) == DEFERRED
    assert sorted(eager + DEFERRED) == modules
