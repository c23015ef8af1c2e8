"""Command-line interface: every subcommand is a thin wrapper over one operation.

Exit codes: 0 all checks pass, 1 a check is refuted, 2 usage or parse error,
3 search budget exceeded (only `iso` searches).  `--json` switches the report
to a stable schema:
{command, inputs, verdict, witnesses[], counterexamples[], budget:{used,limit}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, field

from .dsl import (
    Workspace,
    WorkspaceParseError,
    export_diagram,
    export_opfib,
    parse_files,
    print_workspace,
    render_dot,
)
from .groth import base_change, cocone_factorize, factorize, groth
from .indexed import (
    check_diagram_opfib,
    discrete_check_diagram,
    discrete_check_opfib,
    dualize_diagram,
    dualize_opfib,
    indexed_fibres,
    indexed_groth,
    indexed_roundtrip_diagram,
    indexed_roundtrip_opfib,
    pseudonat_check,
)
from .isosearch import DEFAULT_BUDGET, FOUND, NONE, iso_search
from .opfib import (
    CleavedOpfib,
    check_cleavage_preserving,
    check_discrete_opfib,
    check_split_opfib,
    cleaved_opfib,
    fibres,
    pullback_opfib,
)
from .report import Report, UsageError, ValidationError

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class Outcome:
    verdict: str  # pass | fail | budget | error
    witnesses: list[str] = field(default_factory=list)
    counterexamples: list[str] = field(default_factory=list)
    text: str = ""
    budget_used: int = 0
    budget_limit: int | None = None
    output: str | None = None  # workspace or dot text destined for -o / stdout

    @property
    def exit_code(self) -> int:
        return {"pass": EXIT_PASS, "fail": EXIT_REFUTED, "budget": EXIT_BUDGET, "error": EXIT_USAGE}[
            self.verdict
        ]


def _outcome_from_report(rep: Report) -> Outcome:
    return Outcome(
        verdict=rep.verdict,
        witnesses=list(rep.witnesses),
        counterexamples=rep.counterexamples(),
        text=rep.describe(),
    )


def _load(args) -> Workspace:
    """The workspace of the -i files, read once for every command (`examples` takes none)."""
    paths = getattr(args, "input", None)
    return parse_files(paths) if paths else Workspace()


def _need(ws: Workspace, kind: str, name: str):
    if not ws.has(kind, name):
        raise UsageError(f"no {kind} named {name!r} in the workspace")
    return ws.get(kind, name)


def _opfib_of(ws: Workspace, p_name: str, cl_name: str) -> CleavedOpfib:
    return cleaved_opfib(_need(ws, "functor", p_name), _need(ws, "cleavage", cl_name))


def _budget(args) -> int:
    budget, source = args.budget, "--budget"
    if budget is None:
        env = os.environ.get("GROTHKIT_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget, source = int(env), "GROTHKIT_BUDGET"
        except ValueError:
            raise UsageError(f"GROTHKIT_BUDGET must be an integer, got {env!r}")
    if budget < 0:
        raise UsageError(f"{source} must not be negative, got {budget}")
    return budget


def _built(args, ws: Workspace, text: str, cat=None) -> Outcome:
    """The outcome of a command that adds to ws: the printed workspace, or with --dot the
    dot rendering of `cat`, the category the command built."""
    dot = getattr(args, "dot_flag", False)
    return Outcome("pass", text=text, output=render_dot(cat) if dot else print_workspace(ws))


def _search_outcome(result, limit: int, found_text: str, none_text: str) -> Outcome:
    if result.status == FOUND:
        return Outcome("pass", witnesses=[result.witness.describe()], text=found_text,
                       budget_used=result.nodes, budget_limit=limit)
    if result.status == NONE:
        return Outcome("fail", counterexamples=[none_text], text=none_text,
                       budget_used=result.nodes, budget_limit=limit)
    return Outcome("budget", text="budget exceeded", budget_used=result.nodes, budget_limit=limit)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args, ws: Workspace) -> Outcome:
    lines = [f"{kind} {name}: ok" for kind, name in sorted(ws.entities)]
    out = Outcome("pass", text="\n".join(lines) or "empty workspace")
    if args.dot:
        out.output = render_dot(_need(ws, "category", args.dot))
    return out


def _cmd_build(args, ws: Workspace) -> Outcome:
    # route through the DSL's builder shorthand so there is one parsing path
    declaration = f"category {args.name} = {args.spec.strip()}"
    from .dsl import _Parser

    parser = _Parser(declaration, "<build>")
    parser.ws = ws
    parser.parse()
    cat = ws.get("category", args.name)
    return _built(args, ws, f"built category {args.name}: "
                            f"{len(cat.objects)} objects, {len(cat.mors)} morphisms", cat)


def _cmd_iso(args, ws: Workspace) -> Outcome:
    c = _need(ws, "category", args.first)
    d = _need(ws, "category", args.second)
    rng = random.Random(args.seed) if args.seed is not None else None
    limit = _budget(args)
    result = iso_search(c, d, budget=limit, rng=rng)
    how = "search exhausted" if result.refuted_by is None else f"refuted by {result.refuted_by}"
    return _search_outcome(
        result,
        limit,
        f"{args.first} and {args.second} are isomorphic",
        f"no isomorphism between {args.first} and {args.second} ({how})",
    )


def _cmd_groth(args, ws: Workspace) -> Outcome:
    d = _need(ws, "diagram", args.diagram)
    gt = groth(d)
    base_name = ws.entities[("diagram", args.diagram)].refs["base"]
    total_name = ws.add("category", f"{args.diagram}_total", gt.total)
    proj_name = ws.add("functor", f"{args.diagram}_proj", gt.projection, {"dom": total_name, "cod": base_name})
    ws.add("cleavage", f"{args.diagram}_cleav", gt.lifts, {"functor": proj_name})
    return _built(args, ws, f"built {total_name}: {len(gt.total.objects)} objects, "
                            f"{len(gt.total.mors)} morphisms, projection {proj_name}", gt.total)


def _cmd_ungroth(args, ws: Workspace) -> Outcome:
    q = _opfib_of(ws, args.functor, args.cleavage)
    d = fibres(q)
    name = export_diagram(ws, f"{args.functor}_fibres", d,
                          base_name=ws.entities[("functor", args.functor)].refs["cod"])
    return _built(args, ws, f"built fibre diagram {name}")


def _cmd_factorize(args, ws: Workspace) -> Outcome:
    d = _need(ws, "diagram", args.diagram)
    gt = groth(d)
    if args.morphism not in set(gt.total.mors):
        raise UsageError(f"{args.morphism!r} is not a morphism of the total category")
    cart, vert = factorize(gt, args.morphism)
    witnesses = [f"cartesian {cart} = {gt.pretty_mor(cart)}", f"vertical {vert} = {gt.pretty_mor(vert)}"]
    return Outcome(
        "pass",
        witnesses=witnesses,
        text="\n".join([f"{args.morphism} = {vert} ∘ {cart}"] + witnesses),
    )


def _cmd_cocone_factorize(args, ws: Workspace) -> Outcome:
    sigma = _need(ws, "cocone", args.cocone)
    s = cocone_factorize(sigma)
    e = ws.entities[("cocone", args.cocone)]
    total_name = ws.add("category", f"{args.cocone}_total", s.dom)
    ws.add("functor", f"{args.cocone}_factor", s, {"dom": total_name, "cod": e.refs["vertex"]})
    return _built(args, ws, f"built mediating functor {args.cocone}_factor")


def _cmd_base_change(args, ws: Workspace) -> Outcome:
    h = _need(ws, "functor", args.functor)
    d = _need(ws, "diagram", args.diagram)
    bc = base_change(h, d)
    return Outcome(
        "pass",
        witnesses=[bc.witness.describe()],
        text=f"groth({args.diagram}∘{args.functor}) is canonically isomorphic to the pullback "
             f"of groth({args.diagram}) along {args.functor}",
    )


def _cmd_check_opfib(args, ws: Workspace) -> Outcome:
    q = _opfib_of(ws, args.functor, args.cleavage)
    return _outcome_from_report(check_split_opfib(q))


def _cmd_check_discrete(args, ws: Workspace) -> Outcome:
    p = _need(ws, "functor", args.functor)
    return _outcome_from_report(check_discrete_opfib(p))


def _cmd_check_cleavage(args, ws: Workspace) -> Outcome:
    h = _need(ws, "functor", args.h)
    k = _need(ws, "functor", args.k)
    q1 = _opfib_of(ws, args.p1, args.cl1)
    q2 = _opfib_of(ws, args.p2, args.cl2)
    return _outcome_from_report(check_cleavage_preserving(h, k, q1, q2))


def _cmd_pullback(args, ws: Workspace) -> Outcome:
    h = _need(ws, "functor", args.h)
    q = _opfib_of(ws, args.functor, args.cleavage)
    pb = pullback_opfib(h, q)
    prefix = f"pb_{args.h}_{args.functor}"
    total_name = ws.add("category", f"{prefix}_total", pb.opfib.total)
    pn = ws.add("functor", f"{prefix}_proj", pb.opfib.p,
                {"dom": total_name, "cod": ws.entities[("functor", args.h)].refs["dom"]})
    ws.add("cleavage", f"{prefix}_cleav", pb.opfib.lifts, {"functor": pn})
    return _built(args, ws, f"built pullback {prefix}_total ({len(pb.opfib.total.objects)} objects)",
                  pb.opfib.total)


def _indexed_entity(ws: Workspace, name: str):
    if ws.has("opfib", name):
        return "opfib", ws.get("opfib", name)
    if ws.has("diagram", name):
        return "diagram", ws.get("diagram", name)
    raise UsageError(f"no opfib or diagram named {name!r} in the workspace")


def _names(args, what: str, usage: str, second: str | None = None) -> None:
    """Refuse `indexed` names that do not fit `usage`; `second` says what the second name is, if one is due."""
    if second is not None and not args.second:
        raise UsageError(f"{what} needs {second}: {usage}")
    if second is None and args.second is not None:
        raise UsageError(f"{what} takes one name: {usage}")


def _cmd_indexed(args, ws: Workspace) -> Outcome:
    sub = args.indexed_command
    if sub == "groth":
        _names(args, "groth", "indexed groth Z F", "the underlying diagram")
        z = _need(ws, "diagram", args.first)
        f = _need(ws, "diagram", args.second)
        phi = indexed_groth(z, f, name=f"{args.first}_groth")
        export_opfib(ws, f"{args.first}_groth", phi, over_name=args.second)
        return _built(args, ws, f"built opfib {args.first}_groth over {args.second}")
    if sub == "fibres":
        _names(args, "fibres", "indexed fibres PHI")
        phi = _need(ws, "opfib", args.first)
        z = indexed_fibres(phi)
        total_name = ws.add("category", f"{args.first}_base_total", z.base)
        export_diagram(ws, f"{args.first}_fibres", z, base_name=total_name)
        return _built(args, ws, f"built fibre diagram {args.first}_fibres on {total_name}")
    if sub in ("roundtrip", "discrete"):
        kind, value = _indexed_entity(ws, args.first)
        what, on_opfib, on_diagram = {"roundtrip": ("roundtrip", indexed_roundtrip_opfib, indexed_roundtrip_diagram),
                                      "discrete": ("discrete check", discrete_check_opfib, discrete_check_diagram)}[sub]
        if kind == "opfib":
            _names(args, f"{what} on an opfib", f"indexed {sub} PHI")
            return _outcome_from_report(on_opfib(value))
        _names(args, f"{what} on a diagram", f"indexed {sub} Z F", "the underlying diagram")
        return _outcome_from_report(on_diagram(value, _need(ws, "diagram", args.second)))
    if sub == "pseudonat":
        _names(args, "pseudonat", "indexed pseudonat ALPHA PHI", "the opfib")
        alpha = _need(ws, "dmor", args.first)
        phi = _need(ws, "opfib", args.second)
        return _outcome_from_report(pseudonat_check(alpha, phi))
    if sub == "check":
        _names(args, "check", "indexed check PHI")
        phi = _need(ws, "opfib", args.first)
        return _outcome_from_report(check_diagram_opfib(phi, discrete=args.discrete))
    if sub == "dualize":
        _names(args, "dualize", "indexed dualize PHI|Z")
        kind, value = _indexed_entity(ws, args.first)
        if kind == "opfib":
            dual = dualize_opfib(value, name=f"{args.first}_op")
            export_opfib(ws, f"{args.first}_op", dual)
            text = f"built {dual.flavor}-flavored dual {args.first}_op"
        else:
            dual = dualize_diagram(value, name=f"{args.first}_op")
            export_diagram(ws, f"{args.first}_op", dual,
                           base_name=ws.entities[("diagram", args.first)].refs["base"])
            text = f"built pointwise dual diagram {args.first}_op"
        return _built(args, ws, text)
    raise UsageError(f"unknown indexed subcommand {sub!r}")


def _cmd_examples(args, _ws: Workspace) -> Outcome:
    from .examples import shipped_examples  # here, so that no other subcommand runs examples.py

    files = shipped_examples()
    if args.list:
        return Outcome("pass", text="\n".join(sorted(files)))
    target = args.output_dir or "."
    written = []
    try:
        os.makedirs(target, exist_ok=True)
        for name, text in sorted(files.items()):
            path = os.path.join(target, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    except OSError as err:
        raise UsageError(f"cannot write {err.filename}: {err.strerror}") from err
    return Outcome("pass", text="\n".join(written))


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# the subcommands that take only workspace names, in parser order between iso and indexed:
# (name, handler, options beyond -i and --json, the names in order, help)
_NAMED = [
    ("groth", _cmd_groth, "-o --dot", "diagram", "Grothendieck construction of a diagram"),
    ("ungroth", _cmd_ungroth, "-o", "functor cleavage", "fibres of a split opfibration"),
    ("factorize", _cmd_factorize, "", "diagram morphism", "cartesian/vertical factorization of a total morphism"),
    ("cocone-factorize", _cmd_cocone_factorize, "-o", "cocone", "mediating functor of a lax cocone"),
    ("base-change", _cmd_base_change, "", "functor diagram", "verify groth(F∘H) ≅ H*groth(F)"),
    ("check-opfib", _cmd_check_opfib, "", "functor cleavage", "split opfibration laws for a cleaved functor"),
    ("check-discrete", _cmd_check_discrete, "", "functor", "discrete opfibration check for a functor"),
    ("check-cleavage", _cmd_check_cleavage, "", "h k p1 cl1 p2 cl2", "cleavage preservation of a square"),
    ("pullback", _cmd_pullback, "-o --dot", "h functor cleavage", "pullback of a cleaved opfibration along a functor"),
]


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The whole argument parser, built once per process: parsing does not change it."""
    top = argparse.ArgumentParser(prog="grothkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output=False, dot=False):
        p.add_argument("-i", "--input", action="append", metavar="FILE",
                       help="workspace file (repeatable)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if output:
            p.add_argument("-o", "--output", metavar="FILE",
                           help="write the resulting workspace (or dot text) here")
        if dot:
            p.add_argument("--dot", dest="dot_flag", action="store_true",
                           help="emit a dot digraph of the principal output category")

    p = sub.add_parser("validate", help="parse and validate a workspace")
    common(p)
    p.add_argument("--dot", metavar="CATEGORY", default=None,
                   help="also emit a dot rendering of the named category")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("build", help="build a stock category")
    common(p, output=True, dot=True)
    p.add_argument("--name", required=True, help="name of the new category")
    p.add_argument("--spec", required=True, help='builder expression, e.g. "product(C, D)"')
    p.set_defaults(handler=_cmd_build, arguments=("name", "spec"))

    p = sub.add_parser("iso", help="search for an isomorphism of categories")
    common(p)
    p.add_argument("--budget", type=int, default=None,
                   help="search node budget (default: GROTHKIT_BUDGET or %d)" % DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle search candidate order deterministically")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_iso, arguments=("first", "second"))

    for name, handler, options, names, summary in _NAMED:
        p = sub.add_parser(name, help=summary)
        common(p, output="-o" in options, dot="--dot" in options)
        for dest in names.split():
            p.add_argument(dest)
        p.set_defaults(handler=handler, arguments=tuple(names.split()))

    p = sub.add_parser("indexed", help="indexed Grothendieck construction operations")
    common(p, output=True)
    p.add_argument("indexed_command",
                   choices=["groth", "fibres", "roundtrip", "discrete", "pseudonat", "dualize", "check"])
    p.add_argument("first")
    p.add_argument("second", nargs="?", default=None)
    p.add_argument("--discrete", action="store_true", help="use the discrete variant of the check")
    p.set_defaults(handler=_cmd_indexed, arguments=("indexed_command", "first", "second"))

    p = sub.add_parser("examples", help="write the shipped example files")
    p.add_argument("--json", action="store_true")
    p.add_argument("--list", action="store_true", help="list file names instead of writing")
    p.add_argument("-o", "--output-dir", default=None, metavar="DIR")
    p.set_defaults(handler=_cmd_examples)
    return top


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the exit status."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    as_json = getattr(args, "json", False)

    try:
        outcome: Outcome = args.handler(args, _load(args))
        dest = getattr(args, "output", None)
        if dest and outcome.output is not None:
            try:
                with open(dest, "w", encoding="utf-8") as fh:
                    fh.write(outcome.output)
            except OSError as err:
                raise UsageError(f"cannot write {dest}: {err.strerror}") from err
    except UsageError as err:
        outcome = Outcome("error", counterexamples=[str(err)], text=str(err))
    except WorkspaceParseError as err:
        kind = "fail" if err.only_semantic() else "error"
        outcome = Outcome(kind, counterexamples=[d.describe() for d in err.diagnostics],
                          text=str(err))
    except ValidationError as err:
        outcome = _outcome_from_report(err.report)
    _emit(args, outcome, as_json)
    return outcome.exit_code


def _emit(args, outcome: Outcome, as_json: bool) -> None:
    if as_json:
        payload = {
            "command": getattr(args, "command", None),
            "inputs": {
                "files": getattr(args, "input", None) or [],
                # the positional names and build's --name and --spec that the subcommand declares
                "arguments": [v for k in sorted(getattr(args, "arguments", ()))
                              if (v := getattr(args, k)) is not None],
            },
            "verdict": outcome.verdict,
            "witnesses": outcome.witnesses,
            "counterexamples": outcome.counterexamples,
            "budget": {"used": outcome.budget_used, "limit": outcome.budget_limit},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if outcome.text:
            print(outcome.text)
    if outcome.output is not None and not getattr(args, "output", None) and not as_json:
        print(outcome.output, end="")  # with -o, run_command has written it


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
