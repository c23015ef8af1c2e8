"""Text format for workspaces of named entities, with a canonical printer.

The format is line-oriented; `#` starts a comment and `;` separates
statements inside `{ ... }` blocks.  Identities are implicit everywhere:
declaring an object `x` creates `id_x`, and composition entries involving an
identity are synthesized.  All composites of non-identity pairs must be
declared, which keeps parsing and law-checking decoupled.  A line holding one
statement, as `print_workspace` writes them, is read by one match; any other
layout, such as several statements or a section label on one line, is accepted too.

    category C { objects: a b ; arrows: f: a -> b ; compose: g.f = h ; }
    functor T : C -> D { ob: a |-> x ; arr: f |-> g ; }
    nattrans n : T => S { at a = m ; }
    diagram F on A { at a = C ; at f = T ; }
    dmor al : F => G { at a = T ; }
    cleavage cl for P { lift (E, f) |-> e ; }
    opfib phi { over: F ; total: G ; component a = (p_a, cl_a) ; }
    cocone s for F { vertex: U ; leg a = t_a ; cell f = n_f ; }

Stock entities have a builder shorthand.  `_BUILDERS` is the one place that
knows the builders and their arguments: n is a count, B C D categories, G H
functors, c x objects of the category before them.

    category NAME = discrete(n) terminal() walking_arrow() walking_iso() chain(n)
    category NAME = poset(a b : a<b) delooping(e a : a.a=e)
    category NAME = product(C, D) opposite(C) slice(C, c) coslice(C, c)
    functor NAME = identity(C) compose(G, H) constant(C, D, x)
    diagram NAME on BASE = constant(B) representable(C, c)  # BASE = opposite(C)

Entities must be declared before they are referenced.  Parsing validates
every entity with its module's validator; diagnostics carry file, line,
column and an error class (lexical, syntax, reference, semantic, usage).
A builder whose arguments do not fit together gives a usage diagnostic.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from . import build
from .fincat import (
    CatDiagram,
    DiagramMor,
    FinCat,
    FunctorData,
    NatTransData,
    compose_functors,
    id_name,
    identity_functor,
    identity_nat_trans,
    make_category,
    validate_diagram,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from .groth import LaxCocone, validate_lax_cocone
from .indexed import DiagramOpfib, diagram_opfib
from .opfib import cleaved_opfib
from .report import UsageError, ValidationError

NAME_RE = re.compile(r"^[^\s;:.={}#|]+$")
RESERVED_MEMBERS = {"objects", "arrows", "compose", "ob", "arr"}
KINDS = ("category", "functor", "nattrans", "diagram", "dmor", "cleavage", "opfib", "cocone")

# One pattern per statement form, compiled once; each is used with `match`.
# A statement runs from its first to its last character that is neither `;` nor whitespace.
_STATEMENT = re.compile(r"[^;\s](?:[^;]*[^;\s])?")
_ARROW = re.compile(r"(\S+?)\s*:\s*(\S+)\s*->\s*(\S+)$")
_COMPOSE = re.compile(r"(\S+)\.(\S+)\s*=\s*(\S+)$")
_BUILDER = re.compile(r"(\w+)\s*\((.*)\)$", re.DOTALL)
_RELATION = re.compile(r"([^<]*)<(.*)$")
_PRODUCT = re.compile(r"(\S+?)\.(\S+?)=(\S+)$")
_FUNCTOR_HEAD = re.compile(r"functor\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_NATTRANS_HEAD = re.compile(r"nattrans\s+(\S+)\s*:\s*(\S+)\s*=>\s*(\S+)$")
_DMOR_HEAD = re.compile(r"dmor\s+(\S+)\s*:\s*(\S+)\s*=>\s*(\S+)$")
_MAPS_TO = re.compile(r"(\S+)\s*\|->\s*(\S+)$")
_AT = re.compile(r"at\s+(\S+)\s*=\s*(\S+)$")
_LIFT = re.compile(r"lift\s*\((.*)\)\s*\|->\s*(\S+)$")
# the keywords of each alternation differ in their first letter, so at most one branch matches
_OPFIB_ENTRY = re.compile(r"(?:(over|total|flavor)\s*:\s*(\S+)|component\s+(\S+)\s*=\s*\((.*)\))$")
_COCONE_ENTRY = re.compile(r"(?:vertex\s*:\s*(\S+)|(leg|cell)\s+(\S+)\s*=\s*(\S+))$")
# Whole-line forms, used with `fullmatch`: a line holding one statement, an optional `;` and
# whitespace, read with the groups its statement pattern gives.  A name in a form is printable
# ASCII other than `.`, `:`, `;`, `=` and `|`, so it holds no separator of the statement's parts
# and opens no section, and each form reads a line the one way its statement pattern reads the
# statement; a line led by a section label, or holding another name, is left to the splitter.
_N = r"([!-\-/-9<>-{}~]+)"


def _line_form(statement: str) -> re.Pattern:
    return re.compile(rf"\s*(?:{statement})\s*;?\s*")


_MAPS_TO_LINE = _line_form(rf"{_N}\s*\|->\s*{_N}")
# per kind of block body, the statement pattern and whole-line form of each section; None is the
# section before any label, and the only one of a body without labels
_SECTIONS = {
    "category": {"objects": (None, None),
                 "arrows": (_ARROW, _line_form(rf"(?!objects:|arrows:|compose:){_N}\s*:\s*{_N}\s*->\s*{_N}")),
                 "compose": (_COMPOSE, _line_form(rf"{_N}\.{_N}\s*=\s*{_N}"))},
    "functor": {"ob": (_MAPS_TO, _MAPS_TO_LINE), "arr": (_MAPS_TO, _MAPS_TO_LINE)},
    "at": {None: (_AT, _line_form(rf"at\s+{_N}\s*=\s*{_N}"))},
    "cleavage": {None: (_LIFT, _line_form(rf"lift\s*\(([^;|]*)\)\s*\|->\s*{_N}"))},
    "opfib": {None: (_OPFIB_ENTRY, _line_form(rf"(over|total|flavor)\s*:\s*{_N}|component\s+{_N}\s*=\s*\(([^;=]*)\)"))},
    "cocone": {None: (_COCONE_ENTRY, _line_form(rf"vertex\s*:\s*{_N}|(leg|cell)\s+{_N}\s*=\s*{_N}"))},
}


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    col: int
    kind: str  # lexical | syntax | reference | semantic | usage
    message: str

    def describe(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.kind}: {self.message}"


class WorkspaceParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("\n".join(d.describe() for d in diagnostics))
        self.diagnostics = diagnostics

    def only_semantic(self) -> bool:
        return all(d.kind == "semantic" for d in self.diagnostics)


@dataclass
class Entity:
    kind: str
    name: str
    refs: dict
    value: object


@dataclass
class Workspace:
    entities: dict[tuple[str, str], Entity] = field(default_factory=dict)

    def add(self, kind: str, name: str, value, refs: dict | None = None) -> str:
        """Add an entity under a free name and return the name; a taken name is refused."""
        if (kind, name) in self.entities:
            raise UsageError(f"a {kind} named {name!r} is already in the workspace")
        self.entities[(kind, name)] = Entity(kind, name, refs or {}, value)
        return name

    def has(self, kind: str, name: str) -> bool:
        return (kind, name) in self.entities

    def get(self, kind: str, name: str):
        return self.entities[(kind, name)].value

    def names(self, kind: str) -> list[str]:
        return sorted(n for k, n in self.entities if k == kind)

    def of_kind(self, kind: str) -> list[Entity]:
        return [self.entities[(k, n)] for k, n in sorted(self.entities) if k == kind]


def split_top(s: str, sep: str = ",") -> list[str]:
    """Split on separators not nested inside parentheses or brackets."""
    if not any(ch in s for ch in "()[]"):
        return [p.strip() for p in s.split(sep)]
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _valid_name(tok: str) -> bool:
    return bool(NAME_RE.match(tok)) and "->" not in tok and tok not in RESERVED_MEMBERS


# ---------------------------------------------------------------------------
# parsing


def _statements(body: list[str], first: int, sections: dict) -> Iterator[tuple]:
    """(section, match, text, line, col) of each statement of the lines `body`, from line `first`.

    `sections` is a block kind's entry of `_SECTIONS`.  A line its section's form reads is one
    statement, whose match is the form's and whose text is None.  Any other line is split at `;`
    into stripped statements; a leading `label:` opens a section, and the match is the section
    pattern's, or None."""
    section = None
    pattern, form = sections.get(None, (None, None))
    for ln, line in enumerate(body, first):
        m = form and form.fullmatch(line)
        if m:
            yield section, m, None, ln, len(line) - len(line.lstrip()) + 1
            continue
        for s in _STATEMENT.finditer(line):
            text = s[0]
            label, colon, rest = text.partition(":")
            if colon and label in sections:
                section, text = label, rest.strip()
                pattern, form = sections[label]
                if not text:
                    continue
            yield section, pattern and pattern.match(text), text, ln, s.start() + 1


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.diags: list[Diagnostic] = []
        self.ws = Workspace()
        # strip comments but keep line structure for positions
        self.lines = text.splitlines()
        if "#" in text:
            self.lines = [ln.partition("#")[0] for ln in self.lines]

    # -- diagnostics --------------------------------------------------------

    def err(self, kind: str, line: int, col: int, message: str) -> None:
        self.diags.append(Diagnostic(self.filename, line, col, kind, message))

    # -- declarations and blocks -------------------------------------------

    def parse(self) -> Workspace:
        lines = self.lines
        text = "\n".join(lines)  # where a block's closing brace is found
        i, at = 0, 0  # line i starts at offset `at` of text
        while i < len(lines):
            line = lines[i]
            stripped = line.strip()
            j, start_j = i, at  # the declaration's last line and its offset
            if stripped and (head := stripped.split(None, 1)[0]) not in KINDS:
                self.err("syntax", i + 1, line.index(head) + 1, f"expected an entity keyword, got {head!r}")
            elif "{" in stripped:
                start = line.index("{") + 1
                header = line[: start - 1].strip()
                close = text.find("}", at + start)
                if close < 0:
                    self.err("syntax", i + 1, 1, f"unterminated block for {header!r}")
                    return self._finish()
                j, start_j = i + text.count("\n", at, close), text.rfind("\n", 0, close) + 1
                # blanking the header keeps the columns of statements on its line counted from the line start
                self._entity(header, (" " * start + text[at + start : close]).split("\n"), i + 1)
                tail = lines[j][close - start_j + 1 :]
                if tail.strip():
                    col = close - start_j + 2 + tail.index(tail.strip()[0])
                    self.err("syntax", j + 1, col, f"unexpected text after '}}': {tail.strip()!r}")
            elif "=" in stripped:
                header, expr = stripped.split("=", 1)
                self._builder(header.strip(), expr.strip(), i + 1)
            elif stripped:
                self.err("syntax", i + 1, 1, f"expected '{{' or '=' in declaration {stripped!r}")
            i, at = j + 1, start_j + len(lines[j]) + 1
        return self._finish()

    def _finish(self) -> Workspace:
        if self.diags:
            raise WorkspaceParseError(self.diags)
        return self.ws

    # -- helpers ------------------------------------------------------------

    def _free(self, kind: str, name: str, line: int) -> bool:
        """Whether `name` is a valid name that no `kind` has taken; reports why not."""
        if not _valid_name(name):
            self.err("lexical", line, 1, f"invalid {kind} name {name!r}")
            return False
        if self.ws.has(kind, name):
            self.err("reference", line, 1, f"duplicate {kind} name {name!r}")
            return False
        return True

    def _declare(self, kind: str, name: str, refs: dict, value, line: int) -> None:
        if self._free(kind, name, line):
            self.ws.add(kind, name, value, refs)

    def _resolve(self, kind: str, refs: Iterable[str], line: int) -> list | None:
        """The `kind` entities named by `refs`, or None after a diagnostic for each unknown name."""
        refs = list(refs)
        missing = [r for r in refs if not self.ws.has(kind, r)]
        for r in missing:
            self.err("reference", line, 1, f"unknown {kind} {r!r}")
        return None if missing else [self.ws.get(kind, r) for r in refs]

    def _check_member(self, tok: str, line: int, col: int, what: str) -> bool:
        if not _valid_name(tok) or tok.startswith("id_") and what in ("arrow",):
            self.err("lexical", line, col, f"invalid {what} name {tok!r}")
            return False
        return True

    def _new_key(self, given: dict, key, entry: str, line: int, col: int) -> bool:
        """Whether no earlier entry of the block gave `key`; records its line in `given`, or reports
        the entry, written as `entry.format(key)`, and the line that first gave it."""
        if key in given:
            self.err("reference", line, col, f"{entry.format(key)!r} given twice, first on line {given[key]}")
            return False
        given[key] = line
        return True

    # -- entities -----------------------------------------------------------

    def _entity(self, header: str, body: list[str], line: int) -> None:
        words = header.split()
        try:
            getattr(self, f"_{words[0]}")(header, words, body, line)  # `_category` for a category block, ...
        except ValidationError as err:
            detail = err.report.summary() or err.report.title
            self.err("semantic", line, 1, f"{header!r}: {detail}")

    def _category(self, header: str, words: list[str], body: list[str], line: int) -> None:
        if len(words) != 2:
            self.err("syntax", line, 1, "expected: category NAME { ... }")
            return
        name = words[1]
        objects: list[str] = []
        arrows: list[tuple[str, str, str]] = []
        comp: dict[tuple[str, str], str] = {}
        ok = True
        given: dict[tuple[str, str], int] = {}  # the line of each compose entry
        for section, m, text, ln, col in _statements(body, line, _SECTIONS["category"]):
            if section == "compose" and m:
                key = m[1], m[2]
                if self._new_key(given, key, "{0[0]}.{0[1]}", ln, col):
                    comp[key] = m[3]
                else:
                    ok = False
            elif section == "arrows" and m:
                if self._check_member(m[1], ln, col, "arrow"):
                    arrows.append(m.groups())
                else:
                    ok = False
            elif section == "objects":
                for tok in text.split():
                    if self._check_member(tok, ln, col, "object"):
                        objects.append(tok)
                    else:
                        ok = False
            elif section is None:
                self.err("syntax", ln, col, f"statement outside a section: {text!r}")
                ok = False
            else:
                form = "name: src -> tgt" if section == "arrows" else "g.f = h"
                self.err("syntax", ln, col, f"expected '{form}', got {text!r}")
                ok = False
        if not ok:
            return
        declared = {a for a, _, _ in arrows} | {id_name(x) for x in objects}
        if not declared.issuperset(chain(chain.from_iterable(comp), comp.values())):
            # name the first undeclared morphism in entry order
            for (g, f), h in comp.items():
                for tok in (g, f, h):
                    if tok not in declared:
                        self.err("reference", line, 1, f"compose entry uses undeclared morphism {tok!r}")
                        return
        self._declare("category", name, {}, make_category(name, objects, arrows, comp), line)

    def _builder(self, header: str, expr: str, line: int) -> None:
        words = header.split()
        kind = words[0]
        m = _BUILDER.match(expr)
        if not m:
            self.err("syntax", line, 1, f"expected BUILDER(...), got {expr!r}")
            return
        builder, argtext = m[1], m[2].strip()
        if kind not in _HEADERS:
            self.err("syntax", line, 1, f"{kind} has no builder shorthand")
            return
        form = _HEADERS[kind].split()
        if len(words) != len(form) or any(w != f for w, f in zip(words, form) if f.islower()):
            self.err("syntax", line, 1, f"expected: {_HEADERS[kind]} = builder(...)")
            return
        name = words[1]
        base = self._resolve("category", words[3:], line)  # a diagram's base; [] for the other kinds
        if base is None:
            return
        sig = _BUILDERS.get((kind, builder))
        if sig is None:
            self.err("syntax", line, 1, f"unknown {kind} builder {builder!r}")
            return
        if sig.params in ((_ORDER,), (_GROUP,)):
            args, values = [], self._element_list(sig.params[0], argtext, line)
        else:
            args = split_top(argtext) if argtext else []
            counts = [a for p, a in zip(sig.params, args) if p == _COUNT]
            if len(args) != len(sig.params) or not all(a.isdecimal() for a in counts):
                self.err("syntax", line, 1, f"expected {sig.usage}, got {builder}({argtext})")
                return
            values = [self._argument(p, a, line) for p, a in zip(sig.params, args)]
        if values is None or any(v is None for v in values):
            return
        try:
            if kind == "diagram":
                made = sig.make(self, name, words[3], base[0], args, values, line)
            else:
                made = dataclasses.replace(sig.make(*values), name=name), self._refs(kind, sig.params, args)
        except ValidationError as err:
            self.err("semantic", line, 1, f"{header!r}: {err.report.summary() or err.report.title}")
            return
        except UsageError as err:  # arguments that do not fit together: exit 2, as under a command
            self.err("usage", line, 1, f"{header!r}: {err}")
            return
        if made is not None:
            value, refs = made
            self._declare(kind, name, refs, value, line)

    def _argument(self, param: str, tok: str, line: int):
        """A builder argument: a count, a resolved reference (None if unknown), or an object name."""
        if param == _COUNT:
            return int(tok)
        if param == _OBJECT:
            return tok
        found = self._resolve(param, [tok], line)
        return found and found[0]

    def _element_list(self, param: str, argtext: str, line: int) -> list | None:
        """[elements, items] of poset(a b : a<b) or delooping(e a : a.a=e), or None after a diagnostic."""
        member, item_re, item_error = _ELEMENT_LISTS[param]
        elems_text, _, items_text = argtext.partition(":")
        elems = elems_text.split()
        # the printer writes poset elements as objects and delooping elements as arrows;
        # the checks run in a list so that every invalid element is reported
        if not all([self._check_member(x, line, 1, member) for x in elems]):
            return None
        items = []
        for item in items_text.split():
            m = item_re.match(item)
            if not m:
                self.err("syntax", line, 1, item_error.format(item))
                return None
            items.append(m.groups())
        return [elems, items]

    def _refs(self, kind: str, params: tuple[str, ...], args: list[str]) -> dict:
        """A built functor runs from its first to its last category argument, and G∘H from H's
        domain to G's codomain; a built category refers to nothing."""
        if kind == "category":
            return {}
        cats = [a for p, a in zip(params, args) if p == "category"]
        if cats:
            return {"dom": cats[0], "cod": cats[-1]}
        return {"dom": self.ws.entities[("functor", args[-1])].refs["dom"],
                "cod": self.ws.entities[("functor", args[0])].refs["cod"]}

    def _constant_diagram(self, name: str, base_name: str, base: FinCat, args: list[str], values: list, line: int):
        fibre_name, fibre = args[0], values[0]
        value = build.constant_diagram(base, fibre, name=name)
        ident = f"__id_{fibre_name}"
        if not self.ws.has("functor", ident):
            self.ws.add("functor", ident, identity_functor(fibre), {"dom": fibre_name, "cod": fibre_name})
        elif not self.ws.get("functor", ident).tables_equal(identity_functor(fibre)):
            self.err("reference", line, 1, f"functor {ident!r} is not the identity of {fibre_name!r}")
            return None
        return value, {
            "base": base_name,
            "at_ob": {x: fibre_name for x in base.objects},
            "at_mor": {f: ident for f in base.non_identity_mors()},
        }

    def _representable_diagram(self, name: str, base_name: str, base: FinCat, args: list[str], values: list,
                               line: int):
        fresh_base, diagram = build.representable_diagram(*values, name=name)
        if not fresh_base.tables_equal(base):
            self.err("semantic", line, 1, f"base {base_name!r} is not opposite({args[0]})")
            return None
        value = validate_diagram(base, dict(diagram.at_ob), dict(diagram.at_mor), name=name)
        if not self._free("diagram", name, line):  # before any sub-entity is added
            return None
        try:
            at_ob_refs = {x: self.ws.add("category", f"__{name}_at_{x}", value.at_ob[x]) for x in base.objects}
            at_mor_refs = {
                f: self.ws.add("functor", f"__{name}_arr_{f}", value.at_mor[f],
                               {"dom": at_ob_refs[base.src[f]], "cod": at_ob_refs[base.tgt[f]]})
                for f in base.non_identity_mors()
            }
        except UsageError as err:  # the user declared an entity under a generated name
            self.err("reference", line, 1, str(err))
            return None
        return value, {"base": base_name, "at_ob": at_ob_refs, "at_mor": at_mor_refs}

    def _functor(self, header: str, words: list[str], body: list[str], line: int) -> None:
        m = _FUNCTOR_HEAD.match(header)
        if not m:
            self.err("syntax", line, 1, "expected: functor NAME : C -> D { ... }")
            return
        name, dom_name, cod_name = m.groups()
        found = self._resolve("category", [dom_name, cod_name], line)
        if found is None:
            return
        dom, cod = found
        ob_map: dict[str, str] = {}
        mor_map: dict[str, str] = {}
        given: dict[tuple[str, str], int] = {}  # the line of each entry, by section and key
        for section, m, text, ln, col in _statements(body, line, _SECTIONS["functor"]):
            if not m or section is None:
                self.err("syntax", ln, col, f"expected 'x |-> y' in ob/arr section, got {text!r}")
                return
            if not self._new_key(given, (section, m[1]), "{0[0]} {0[1]}", ln, col):
                return
            (ob_map if section == "ob" else mor_map)[m[1]] = m[2]
        for x in dom.objects:
            if x in ob_map:
                mor_map.setdefault(dom.identity[x], cod.identity.get(ob_map[x], ""))
        self._declare(
            "functor",
            name,
            {"dom": dom_name, "cod": cod_name},
            validate_functor(dom, cod, ob_map, mor_map, name=name),
            line,
        )

    def _nattrans(self, header: str, words: list[str], body: list[str], line: int) -> None:
        m = _NATTRANS_HEAD.match(header)
        if not m:
            self.err("syntax", line, 1, "expected: nattrans NAME : F => G { ... }")
            return
        name, f_name, g_name = m.groups()
        found = self._resolve("functor", [f_name, g_name], line)
        comps = self._at_block(body, line) if found else None
        if comps is None:
            return
        f, g = found
        self._declare(
            "nattrans",
            name,
            {"dom": f_name, "cod": g_name},
            validate_nat_trans(f, g, comps, name=name),
            line,
        )

    def _at_block(self, body: list[str], line: int) -> dict[str, str] | None:
        out: dict[str, str] = {}
        given: dict[str, int] = {}  # the line of each entry
        for _, m, text, ln, col in _statements(body, line, _SECTIONS["at"]):
            if not m:
                self.err("syntax", ln, col, f"expected 'at key = value', got {text!r}")
                return None
            if not self._new_key(given, m[1], "at {0}", ln, col):
                return None
            out[m[1]] = m[2]
        return out

    def _diagram(self, header: str, words: list[str], body: list[str], line: int) -> None:
        if len(words) != 4 or words[2] != "on":
            self.err("syntax", line, 1, "expected: diagram NAME on BASE { ... }")
            return
        name, base_name = words[1], words[3]
        found = self._resolve("category", [base_name], line)
        entries = self._at_block(body, line) if found else None
        if entries is None:
            return
        base = found[0]
        base_objects, base_mors = set(base.objects), set(base.mors)
        at_ob_refs = {k: ref for k, ref in entries.items() if k in base_objects}
        at_mor_refs = {k: ref for k, ref in entries.items() if k not in base_objects and k in base_mors}
        for key in entries:
            if key not in base_objects and key not in base_mors:
                self.err("reference", line, 1, f"{key!r} is neither an object nor a morphism of {base_name}")
                return
        fibres = self._resolve("category", at_ob_refs.values(), line)
        actions = self._resolve("functor", at_mor_refs.values(), line)
        if fibres is None or actions is None:
            return
        at_ob = dict(zip(at_ob_refs, fibres))
        at_mor = dict(zip(at_mor_refs, actions))
        for x in base.objects:
            if x in at_ob:
                at_mor.setdefault(base.identity[x], identity_functor(at_ob[x]))
        self._declare(
            "diagram",
            name,
            {"base": base_name, "at_ob": at_ob_refs, "at_mor": at_mor_refs},
            validate_diagram(base, at_ob, at_mor, name=name),
            line,
        )

    def _dmor(self, header: str, words: list[str], body: list[str], line: int) -> None:
        m = _DMOR_HEAD.match(header)
        if not m:
            self.err("syntax", line, 1, "expected: dmor NAME : F => G { ... }")
            return
        name, f_name, g_name = m.groups()
        found = self._resolve("diagram", [f_name, g_name], line)
        refs = self._at_block(body, line) if found else None
        comps = self._resolve("functor", refs.values(), line) if refs is not None else None
        if comps is None:
            return
        f, g = found
        self._declare(
            "dmor",
            name,
            {"dom": f_name, "cod": g_name, "at": refs},
            validate_diagram_mor(f, g, dict(zip(refs, comps)), name=name),
            line,
        )

    def _cleavage(self, header: str, words: list[str], body: list[str], line: int) -> None:
        if len(words) != 4 or words[2] != "for":
            self.err("syntax", line, 1, "expected: cleavage NAME for FUNCTOR { ... }")
            return
        name, p_name = words[1], words[3]
        found = self._resolve("functor", [p_name], line)
        if found is None:
            return
        p = found[0]
        lifts: dict[tuple[str, str], str] = {}
        given: dict[tuple[str, str], int] = {}  # the line of each entry
        for _, m, text, ln, col in _statements(body, line, _SECTIONS["cleavage"]):
            if not m:
                self.err("syntax", ln, col, f"expected 'lift (E, f) |-> e', got {text!r}")
                return
            parts = split_top(m[1])
            if len(parts) != 2:
                self.err("syntax", ln, col, f"expected two entries in lift key, got {m[1]!r}")
                return
            key = parts[0], parts[1]
            if not self._new_key(given, key, "lift ({0[0]}, {0[1]})", ln, col):
                return
            lifts[key] = m[2]
        total, base = p.dom, p.cod
        for e in total.objects:
            lifts.setdefault((e, base.identity[p.ob_map[e]]), total.identity[e])
        # accept either orientation: opfibration lifts, or the co-lifts of a dual (lifts between the opposites)
        try:
            cleaved_opfib(p, lifts)
        except ValidationError as err:
            try:
                cleaved_opfib(build.opposite_functor(p), lifts)
            except ValidationError:
                raise err from None
        self._declare("cleavage", name, {"functor": p_name}, lifts, line)

    def _opfib(self, header: str, words: list[str], body: list[str], line: int) -> None:
        if len(words) != 2:
            self.err("syntax", line, 1, "expected: opfib NAME { ... }")
            return
        name = words[1]
        over_name = total_name = None
        flavor = "opfibration"
        comps: dict[str, tuple[str, str]] = {}
        given: dict[str, int] = {}  # the line of each entry, by its key as written
        for _, m, text, ln, col in _statements(body, line, _SECTIONS["opfib"]):
            if not m:
                self.err("syntax", ln, col, f"unexpected statement {text!r} in opfib block")
                return
            key, value, a, pair = m.groups()
            if not self._new_key(given, f"{key}:" if key else f"component {a}", "{0}", ln, col):
                return
            if key == "over":
                over_name = value
            elif key == "total":
                total_name = value
            elif key == "flavor":
                flavor = value
                if flavor not in ("opfibration", "fibration"):
                    self.err("syntax", ln, col, f"unknown flavor {flavor!r}")
                    return
            else:
                parts = split_top(pair)
                if len(parts) != 2:
                    self.err("syntax", ln, col, "component needs (functor, cleavage)")
                    return
                comps[a] = (parts[0], parts[1])
        if over_name is None or total_name is None:
            self.err("syntax", line, 1, "opfib block needs 'over:' and 'total:' entries")
            return
        found = self._resolve("diagram", [over_name, total_name], line)
        if found is None:
            return
        functors = self._resolve("functor", [fn for fn, _ in comps.values()], line)
        cleavages = self._resolve("cleavage", [cn for _, cn in comps.values()], line)
        if functors is None or cleavages is None:
            return
        self._declare(
            "opfib",
            name,
            {"over": over_name, "total": total_name, "components": comps},
            diagram_opfib(*found, dict(zip(comps, functors)), dict(zip(comps, cleavages)), name=name, flavor=flavor),
            line,
        )

    def _cocone(self, header: str, words: list[str], body: list[str], line: int) -> None:
        if len(words) != 4 or words[2] != "for":
            self.err("syntax", line, 1, "expected: cocone NAME for DIAGRAM { ... }")
            return
        name, d_name = words[1], words[3]
        found = self._resolve("diagram", [d_name], line)
        if found is None:
            return
        diagram = found[0]
        vertex_name = None
        leg_refs: dict[str, str] = {}
        cell_refs: dict[str, str] = {}
        given: dict[str, int] = {}  # the line of each entry, by its key as written
        for _, m, text, ln, col in _statements(body, line, _SECTIONS["cocone"]):
            if not m:
                self.err("syntax", ln, col, f"unexpected statement {text!r} in cocone block")
                return
            vertex, key, a, ref = m.groups()
            if not self._new_key(given, "vertex:" if key is None else f"{key} {a}", "{0}", ln, col):
                return
            if vertex is not None:
                vertex_name = vertex
            else:
                (leg_refs if key == "leg" else cell_refs)[a] = ref
        if vertex_name is None:
            self.err("syntax", line, 1, "cocone block needs a 'vertex:' entry")
            return
        found = self._resolve("category", [vertex_name], line)
        legs = self._resolve("functor", leg_refs.values(), line) if found else None
        cells = self._resolve("nattrans", cell_refs.values(), line) if legs is not None else None
        if cells is None:
            return
        vertex, legs, cells = found[0], dict(zip(leg_refs, legs)), dict(zip(cell_refs, cells))
        base = diagram.base
        for x in base.objects:
            if x in legs:
                cells.setdefault(base.identity[x], identity_nat_trans(legs[x]))
        self._declare(
            "cocone",
            name,
            {"diagram": d_name, "vertex": vertex_name, "legs": leg_refs, "cells": cell_refs},
            validate_lax_cocone(diagram, vertex, legs, cells, name=name),
            line,
        )


# ---------------------------------------------------------------------------
# the builder shorthand: the one place that knows the builders and their arguments


class _Signature(NamedTuple):
    usage: str  # how the builder is written, as in the module docstring
    params: tuple[str, ...]  # the kind of each argument
    # the library builder, called with the arguments; for a diagram, a parser method that also
    # gets the name, the base's name and value, the argument texts and the line, and returns
    # (value, refs), or None after a diagnostic
    make: Callable


# argument kinds besides category and functor references: a count, an object of the category
# argument before it, and the element lists of poset and delooping
_COUNT, _OBJECT, _ORDER, _GROUP = "count", "object", "order", "group"
_ELEMENT_LISTS = {  # member kind, item pattern, message for a malformed item
    _ORDER: ("object", _RELATION, "poset relation item {!r} must be x<y"),
    _GROUP: ("arrow", _PRODUCT, "delooping product item {!r} must be x.y=z"),
}
_HEADERS = {"category": "category NAME", "functor": "functor NAME", "diagram": "diagram NAME on BASE"}
_C, _F = "category", "functor"  # reference arguments, resolved by their kind
_BUILDERS: dict[tuple[str, str], _Signature] = {
    (_C, "discrete"): _Signature("discrete(n)", (_COUNT,), build.discrete),
    (_C, "terminal"): _Signature("terminal()", (), build.terminal),
    (_C, "walking_arrow"): _Signature("walking_arrow()", (), build.walking_arrow),
    (_C, "walking_iso"): _Signature("walking_iso()", (), build.walking_iso),
    (_C, "chain"): _Signature("chain(n)", (_COUNT,), build.chain),
    (_C, "poset"): _Signature("poset(a b : a<b)", (_ORDER,), build.poset),
    (_C, "delooping"): _Signature("delooping(e a : a.a=e)", (_GROUP,),
                                  lambda elems, items: build.delooping(elems, {(a, b): c for a, b, c in items})),
    (_C, "product"): _Signature("product(C, D)", (_C, _C), build.product),
    (_C, "opposite"): _Signature("opposite(C)", (_C,), build.opposite),
    (_C, "slice"): _Signature("slice(C, c)", (_C, _OBJECT), build.slice_category),
    (_C, "coslice"): _Signature("coslice(C, c)", (_C, _OBJECT), build.coslice_category),
    (_F, "identity"): _Signature("identity(C)", (_C,), identity_functor),
    (_F, "compose"): _Signature("compose(G, H)", (_F, _F), compose_functors),
    (_F, "constant"): _Signature("constant(C, D, x)", (_C, _C, _OBJECT), build.constant_functor),
    ("diagram", "constant"): _Signature("constant(B)", (_C,), _Parser._constant_diagram),
    ("diagram", "representable"): _Signature("representable(C, c)", (_C, _OBJECT), _Parser._representable_diagram),
}


def parse_workspace(text: str, filename: str = "<input>") -> Workspace:
    """Parse and validate a workspace; raises WorkspaceParseError with diagnostics."""
    return _Parser(text, filename).parse()


def parse_files(paths: Iterable[str]) -> Workspace:
    """Parse several files into one workspace (later files see earlier entities);
    a file that cannot be opened or is not UTF-8 text raises UsageError naming it."""
    ws = Workspace()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
            raise UsageError(f"cannot read {path}: {reason}") from err
        parser = _Parser(text, path)
        parser.ws = ws
        parser.parse()
    return ws


# ---------------------------------------------------------------------------
# printing


def _print_category(c: FinCat, name: str, out: list[str]) -> None:
    out.append(f"category {name} {{")
    out.append("  objects: " + " ".join(c.objects) + " ;")
    ids = set(c.identity.values())
    non_ids = [m for m in c.mors if m not in ids]
    if non_ids:
        out.append("  arrows:")
        for m in non_ids:
            out.append(f"    {m}: {c.src[m]} -> {c.tgt[m]} ;")
        entries = sorted((g, f, h) for (g, f), h in c.comp.items() if g not in ids and f not in ids)
        if entries:
            out.append("  compose:")
            for g, f, h in entries:
                out.append(f"    {g}.{f} = {h} ;")
    out.append("}")


def _print_functor(e: Entity, out: list[str]) -> None:
    t: FunctorData = e.value
    out.append(f"functor {e.name} : {e.refs['dom']} -> {e.refs['cod']} {{")
    out.append("  ob:")
    for x in t.dom.objects:
        out.append(f"    {x} |-> {t.ob_map[x]} ;")
    ids = set(t.dom.identity.values())
    non_ids = [m for m in t.dom.mors if m not in ids]
    if non_ids:
        out.append("  arr:")
        for m in non_ids:
            out.append(f"    {m} |-> {t.mor_map[m]} ;")
    out.append("}")


def print_workspace(ws: Workspace) -> str:
    """Canonical serialization; parse(print(ws)) rebuilds equal tables."""
    out: list[str] = []
    for e in ws.of_kind("category"):
        _print_category(e.value, e.name, out)
    for e in ws.of_kind("functor"):
        _print_functor(e, out)
    for e in ws.of_kind("nattrans"):
        t: NatTransData = e.value
        out.append(f"nattrans {e.name} : {e.refs['dom']} => {e.refs['cod']} {{")
        for x in t.dom.dom.objects:
            out.append(f"  at {x} = {t.components[x]} ;")
        out.append("}")
    for e in ws.of_kind("diagram"):
        d: CatDiagram = e.value
        out.append(f"diagram {e.name} on {e.refs['base']} {{")
        for x in d.base.objects:
            out.append(f"  at {x} = {e.refs['at_ob'][x]} ;")
        for f in d.base.non_identity_mors():
            out.append(f"  at {f} = {e.refs['at_mor'][f]} ;")
        out.append("}")
    for e in ws.of_kind("dmor"):
        d: DiagramMor = e.value
        out.append(f"dmor {e.name} : {e.refs['dom']} => {e.refs['cod']} {{")
        for x in d.dom.base.objects:
            out.append(f"  at {x} = {e.refs['at'][x]} ;")
        out.append("}")
    for e in ws.of_kind("cleavage"):
        lifts: dict[tuple[str, str], str] = e.value
        p: FunctorData = ws.get("functor", e.refs["functor"])
        out.append(f"cleavage {e.name} for {e.refs['functor']} {{")
        base_ids = set(p.cod.identity.values())
        for (obj, f), m in sorted(lifts.items()):
            if f in base_ids and m == p.dom.identity[obj]:
                continue
            out.append(f"  lift ({obj}, {f}) |-> {m} ;")
        out.append("}")
    for e in ws.of_kind("opfib"):
        out.append(f"opfib {e.name} {{")
        out.append(f"  over: {e.refs['over']} ;")
        out.append(f"  total: {e.refs['total']} ;")
        phi: DiagramOpfib = e.value
        if phi.flavor != "opfibration":
            out.append(f"  flavor: {phi.flavor} ;")
        for a in phi.base.objects:
            fn, cn = e.refs["components"][a]
            out.append(f"  component {a} = ({fn}, {cn}) ;")
        out.append("}")
    for e in ws.of_kind("cocone"):
        s: LaxCocone = e.value
        out.append(f"cocone {e.name} for {e.refs['diagram']} {{")
        out.append(f"  vertex: {e.refs['vertex']} ;")
        for a in s.diagram.base.objects:
            out.append(f"  leg {a} = {e.refs['legs'][a]} ;")
        for f in s.diagram.base.non_identity_mors():
            out.append(f"  cell {f} = {e.refs['cells'][f]} ;")
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# programmatic workspace assembly (used by the CLI's output paths); every name must be free


def export_diagram(ws: Workspace, prefix: str, d: CatDiagram, base_name: str | None = None) -> str:
    """Add a diagram with freshly named fibre categories and action functors."""
    bname = base_name or ws.add("category", f"{prefix}_base", d.base)
    at_ob_names = {x: ws.add("category", f"{prefix}_at_{x}", d.at_ob[x]) for x in d.base.objects}
    at_mor_names = {
        f: ws.add("functor", f"{prefix}_arr_{f}", d.at_mor[f],
                  {"dom": at_ob_names[d.base.src[f]], "cod": at_ob_names[d.base.tgt[f]]})
        for f in d.base.non_identity_mors()
    }
    return ws.add("diagram", prefix, d, {"base": bname, "at_ob": at_ob_names, "at_mor": at_mor_names})


def export_opfib(ws: Workspace, prefix: str, phi: DiagramOpfib, over_name: str | None = None) -> str:
    """Add an opfibration candidate plus every entity it references."""
    base_name = ws.add("category", f"{prefix}_idx", phi.base)
    oname = over_name or export_diagram(ws, f"{prefix}_over", phi.over, base_name)
    tname = export_diagram(ws, f"{prefix}_total", phi.total, base_name)
    comp_names = {}
    for a in phi.base.objects:
        fn = ws.add("functor", f"{prefix}_p_{a}", phi.components[a],
                    {"dom": ws.entities[("diagram", tname)].refs["at_ob"][a],
                     "cod": ws.entities[("diagram", oname)].refs["at_ob"][a]})
        cn = ws.add("cleavage", f"{prefix}_cl_{a}", phi.cleavages[a], {"functor": fn})
        comp_names[a] = (fn, cn)
    return ws.add("opfib", prefix, phi, {"over": oname, "total": tname, "components": comp_names})


def render_dot(c: FinCat) -> str:
    """A plain digraph rendering: objects as nodes, non-identity morphisms as edges."""
    lines = [f'digraph "{c.name}" {{']
    for x in c.objects:
        lines.append(f'  "{x}";')
    for m in c.non_identity_mors():
        lines.append(f'  "{c.src[m]}" -> "{c.tgt[m]}" [label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
