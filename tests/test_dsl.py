import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from grothkit import build, dsl, examples
from grothkit.dsl import (
    _BUILDERS,
    Workspace,
    WorkspaceParseError,
    _statements,
    export_opfib,
    parse_workspace,
    print_workspace,
    render_dot,
    split_top,
)
from grothkit.fincat import compose_functors, identity_functor
from grothkit.groth import groth
from grothkit.indexed import check_diagram_opfib, dualize_opfib, identity_diagram_opfib

from helpers import reference_split_top, reference_stmts

SHIPPED = examples.shipped_examples()


class TestParse:
    def test_walking_arrow_sample(self):
        ws = parse_workspace(examples.shipped_examples()["walking_arrow.cat"])
        c = ws.get("category", "WA")
        assert len(c.objects) == 2 and len(c.mors) == 3

    def test_undeclared_morphism_reference_has_position(self):
        text = "category C {\n  objects: a ;\n  arrows: f: a -> a ;\n  compose: f.q = f ;\n}\n"
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace(text, "ref.cat")
        d = err.value.diagnostics[0]
        assert d.kind == "reference" and d.file == "ref.cat" and d.line >= 1
        assert "q" in d.message

    def test_semidirect_file_matches_builder_tables(self):
        ws = parse_workspace(examples.shipped_examples()["semidirect.cat"])
        d = ws.get("diagram", "F")
        built = examples.semidirect_diagram()
        assert d.base.tables_equal(built.base)
        assert d.at_ob["*"].tables_equal(built.at_ob["*"])
        assert dict(d.at_mor["s1"].mor_map) == dict(built.at_mor["s1"].mor_map)

    def test_builders_match_library(self):
        text = (
            "category P = poset(a b c : a<b b<c)\n"
            "category PR = product(P, P)\n"
            "category OP = opposite(P)\n"
            "category SL = slice(P, c)\n"
        )
        ws = parse_workspace(text)
        lib = build.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert ws.get("category", "P").tables_equal(lib)
        assert ws.get("category", "PR").tables_equal(build.product(lib, lib))
        assert ws.get("category", "OP").tables_equal(build.opposite(lib))
        assert ws.get("category", "SL").tables_equal(build.slice_category(lib, "c"))

    def test_one_line_block(self):
        ws = parse_workspace("category C { objects: a b ; arrows: f: a -> b ; }")
        assert len(ws.get("category", "C").mors) == 3

    def test_duplicate_name_rejected(self):
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace("category C { objects: a ; }\ncategory C { objects: b ; }")
        assert err.value.diagnostics[0].kind == "reference"

    def test_identity_cleavage_entries_default(self):
        files = examples.shipped_examples()
        ws = parse_workspace(files["mutated_cleavage.cat"])
        cl = ws.get("cleavage", "canonical")
        p = ws.get("functor", "p")
        for e in p.dom.objects:
            ident = p.cod.identity[p.ob_map[e]]
            assert (e, ident) in cl

    def test_constant_reuses_a_declared_identity(self):
        text = ("category A = walking_arrow()\ncategory B = walking_arrow()\n"
                "functor __id_B = identity(B)\ndiagram F on A = constant(B)\n")
        ws = parse_workspace(text)
        printed = print_workspace(ws)
        assert printed.count("functor __id_B ") == 1
        assert parse_workspace(printed).get("diagram", "F").tables_equal(ws.get("diagram", "F"))

    def test_error_classes_distinguished(self):
        cases = {
            "category C { objects: a ; arrows: f a -> a ; }": "syntax",
            "functor F : X -> X { }": "reference",
            "category C { objects: a ; arrows: id_a: a -> a ; }": "lexical",
            "category C { objects: a ; arrows: f: a -> b ; }": "semantic",
        }
        for text, expected in cases.items():
            with pytest.raises(WorkspaceParseError) as err:
                parse_workspace(text)
            assert err.value.diagnostics[0].kind == expected, text


class TestPrint:
    def test_round_trip_idempotent_on_shipped_files(self):
        for name, text in examples.shipped_examples().items():
            if name == "broken_assoc.cat":
                continue
            ws = parse_workspace(text, name)
            printed = print_workspace(ws)
            ws2 = parse_workspace(printed, name)
            assert print_workspace(ws2) == printed, name

    def test_groth_output_reparses_byte_stably(self):
        ws = parse_workspace(examples.shipped_examples()["deltaB.cat"])
        d = ws.get("diagram", "F")
        gt = groth(d)
        ws.add("category", "F_total", gt.total)
        printed = print_workspace(ws)
        ws2 = parse_workspace(printed)
        assert ws2.get("category", "F_total").tables_equal(gt.total)
        assert print_workspace(ws2) == printed

    def test_empty_workspace_prints_empty(self):
        assert print_workspace(Workspace()) == ""

    def test_exported_opfib_roundtrips(self):
        phi = identity_diagram_opfib(build.terminal_diagram(build.walking_arrow()), name="phi")
        ws = Workspace()
        export_opfib(ws, "phi", phi)
        printed = print_workspace(ws)
        ws2 = parse_workspace(printed)
        again = ws2.get("opfib", "phi")
        assert check_diagram_opfib(again).passed
        assert print_workspace(ws2) == printed


class TestHelpers:
    def test_split_top_respects_nesting(self):
        assert split_top("(a,b), c") == ["(a,b)", "c"]
        assert split_top("sl(w,(x,y)), (f,g)") == ["sl(w,(x,y))", "(f,g)"]

    def test_render_dot_lists_objects_and_edges(self):
        dot = render_dot(build.walking_arrow())
        assert '"a" -> "b" [label="f"];' in dot
        assert dot.startswith("digraph")


COCONE_FILE = """
category A = walking_arrow()
category ONE = terminal()
category U = chain(3)
diagram F on A = constant(ONE)
functor leg_a : ONE -> U { ob: * |-> 0 ; }
functor leg_b : ONE -> U { ob: * |-> 2 ; }
nattrans cell_f : leg_a => leg_b { at * = le(0,2) ; }
cocone s for F {
  vertex: U ;
  leg a = leg_a ;
  leg b = leg_b ;
  cell f = cell_f ;
}
"""


class TestCoconeEntity:
    def test_cocone_parses_and_factorizes(self):
        from grothkit.groth import cocone_factorize

        ws = parse_workspace(COCONE_FILE, "cocone.cat")
        sigma = ws.get("cocone", "s")
        s = cocone_factorize(sigma)
        gt = groth(sigma.diagram)
        assert s.ob_map[gt.obj_of[("a", "*")]] == "0"
        assert s.ob_map[gt.obj_of[("b", "*")]] == "2"
        assert s.mor_map[gt.mor_of[("f", "id_*", "*")]] == "le(0,2)"

    def test_cocone_round_trips(self):
        ws = parse_workspace(COCONE_FILE, "cocone.cat")
        printed = print_workspace(ws)
        ws2 = parse_workspace(printed)
        assert print_workspace(ws2) == printed

    def test_invalid_cocone_rejected(self):
        bad = COCONE_FILE.replace("at * = le(0,2)", "at * = le(0,1)").replace(
            "ob: * |-> 2", "ob: * |-> 2"
        )
        # the cell now lands at 1 instead of 2: component boundary breaks
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace(bad)
        assert err.value.diagnostics[0].kind == "semantic"


class TestDmorEntity:
    def test_dmor_parses(self):
        text = (
            "category A = walking_arrow()\n"
            "category ONE = terminal()\n"
            "category B = discrete(2)\n"
            "diagram F1 on A = constant(ONE)\n"
            "diagram F2 on A = constant(B)\n"
            "functor pick : ONE -> B { ob: * |-> x0 ; }\n"
            "dmor al : F1 => F2 { at a = pick ; at b = pick ; }\n"
        )
        ws = parse_workspace(text)
        al = ws.get("dmor", "al")
        assert al.components["a"].ob_map["*"] == "x0"

    def test_dmor_round_trips(self):
        text = (
            "category A = walking_arrow()\n"
            "category ONE = terminal()\n"
            "diagram F1 on A = constant(ONE)\n"
            "functor pick = identity(ONE)\n"
            "dmor al : F1 => F1 { at a = pick ; at b = pick ; }\n"
        )
        ws = parse_workspace(text)
        printed = print_workspace(ws)
        assert print_workspace(parse_workspace(printed)) == printed


_OPFIB = SHIPPED["identity_opfib.cat"]
_CLEAVED = SHIPPED["mutated_cleavage.cat"]

# Malformed workspaces with the exact diagnostics the reader gives for them.
# Columns count characters of the line, tabs included, from 1.
PINNED_DIAGNOSTICS = {
    "statements-on-one-line": (
        "category C {\tobjects: a b ;  arrows: f a -> b ;\t g: a -> b ;\t\tcompose: x ;  }\n",
        ["m.cat:1:30: syntax: expected 'name: src -> tgt', got 'f a -> b'",
         "m.cat:1:63: syntax: expected 'g.f = h', got 'x'"],
    ),
    "statements-on-a-body-line": (
        "category C {\n \tobjects: a  id_a ;\t arrows: f: a -> b ;  g q ; h: b -> b ;"
        " compose: h.h = h ; zz ;\n}\n",
        ["m.cat:2:44: syntax: expected 'name: src -> tgt', got 'g q'",
         "m.cat:2:81: syntax: expected 'g.f = h', got 'zz'"],
    ),
    "unterminated-block": (
        "category A = chain(2)\ncategory C {\n  objects: a ;\n  arrows: f: a -> a ;\n",
        ["m.cat:2:1: syntax: unterminated block for 'category C'"],
    ),
    "builder-without-call": (
        "category P = poset\n",
        ["m.cat:1:1: syntax: expected BUILDER(...), got 'poset'"],
    ),
    "unknown-builders": (
        "category P = frob(1)\nfunctor F = twist(P)\ndiagram D on P = flat(P)\ncleavage c = poset(a)\n",
        ["m.cat:1:1: syntax: unknown category builder 'frob'",
         "m.cat:2:1: syntax: unknown functor builder 'twist'",
         "m.cat:3:1: reference: unknown category 'P'",
         "m.cat:4:1: syntax: cleavage has no builder shorthand"],
    ),
    "category-lexical": (
        "category C { objects: a ; arrows: id_a: a -> a ; }",
        ["m.cat:1:27: lexical: invalid arrow name 'id_a'"],
    ),
    "category-syntax": (
        "category C { objects: a ; arrows: f a -> a ; }",
        ["m.cat:1:27: syntax: expected 'name: src -> tgt', got 'f a -> a'"],
    ),
    "representable-duplicate": (
        "category C = chain(2)\ncategory A = opposite(C)\n"
        "diagram F on A = representable(C, 0)\ndiagram F on A = representable(C, 0)\n",
        ["m.cat:4:1: reference: duplicate diagram name 'F'"],
    ),
    "representable-sub-entity-taken": (
        "category C = chain(2)\ncategory A = opposite(C)\ncategory __F_at_1 = terminal()\n"
        "diagram F on A = representable(C, 0)\n",
        ["m.cat:4:1: reference: a category named '__F_at_1' is already in the workspace"],
    ),
    "category-reference": (
        "category C {\n  objects: a ;\n  arrows: f: a -> a ;\n  compose: f.q = f ;\n}\n",
        ["m.cat:1:1: reference: compose entry uses undeclared morphism 'q'"],
    ),
    "category-semantic": (
        "category C { objects: a ; arrows: f: a -> b ; }",
        ["m.cat:1:1: semantic: 'category C': dangling-identifier: morphism f: a -> b uses undeclared object"],
    ),
    "functor-lexical": (
        "category C = chain(2)\nfunctor F|G : C -> C { ob: 0 |-> 0 ; 1 |-> 1 ; arr: le(0,1) |-> le(0,1) ; }\n",
        ["m.cat:2:1: lexical: invalid functor name 'F|G'"],
    ),
    "functor-syntax": (
        "category C = chain(2)\nfunctor F : C -> C {\n  ob: 0 |-> 0 ;  1 -> 1 ;\n}\n",
        ["m.cat:3:18: syntax: expected 'x |-> y' in ob/arr section, got '1 -> 1'"],
    ),
    "functor-reference": (
        "functor F : X -> X { }",
        ["m.cat:1:1: reference: unknown category 'X'", "m.cat:1:1: reference: unknown category 'X'"],
    ),
    "functor-semantic": (
        "category C = chain(2)\nfunctor F : C -> C { ob: 0 |-> 1 ; 1 |-> 0 ; arr: le(0,1) |-> le(0,1) ; }\n",
        ["m.cat:2:1: semantic: 'functor F : C -> C': boundary-preserved: "
         "image of le(0,1): 0 -> 1 is le(0,1): 0 -> 1"],
    ),
    "cleavage-lexical": (
        _CLEAVED.replace("cleavage canonical for p", "cleavage can|on for p"),
        ["m.cat:51:1: lexical: invalid cleavage name 'can|on'"],
    ),
    "cleavage-syntax": (
        _CLEAVED.replace("lift ((a,b), f) |-> (f,id_b)@b ;\n}\ncleavage mutated",
                         "lift ((a,b), f) -> (f,id_b)@b ;\n}\ncleavage mutated"),
        ["m.cat:53:3: syntax: expected 'lift (E, f) |-> e', got 'lift ((a,b), f) -> (f,id_b)@b'"],
    ),
    "cleavage-reference": (
        _CLEAVED.replace("cleavage canonical for p", "cleavage canonical for q"),
        ["m.cat:51:1: reference: unknown functor 'q'"],
    ),
    "cleavage-semantic": (
        _CLEAVED.replace("lift ((a,a), f) |-> (f,id_a)@a ;", "lift ((a,a), f) |-> (id_a,f)@a ;"),
        ["m.cat:51:1: semantic: 'cleavage canonical for p': lift-over: lift of f at (a,a) lies over id_a"],
    ),
    "opfib-lexical": (
        _OPFIB.replace("opfib phi {", "opfib ph|i {"),
        ["m.cat:48:1: lexical: invalid opfib name 'ph|i'"],
    ),
    "opfib-syntax": (
        _OPFIB.replace("  total: phi_total ;", "  total: phi_total ;  bogus: x ;"),
        ["m.cat:50:23: syntax: unexpected statement 'bogus: x' in opfib block"],
    ),
    "opfib-reference": (
        _OPFIB.replace("  over: phi_over ;", "  over: phi_ovr ;"),
        ["m.cat:48:1: reference: unknown diagram 'phi_ovr'"],
    ),
    "opfib-semantic": (
        _OPFIB.replace("  component b = (phi_p_b, phi_cl_b) ;\n", ""),
        ["m.cat:48:1: semantic: 'opfib phi': components-total: no component at b"],
    ),
    "cocone-lexical": (
        COCONE_FILE.replace("cocone s for F", "cocone s|t for F"),
        ["m.cat:9:1: lexical: invalid cocone name 's|t'"],
    ),
    "cocone-syntax": (
        COCONE_FILE.replace("  vertex: U ;", "  vertex U ;"),
        ["m.cat:10:3: syntax: unexpected statement 'vertex U' in cocone block"],
    ),
    "cocone-reference": (
        COCONE_FILE.replace("cocone s for F", "cocone s for G"),
        ["m.cat:9:1: reference: unknown diagram 'G'"],
    ),
    "cocone-semantic": (
        COCONE_FILE.replace("  leg b = leg_b ;", "  leg b = leg_a ;"),
        ["m.cat:9:1: semantic: 'cocone s for F': cell-boundary: cell at f is not leg[a] => leg[b]∘F(f)"],
    ),
    # the body of the block is skipped with it, not read as declarations
    "brace-before-block": (
        "category C} {\n objects: a ;\n}\n",
        ["m.cat:1:1: lexical: invalid category name 'C}'"],
    ),
    # builder calls with too few or too many arguments, or arguments that do not fit together
    **{f"builder-{case}": (
        "category C = walking_arrow()\ncategory D = chain(2)\n" + line + "\n",
        ["m.cat:" + message],
    ) for case, line, message in [
        ("product-one", "category P = product(C)", "3:1: syntax: expected product(C, D), got product(C)"),
        ("product-none", "category P = product()", "3:1: syntax: expected product(C, D), got product()"),
        ("product-three", "category P = product(C, C, C)",
         "3:1: syntax: expected product(C, D), got product(C, C, C)"),
        ("opposite-none", "category P = opposite()", "3:1: syntax: expected opposite(C), got opposite()"),
        ("opposite-three", "category P = opposite(C, C, C)",
         "3:1: syntax: expected opposite(C), got opposite(C, C, C)"),
        ("slice-one", "category S = slice(C)", "3:1: syntax: expected slice(C, c), got slice(C)"),
        ("coslice-none", "category S = coslice()", "3:1: syntax: expected coslice(C, c), got coslice()"),
        ("chain-not-decimal", "category N = chain(\u00b2)", "3:1: syntax: expected chain(n), got chain(\u00b2)"),
        ("identity-none", "functor I = identity()", "3:1: syntax: expected identity(C), got identity()"),
        ("identity-two", "functor I = identity(C, x)", "3:1: syntax: expected identity(C), got identity(C, x)"),
        ("constant-functor-unknown-object", "functor K = constant(C, D, nosuch)",
         "3:1: semantic: 'functor K': object-exists: nosuch is not an object of D"),
        ("compose-mismatch", "functor I = identity(C)\nfunctor J = identity(D)\nfunctor K = compose(I, J)",
         "5:1: semantic: 'functor K': cannot compose I after J: boundary mismatch"),
        ("constant-diagram-none", "diagram F on C = constant()", "3:1: syntax: expected constant(B), got constant()"),
        ("constant-diagram-two", "diagram F on C = constant(D, I)",
         "3:1: syntax: expected constant(B), got constant(D, I)"),
    ]},
    # a table key given twice is refused at its second entry, whether or not the values agree,
    # on lines read whole and on lines split at `;`
    "twice-compose": (
        "category C {\n  objects: a ;\n  arrows:\n    e: a -> a ;\n  compose:\n    e.e = e ;\n    e.e = id_a ;\n}\n",
        ["m.cat:7:5: reference: 'e.e' given twice, first on line 6"],
    ),
    "twice-compose-one-line": (
        "category C { objects: a ; arrows: e: a -> a ; compose: e.e = e ;\te.e = e ; }\n",
        ["m.cat:1:66: reference: 'e.e' given twice, first on line 1"],
    ),
    "twice-functor": (
        "category C = chain(2)\nfunctor F : C -> C {\n  ob:\n    0 |-> 0 ;\n    1 |-> 1 ;\n"
        "  arr: le(0,1) |-> le(0,1) ;\n  ob: 1 |-> 1 ;\n}\n",
        ["m.cat:7:3: reference: 'ob 1' given twice, first on line 5"],
    ),
    "twice-nattrans": (
        COCONE_FILE.replace("{ at * = le(0,2) ; }", "{ at * = le(0,2) ; at * = le(0,1) ; }"),
        ["m.cat:8:53: reference: 'at *' given twice, first on line 8",
         "m.cat:9:1: reference: unknown nattrans 'cell_f'"],
    ),
    "twice-diagram": (
        _OPFIB.replace("  at b = phi_over_at_b ;\n", "  at b = phi_over_at_b ;\n  at b = phi_over_at_b ;\n"),
        ["m.cat:37:3: reference: 'at b' given twice, first on line 36",
         "m.cat:49:1: reference: unknown diagram 'phi_over'"],
    ),
    "twice-dmor": (
        "category A = walking_arrow()\ncategory ONE = terminal()\ndiagram F1 on A = constant(ONE)\n"
        "functor pick = identity(ONE)\ndmor al : F1 => F1 {\n  at a = pick ;\n  at b = pick ;\n  at a = pick ;\n}\n",
        ["m.cat:8:3: reference: 'at a' given twice, first on line 6"],
    ),
    "twice-cleavage": (
        _CLEAVED.replace("  lift ((a,b), f) |-> (f,id_b)@b ;\n}\ncleavage mutated",
                         "  lift ((a,b), f) |-> (f,id_b)@b ;\n  lift ((a,a),f) |-> (f,f)@a ;\n}\ncleavage mutated"),
        ["m.cat:54:3: reference: 'lift ((a,a), f)' given twice, first on line 52"],
    ),
    "twice-opfib": (
        _OPFIB.replace("  total: phi_total ;", "  total: phi_total ;\n  over: phi_over ;"),
        ["m.cat:51:3: reference: 'over:' given twice, first on line 49"],
    ),
    "twice-opfib-component": (
        _OPFIB.replace("  component b = (phi_p_b, phi_cl_b) ;",
                       "  component b = (phi_p_b, phi_cl_b) ; component a = (x, y) ;"),
        ["m.cat:52:39: reference: 'component a' given twice, first on line 51"],
    ),
    "twice-cocone": (
        COCONE_FILE.replace("  cell f = cell_f ;", "  cell f = cell_f ;\n  leg b = leg_b ;"),
        ["m.cat:14:3: reference: 'leg b' given twice, first on line 12"],
    ),
    # constant(B) acts by the identity, so a declared __id_B must be the identity of B
    "constant-foreign-identity": (
        "category A = walking_arrow()\ncategory B = walking_arrow()\n"
        "functor __id_B : B -> B { ob: a |-> b ; b |-> b ; arr: f |-> id_b ; }\n"
        "diagram F on A = constant(B)\n",
        ["m.cat:4:1: reference: functor '__id_B' is not the identity of 'B'"],
    ),
}


def test_cleavage_failing_both_orientations_reports_the_opfibration_reading():
    phi = next(p for p in examples.corpus_opfibs() if p.name == "phi_collapse")
    ws = Workspace()
    export_opfib(ws, "op", dualize_opfib(phi))
    # retarget one co-lift of op_cl_b, (a,b) -> (b,b) in the dual, to (f,f)@a: (b,b) -> (a,a)
    head = "cleavage op_cl_b for op_p_b {\n  lift ((a,a), f) |-> (f,id_a)@a ;\n  lift ((a,b), f) |-> "
    text = print_workspace(ws)
    assert head + "(f,id_b)@b ;" in text
    text = text.replace(head + "(f,id_b)@b ;", head + "(f,f)@a ;")
    with pytest.raises(WorkspaceParseError) as err:
        parse_workspace(text, "dual.cat")
    assert [d.describe() for d in err.value.diagnostics] == [
        "dual.cat:126:1: semantic: 'cleavage op_cl_b for op_p_b': cleavage-total: no lift of f at (b,a)",
        "dual.cat:130:1: reference: unknown cleavage 'op_cl_b'",
    ]


@pytest.mark.parametrize("case", sorted(PINNED_DIAGNOSTICS))
def test_pinned_diagnostics(case):
    text, expected = PINNED_DIAGNOSTICS[case]
    with pytest.raises(WorkspaceParseError) as err:
        parse_workspace(text, "m.cat")
    assert [d.describe() for d in err.value.diagnostics] == expected


class TestTextAfterBlock:
    """Text after a block's closing brace is refused, at its own column."""

    @pytest.mark.parametrize("text, expected", [
        ("category C { objects: a ; } category D { objects: b ; }",
         "m.cat:1:29: syntax: unexpected text after '}': 'category D { objects: b ; }'"),
        ("category C {\n  objects: a ;\n} junk\n",
         "m.cat:3:3: syntax: unexpected text after '}': 'junk'"),
        ("category C {\n  objects: a ;\n}\t }  # a comment\n",
         "m.cat:3:4: syntax: unexpected text after '}': '}'"),
    ])
    def test_reported(self, text, expected):
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace(text, "m.cat")
        assert [d.describe() for d in err.value.diagnostics] == [expected]

    def test_whitespace_and_comments_after_brace_are_fine(self):
        ws = parse_workspace("category C { objects: a ; }  \t# done\ncategory D {\n objects: b ;\n}\u00a0\n")
        assert ws.names("category") == ["C", "D"]


class TestBuilderElementNames:
    """poset(...) elements are checked as objects and delooping(...) elements as arrows."""

    @pytest.mark.parametrize("text, expected", [
        ("category P = poset(x, y; x<=y, y<=x)",
         ["m.cat:1:1: lexical: invalid object name 'y;'",
          "m.cat:1:1: lexical: invalid object name 'x<=y,'",
          "m.cat:1:1: lexical: invalid object name 'y<=x'"]),
        ("category R = poset(a;b c : c<a;b)",
         ["m.cat:1:1: lexical: invalid object name 'a;b'"]),
        ("category G = delooping(e, a; a.a=a)",
         ["m.cat:1:1: lexical: invalid arrow name 'a;'",
          "m.cat:1:1: lexical: invalid arrow name 'a.a=a'"]),
        ("category G = delooping(e id_a : id_a.id_a=e)",
         ["m.cat:1:1: lexical: invalid arrow name 'id_a'"]),
    ])
    def test_invalid_elements_are_lexical_errors(self, text, expected):
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace(text, "m.cat")
        assert [d.describe() for d in err.value.diagnostics] == expected


# Statement text drawn from names, separators, brackets and ASCII and non-ASCII whitespace.
_TEXT = st.lists(
    st.sampled_from(["a", "f", "x1", "(a,b)", "id_a", "->", "|->", ";", ",", "(", ")", "[", "]",
                     " ", "  ", "\t", "\u00a0", "\u3000"]),
    max_size=14,
).map("".join)


class TestTextKernelsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TEXT, max_size=4), st.integers(min_value=1, max_value=50))
    def test_statement_stream(self, texts, first):
        body = list(enumerate(texts, first))
        assert [(text, ln, col) for _, _, text, ln, col in _statements(texts, first, {})] == reference_stmts(body)

    @settings(max_examples=300, deadline=None)
    @given(_TEXT)
    def test_split_top(self, text):
        assert split_top(text) == reference_split_top(text)


def test_parsing_compiles_and_looks_up_no_pattern():
    """Every pattern the reader uses is compiled at import, so parsing touches no `re` function."""
    ws = parse_workspace(SHIPPED["deltaB.cat"])
    ws.add("category", "F_total", groth(ws.get("diagram", "F")).total)
    printed = print_workspace(ws)

    def refuse(*args, **kwargs):
        raise AssertionError("re called while parsing")

    with mock.patch.multiple(re, match=refuse, search=refuse, fullmatch=refuse, compile=refuse):
        for name, text in SHIPPED.items():
            try:
                parse_workspace(text, name)
            except WorkspaceParseError:
                assert name == "broken_assoc.cat"
        assert parse_workspace(printed).get("category", "F_total").tables_equal(ws.get("category", "F_total"))


# Blocks shaped like the workspace benchmark's, one statement a line: the product order on a grid
# of rows and columns, its projection onto the row chain, the projection's split cleavage, and a
# diagram over the row chain whose base arrows shift a fibre chain.


def _poset_lines(name, order, leq):
    arrows = {(x, y): f"{name}_{x}_{y}" for x in order for y in order if x != y and leq(x, y)}
    return [f"category {name} {{", "  objects: " + " ".join(order) + " ;", "  arrows:",
            *(f"    {m}: {x} -> {y} ;" for (x, y), m in arrows.items()), "  compose:",
            *(f"    {arrows[y, z]}.{arrows[x, y]} = {arrows[x, z]} ;"
              for x, y in arrows for z in order if (y, z) in arrows), "}"]


def _chain_lines(name, order):
    return _poset_lines(name, order, lambda x, y: order.index(x) <= order.index(y))


def _grid_workspace(n_rows, n_cols, fibre_len=3, shift=1):
    rows, cols = [f"r{i}" for i in range(n_rows)], [f"c{j}" for j in range(n_cols)]
    fibre = [f"z{k}" for k in range(fibre_len)]
    cell = {r + c: (i, j) for i, r in enumerate(rows) for j, c in enumerate(cols)}

    def leq(x, y):
        return cell[x][0] <= cell[y][0] and cell[x][1] <= cell[y][1]

    def row(x):
        return rows[cell[x][0]]

    below = [(x, y) for x in cell for y in cell if x != y and leq(x, y)]
    lines = _chain_lines("R", rows) + _chain_lines("Z", fibre) + _poset_lines("G", list(cell), leq)
    lines += ["functor p : G -> R {", "  ob:", *(f"    {x} |-> {row(x)} ;" for x in cell), "  arr:",
              *(f"    G_{x}_{y} |-> {'id_' + row(x) if row(x) == row(y) else f'R_{row(x)}_{row(y)}'} ;"
                for x, y in below), "}"]
    lines += ["cleavage cl for p {", *(f"  lift ({x}, R_{row(x)}_{row(y)}) |-> G_{x}_{y} ;"
                                       for x, y in below if row(x) != row(y) and cell[x][1] == cell[y][1]), "}"]
    at = [f"  at {r} = Z ;" for r in rows]
    for i, x in enumerate(rows):
        for j, y in enumerate(rows[i + 1:], i + 1):
            img = {z: fibre[min(k + shift * (j - i), fibre_len - 1)] for k, z in enumerate(fibre)}
            lines += [f"functor S_{x}_{y} : Z -> Z {{", "  ob:", *(f"    {z} |-> {img[z]} ;" for z in fibre), "  arr:",
                      *(f"    Z_{z}_{w} |-> {'id_' + img[z] if img[z] == img[w] else f'Z_{img[z]}_{img[w]}'} ;"
                        for k, z in enumerate(fibre) for w in fibre[k + 1:]), "}"]
            at.append(f"  at R_{x}_{y} = S_{x}_{y} ;")
    return "\n".join(lines + ["diagram D on R {", *at, "}"]) + "\n"


def _outcome(text):
    """The workspace a text parses to, or its diagnostics' bytes."""
    try:
        return parse_workspace(text, "m.cat")
    except WorkspaceParseError as err:
        return [d.describe() for d in err.diagnostics]


# every line form replaced by one that reads no line, which sends every line to the splitter
_NEVER = re.compile(r"(?!)")
_SPLIT_ONLY = {kind: {s: (p, f and _NEVER) for s, (p, f) in sections.items()}
               for kind, sections in dsl._SECTIONS.items()}


def _assert_same_outcome(text):
    read = _outcome(text)
    with mock.patch.object(dsl, "_SECTIONS", _SPLIT_ONLY):
        split_read = _outcome(text)
    if isinstance(read, list) or isinstance(split_read, list):
        assert read == split_read
        return
    assert read.entities.keys() == split_read.entities.keys()
    for key, e in read.entities.items():
        other = split_read.entities[key]
        assert e.refs == other.refs, key
        if isinstance(e.value, dict):  # a cleavage's lifts
            assert e.value == other.value, key
        elif hasattr(e.value, "tables_equal"):
            assert e.value.tables_equal(other.value), key
    assert print_workspace(read) == print_workspace(split_read)


def _printed_groth_total():
    ws = parse_workspace(SHIPPED["deltaB.cat"])
    ws.add("category", "F_total", groth(ws.get("diagram", "F")).total)
    return print_workspace(ws)


# the shipped examples, their printed forms, a printed total and the benchmark-shaped workspaces
_BASE_TEXTS = {
    **SHIPPED,
    **{f"printed-{n}": print_workspace(parse_workspace(t, n)) for n, t in SHIPPED.items() if n != "broken_assoc.cat"},
    "printed-groth-total": _printed_groth_total(),
    "grid-2x2": _grid_workspace(2, 2),
    "grid-3x2": _grid_workspace(3, 2, fibre_len=4, shift=2),
}
# Line-level edits: insert a token, put a token in place of a word, drop a character, drop the
# whitespace around the separators, or repeat the line.
_TOKEN = st.sampled_from([" ", "  ", "\t", "\u3000", "\u00a0", ";", " ;", ":", ".", "=", " = ", "(", ")", ",", "->",
                          "|->", " -> ", " |-> ", "@", "a", "Z9", "id_", "id_a", "objects", "arrows:", "compose",
                          "ob", "arr:", "at", "lift", "x.y", "k=v", "p:q", "u|v", "s;t", "(a,b)", "\u00e9", "{", "}",
                          "#"])
_EDIT = st.one_of(st.tuples(st.sampled_from(["insert", "word"]), _TOKEN),
                  st.tuples(st.sampled_from(["drop", "squeeze", "twice"]), st.none()))
_WORD = re.compile(r"\w[\w(),@*]*")
_AROUND_SEPARATOR = re.compile(r"\s*(\|->|->|=|:)\s*")


class TestLineFormsAgainstSplitter:
    """A line read by its whole-line form gives the tables and diagnostics the splitter gives."""

    def test_grid_workspace_parses(self):
        ws = parse_workspace(_BASE_TEXTS["grid-3x2"])
        assert ws.names("category") == ["G", "R", "Z"] and ws.has("cleavage", "cl") and ws.has("diagram", "D")

    @pytest.mark.parametrize("case", sorted(_BASE_TEXTS) + [f"pinned-{case}" for case in sorted(PINNED_DIAGNOSTICS)])
    def test_same_outcome(self, case):
        _assert_same_outcome(_BASE_TEXTS[case] if case in _BASE_TEXTS else PINNED_DIAGNOSTICS[case[7:]][0])

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(_BASE_TEXTS.values())), st.data())
    def test_same_outcome_after_line_edits(self, text, data):
        lines = text.splitlines()
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
            line, (edit, token) = lines[i], data.draw(_EDIT)
            at = data.draw(st.integers(min_value=0, max_value=len(line)))
            words = list(_WORD.finditer(line))
            if edit == "insert":
                lines[i] = line[:at] + token + line[at:]
            elif edit == "word" and words:
                word = data.draw(st.sampled_from(words))
                lines[i] = line[:word.start()] + token + line[word.end():]
            elif edit == "drop":
                lines[i] = line[:at] + line[at + 1:]
            elif edit == "squeeze":
                lines[i] = line[:at] + _AROUND_SEPARATOR.sub(r"\1", line[at:])
            elif edit == "twice":
                lines.insert(i, line)
        _assert_same_outcome("\n".join(lines) + "\n")


# A block around one statement line of each form, whose name slots X and Y take names that the
# forms exclude or that meet a separator, written as printed, without the whitespace around the
# separators, and with ideographic spaces.
_ONE_STATEMENT_BLOCKS = {
    "arrow": ("category C {\n  objects: a b ;\n  arrows:\n    X: a -> Y ;\n}\n", "f", "b"),
    "compose": ("category C {\n  objects: a ;\n  arrows:\n    e: a -> a ;\n  compose:\n    X.e = Y ;\n}\n", "e", "e"),
    "maps-to": ("category C = chain(2)\nfunctor F : C -> C {\n  ob:\n    0 |-> 0 ;\n    X |-> Y ;\n}\n", "1", "1"),
    "at": ("category A = walking_arrow()\ncategory E = terminal()\ndiagram D on A {\n  at X = Y ;\n  at b = E ;\n}\n",
           "a", "E"),
    "lift": ("category C = walking_arrow()\nfunctor I = identity(C)\ncleavage c for I {\n  lift (X, f) |-> Y ;\n}\n",
             "a", "f"),
    "component": (_OPFIB.replace("  component a = (phi_p_a, phi_cl_a) ;", "  component X = (Y, phi_cl_a) ;"),
                  "a", "phi_p_a"),
    "over": (_OPFIB.replace("  over: phi_over ;", "  over: Y ;"), "", "phi_over"),
    "leg": (COCONE_FILE.replace("  leg a = leg_a ;", "  leg X = Y ;"), "a", "leg_a"),
    "vertex": (COCONE_FILE.replace("  vertex: U ;", "  vertex: Y ;"), "", "U"),
}
_ODD_NAMES = ["objects", "arrows", "compose", "ob", "arr", "x.y", "k=v", "p:q", "u|v", "a\u3000", "\u00e9", "id_a",
              "a->b", "(a,b)", "(a", "a)", "a;b", "a,b", "*"]


@pytest.mark.parametrize("form", sorted(_ONE_STATEMENT_BLOCKS))
def test_one_statement_lines_read_as_split(form):
    template, x, y = _ONE_STATEMENT_BLOCKS[form]
    for name in _ODD_NAMES:
        for text in (template.replace("X", name).replace("Y", y), template.replace("X", x).replace("Y", name)):
            for spaced in (text, _AROUND_SEPARATOR.sub(r"\1", text), _AROUND_SEPARATOR.sub("\u3000\\1\u3000", text)):
                _assert_same_outcome(spaced)


def test_line_forms_read_every_printed_statement_line():
    """Only blank lines (around a header and a closing brace) and section-label lines of printed
    workspaces reach the splitter, so a pattern edit cannot silently turn the line forms off."""
    texts = [text for name, text in _BASE_TEXTS.items() if name.startswith(("printed-", "grid-"))]
    total = _BASE_TEXTS["printed-groth-total"]
    assert any("(" in ln and "," in ln and "@" in ln for ln in total.splitlines() if ln.startswith("    "))
    split, statement = [], dsl._STATEMENT

    class Recording:
        def finditer(self, line):
            split.append(line)
            return statement.finditer(line)

    with mock.patch.object(dsl, "_STATEMENT", Recording()):
        for text in texts:
            parse_workspace(text)
    label = re.compile(r"\s*(objects|arrows|compose|ob|arr):")
    assert split and [ln for ln in split if ln.strip() and not label.match(ln)] == []


class TestBuilderShorthand:
    """Each builder of the shorthand gives the library builder's tables under the declared name."""

    PRELUDE = ("category C = walking_arrow()\ncategory D = discrete(2)\ncategory OC = opposite(C)\n"
               "functor G = identity(C)\n")
    CASES = {  # (kind, builder): (declaration of X, the library's value from the prelude's workspace)
        ("category", "discrete"): ("category X = discrete(3)", lambda ws: build.discrete(3)),
        ("category", "terminal"): ("category X = terminal()", lambda ws: build.terminal()),
        ("category", "walking_arrow"): ("category X = walking_arrow()", lambda ws: build.walking_arrow()),
        ("category", "walking_iso"): ("category X = walking_iso()", lambda ws: build.walking_iso()),
        ("category", "chain"): ("category X = chain(3)", lambda ws: build.chain(3)),
        ("category", "poset"): ("category X = poset(p q r : p<q q<r)",
                                lambda ws: build.poset(["p", "q", "r"], [("p", "q"), ("q", "r")])),
        ("category", "delooping"): ("category X = delooping(e a : a.a=e)",
                                    lambda ws: build.delooping(["e", "a"], {("a", "a"): "e"})),
        ("category", "product"): ("category X = product(C, D)",
                                  lambda ws: build.product(ws.get("category", "C"), ws.get("category", "D"))),
        ("category", "opposite"): ("category X = opposite(C)", lambda ws: build.opposite(ws.get("category", "C"))),
        ("category", "slice"): ("category X = slice(C, b)",
                                lambda ws: build.slice_category(ws.get("category", "C"), "b")),
        ("category", "coslice"): ("category X = coslice(C, a)",
                                  lambda ws: build.coslice_category(ws.get("category", "C"), "a")),
        ("functor", "identity"): ("functor X = identity(C)", lambda ws: identity_functor(ws.get("category", "C"))),
        ("functor", "compose"): ("functor X = compose(G, G)",
                                 lambda ws: compose_functors(ws.get("functor", "G"), ws.get("functor", "G"))),
        ("functor", "constant"): ("functor X = constant(C, D, x1)",
                                  lambda ws: build.constant_functor(ws.get("category", "C"),
                                                                    ws.get("category", "D"), "x1")),
        ("diagram", "constant"): ("diagram X on C = constant(D)",
                                  lambda ws: build.constant_diagram(ws.get("category", "C"), ws.get("category", "D"))),
        ("diagram", "representable"): ("diagram X on OC = representable(C, b)",
                                       lambda ws: build.representable_diagram(ws.get("category", "C"), "b")[1]),
    }

    def test_every_builder_name(self):
        assert set(self.CASES) == set(_BUILDERS)
        for (kind, builder), (line, library) in self.CASES.items():
            ws = parse_workspace(self.PRELUDE + line + "\n")
            built = ws.get(kind, "X")
            assert built.name == "X", builder
            assert built.tables_equal(library(ws)), builder
            printed = print_workspace(ws)
            assert print_workspace(parse_workspace(printed)) == printed, builder

    @pytest.mark.parametrize("kind", ["category", "functor", "diagram"])
    def test_unknown_builder_rejected(self, kind):
        header = "diagram X on C" if kind == "diagram" else f"{kind} X"
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace(f"{self.PRELUDE}{header} = mystery()\n", "m.cat")
        assert [d.describe() for d in err.value.diagnostics] == [f"m.cat:5:1: syntax: unknown {kind} builder 'mystery'"]

    def test_unknown_reference_rejected(self):
        with pytest.raises(WorkspaceParseError) as err:
            parse_workspace("category X = opposite(missing)\n", "m.cat")
        assert [d.describe() for d in err.value.diagnostics] == ["m.cat:1:1: reference: unknown category 'missing'"]


def test_documented_builders_are_the_table():
    """The builder list of the dsl docstring names every builder of the table, with its arguments."""
    documented = set()
    for line in dsl.__doc__.splitlines():
        m = re.match(r"\s+(category|functor|diagram) NAME (?:on BASE )?= (.*)", line)
        if m:
            documented |= {(m[1], usage) for usage in re.findall(r"\w+\([^)]*\)", m[2].partition("#")[0])}
    assert documented == {(kind, sig.usage) for (kind, _), sig in _BUILDERS.items()}
    assert all(sig.usage.startswith(builder + "(") for (_, builder), sig in _BUILDERS.items())


# Builder lines drawn from the table's builders and from unknown names, with reference, count,
# object and element-list tokens as arguments.
_BUILDER_PRELUDE = ("category A = walking_arrow()\ncategory B = chain(2)\ncategory OB = opposite(B)\n"
                    "functor G = identity(A)\nfunctor H = identity(B)\n")
_ARGUMENT = st.sampled_from(["A", "B", "OB", "G", "H", "nosuch", "(A)", "a", "b", "0", "1", "x0", "2", "\u00b2", "-1",
                             "", ":", "a<b", "b<a", "e", "a.a=e", "e.a"])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["category", "functor", "diagram", "cleavage"]), st.sampled_from(["X", "A", "G", "X|Y"]),
       st.sampled_from(["A", "B", "OB", "nosuch"]), st.sampled_from(sorted({b for _, b in _BUILDERS}) + ["frob"]),
       st.lists(_ARGUMENT, max_size=4), st.sampled_from([", ", " "]))
def test_builder_lines_are_declared_or_diagnosed(kind, name, base, builder, args, sep):
    header = f"diagram {name} on {base}" if kind == "diagram" else f"{kind} {name}"
    try:
        ws = parse_workspace(f"{_BUILDER_PRELUDE}{header} = {builder}({sep.join(args)})\n", "m.cat")
    except WorkspaceParseError as err:
        assert err.diagnostics and {d.line for d in err.diagnostics} == {6}
        return
    assert ws.has(kind, name)
    printed = print_workspace(ws)
    assert print_workspace(parse_workspace(printed)) == printed
