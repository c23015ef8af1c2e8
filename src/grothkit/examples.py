"""Stock instances and the shipped example corpus.

Everything here is assembled from the public builders, so the same data
backs the test suites, the acceptance run, and the `examples` CLI command.
"""

from __future__ import annotations

from . import build
from .dsl import Workspace, export_opfib, print_workspace
from .fincat import (
    CatDiagram,
    DiagramMor,
    FinCat,
    FunctorData,
    id_name,
    identity_diagram_mor,
    identity_functor,
    pair_mor_id,
    validate_diagram,
    validate_diagram_mor,
    validate_functor,
)
from .groth import groth
from .indexed import DiagramOpfib, diagram_opfib, identity_diagram_opfib, indexed_groth


# ---------------------------------------------------------------------------
# small reusable pieces


def stock_bases() -> dict[str, FinCat]:
    """The five index categories the verification corpus runs over."""
    e2, t2 = build.cyclic_table(2, prefix="s")
    return {
        "terminal": build.terminal(),
        "walking_arrow": build.walking_arrow(),
        "walking_iso": build.walking_iso(),
        "chain3": build.chain(3),
        "BZ2": build.delooping(e2, t2, name="BZ2"),
    }


def bz(n: int, prefix: str = "r") -> FinCat:
    elems, table = build.cyclic_table(n, prefix=prefix)
    return build.delooping(elems, table, name=f"BZ{n}")


def inversion_functor(bz3: FinCat) -> FunctorData:
    return validate_functor(
        bz3,
        bz3,
        {"*": "*"},
        {id_name("*"): id_name("*"), "r1": "r2", "r2": "r1"},
        name="invert",
    )


def semidirect_diagram() -> CatDiagram:
    """Z/2 acting on Z/3 by inversion, as a diagram on the delooping of Z/2."""
    base = bz(2, prefix="s")
    fibre = bz(3)
    return validate_diagram(
        base,
        {"*": fibre},
        {id_name("*"): identity_functor(fibre), "s1": inversion_functor(fibre)},
        name="inversion_action",
    )


def collapse_functor() -> FunctorData:
    """The walking isomorphism squashed onto one end of the walking arrow."""
    wi, wa = build.walking_iso(), build.walking_arrow()
    ida = id_name("a")
    return validate_functor(
        wi,
        wa,
        {"a": "a", "b": "a"},
        {ida: ida, id_name("b"): ida, "f": ida, "g": ida},
        name="collapse",
    )


def swap_functor(d2: FinCat) -> FunctorData:
    x0, x1 = d2.objects
    return validate_functor(
        d2,
        d2,
        {x0: x1, x1: x0},
        {d2.identity[x0]: d2.identity[x1], d2.identity[x1]: d2.identity[x0]},
        name="swap",
    )


def poset_functor(dom: FinCat, cod: FinCat, ob_map: dict[str, str], name: str) -> FunctorData:
    mor_map = {}
    for m in dom.mors:
        x, y = ob_map[dom.src[m]], ob_map[dom.tgt[m]]
        mor_map[m] = cod.identity[x] if x == y else f"le({x},{y})"
    return validate_functor(dom, cod, ob_map, mor_map, name=name)


def function_as_functor(dom: FinCat, cod: FinCat, mapping: dict[str, str], name: str) -> FunctorData:
    """A map of discrete categories."""
    return validate_functor(
        dom,
        cod,
        mapping,
        {dom.identity[x]: cod.identity[mapping[x]] for x in dom.objects},
        name=name,
    )


# ---------------------------------------------------------------------------
# corpus of Cat-valued diagrams (classical round trips, counting laws)


def corpus_diagrams() -> list[CatDiagram]:
    wa = build.walking_arrow()
    wi = build.walking_iso()
    ch3 = build.chain(3)
    d2 = build.discrete(2)
    out: list[CatDiagram] = []

    out.append(build.terminal_diagram(wa, name="delta1_on_arrow"))
    out.append(build.constant_diagram(ch3, wa, name="deltaB_on_chain3"))
    out.append(build.one_object_diagram(bz(3), name="pick_BZ3"))
    out.append(semidirect_diagram())
    out.append(build.arrow_diagram(collapse_functor(), name="collapse_arrow"))
    out.append(build.iso_diagram(swap_functor(d2), swap_functor(d2), name="swap_iso"))

    ch2 = build.chain(2)
    emb = poset_functor(ch2, ch3, {"0": "0", "1": "2"}, name="ends")
    out.append(
        validate_diagram(
            ch3,
            {"0": ch2, "1": ch2, "2": ch3},
            {
                id_name("0"): identity_functor(ch2),
                id_name("1"): identity_functor(ch2),
                id_name("2"): identity_functor(ch3),
                "le(0,1)": identity_functor(ch2),
                "le(1,2)": emb,
                "le(0,2)": emb,
            },
            name="poset_fibres",
        )
    )

    sq = build.commuting_square_poset()
    s2, s1 = build.discrete(2, prefix="p"), build.discrete(1, prefix="p")
    clps = function_as_functor(s2, s1, {"p0": "p0", "p1": "p0"}, name="squash")
    out.append(
        validate_diagram(
            sq,
            {"bot": s2, "x": s2, "y": s1, "top": s1},
            {
                id_name("bot"): identity_functor(s2),
                id_name("x"): identity_functor(s2),
                id_name("y"): identity_functor(s1),
                id_name("top"): identity_functor(s1),
                "le(bot,x)": identity_functor(s2),
                "le(bot,y)": clps,
                "le(x,top)": clps,
                "le(y,top)": identity_functor(s1),
                "le(bot,top)": clps,
            },
            name="square_sets",
        )
    )

    out.append(
        validate_diagram(
            d2,
            {"x0": wa, "x1": bz(3)},
            {id_name("x0"): identity_functor(wa), id_name("x1"): identity_functor(bz(3))},
            name="two_islands",
        )
    )

    s3 = build.discrete(3, prefix="s")
    t2 = build.discrete(2, prefix="t")
    fn = function_as_functor(s3, t2, {"s0": "t0", "s1": "t0", "s2": "t1"}, name="fn")
    out.append(
        validate_diagram(
            wa,
            {"a": s3, "b": t2},
            {id_name("a"): identity_functor(s3), id_name("b"): identity_functor(t2), "f": fn},
            name="set_function",
        )
    )

    out.append(
        validate_diagram(
            stock_bases()["BZ2"],
            {"*": d2},
            {id_name("*"): identity_functor(d2), "s1": swap_functor(d2)},
            name="z2_swap_sets",
        )
    )
    return out


# ---------------------------------------------------------------------------
# corpus for the indexed equivalence


def _two_point_z(total: FinCat) -> CatDiagram:
    """A diagram on a two-object total category shaped like the walking arrow.

    The source fibre is a point, the target fibre has two points; the unique
    cross morphism includes the point as the first one.
    """
    (a_obj, b_obj) = total.objects
    p1 = build.discrete(1, prefix="q")
    p2 = build.discrete(2, prefix="q")
    incl = function_as_functor(p1, p2, {"q0": "q0"}, name="incl")
    at_mor = {}
    for m in total.mors:
        if total.is_identity(m):
            at_mor[m] = identity_functor(p1 if total.src[m] == a_obj else p2)
        else:
            at_mor[m] = incl
    return validate_diagram(total, {a_obj: p1, b_obj: p2}, at_mor, name="two_point_z")


def sign_z_diagram(gt) -> CatDiagram:
    """On the delooping of S3 arising from the inversion action: the sign representation
    on a two-point set."""
    d2 = build.discrete(2, prefix="e")
    sw = swap_functor(d2)
    ident = identity_functor(d2)
    at_mor = {}
    for m in gt.total.mors:
        f, _, _ = gt.mor_pair[m]
        at_mor[m] = ident if f != "s1" else sw
    return validate_diagram(gt.total, {v: d2 for v in gt.total.objects}, at_mor, name="sign_z")


def product_square_opfib() -> DiagramOpfib:
    """A hand-built opfibration over the identity arrow: product projections with
    componentwise cleavages, lift of f at (x, y) being (f, id_y)."""
    wa = build.walking_arrow()
    d2 = build.discrete(2, prefix="u")
    p, fst, snd = build.product_projections(wa, d2)
    over = build.arrow_diagram(identity_functor(wa), name="id_arrow_diag")
    total = validate_diagram(
        over.base,
        {"a": p, "b": p},
        {id_name("a"): identity_functor(p), id_name("b"): identity_functor(p), "f": identity_functor(p)},
        name="product_total",
    )
    lifts = {}
    for e in p.objects:
        for f in wa.mors:
            if wa.src[f] == fst.ob_map[e]:
                lifts[(e, f)] = pair_mor_id(wa, d2, f, d2.identity[snd.ob_map[e]])
    return diagram_opfib(over, total, {"a": fst, "b": fst}, {"a": lifts, "b": lifts},
                         name="product_square")


def corpus_opfibs() -> list[DiagramOpfib]:
    """At least eight opfibration instances over the five stock bases."""
    out: list[DiagramOpfib] = []
    bases = stock_bases()

    pick = build.one_object_diagram(build.walking_arrow(), name="pick_arrow")
    gt = groth(pick)
    out.append(indexed_groth(_two_point_z(gt.total), pick, gt, name="phi_terminal"))

    d1 = build.terminal_diagram(bases["walking_arrow"], name="delta1_arrow")
    gt1 = groth(d1)
    out.append(indexed_groth(_two_point_z(gt1.total), d1, gt1, name="phi_delta1"))

    coll = build.arrow_diagram(collapse_functor(), name="collapse_arrow")
    gtc = groth(coll)
    zc = build.constant_diagram(gtc.total, build.walking_arrow(), name="z_const")
    out.append(indexed_groth(zc, coll, gtc, name="phi_collapse"))

    d2 = build.discrete(2)
    iso = build.iso_diagram(swap_functor(d2), swap_functor(d2), name="swap_iso")
    gti = groth(iso)
    zi = build.constant_diagram(gti.total, build.discrete(2, prefix="w"), name="z_iso")
    out.append(indexed_groth(zi, iso, gti, name="phi_iso"))

    dch = build.constant_diagram(bases["chain3"], build.walking_arrow(), name="deltaB_chain")
    gch = groth(dch)
    zch = build.constant_diagram(gch.total, build.discrete(2, prefix="w"), name="z_chain")
    out.append(indexed_groth(zch, dch, gch, name="phi_chain"))

    semi = semidirect_diagram()
    gs = groth(semi)
    out.append(indexed_groth(sign_z_diagram(gs), semi, gs, name="phi_sign"))

    out.append(identity_diagram_opfib(semi, name="phi_id_semi"))
    out.append(product_square_opfib())
    return out


def corpus_z_instances() -> list[tuple[CatDiagram, CatDiagram]]:
    """(Z, F) pairs for the diagram-side round trip."""
    out = []
    pick = build.one_object_diagram(build.walking_arrow(), name="pick_arrow")
    gt = groth(pick)
    out.append((_two_point_z(gt.total), pick))

    d1 = build.terminal_diagram(build.walking_arrow(), name="delta1_arrow")
    gt1 = groth(d1)
    out.append((_two_point_z(gt1.total), d1))
    out.append((build.constant_diagram(gt1.total, build.walking_arrow(), name="z_wa"), d1))

    coll = build.arrow_diagram(collapse_functor(), name="collapse_arrow")
    gtc = groth(coll)
    out.append((build.constant_diagram(gtc.total, build.discrete(2, prefix="w"), name="z_d2"), coll))

    semi = semidirect_diagram()
    gs = groth(semi)
    out.append((sign_z_diagram(gs), semi))

    iso = build.iso_diagram(swap_functor(build.discrete(2)), swap_functor(build.discrete(2)), name="swap_iso")
    gti = groth(iso)
    out.append((build.constant_diagram(gti.total, build.terminal(), name="z_term"), iso))

    dch = build.constant_diagram(build.chain(3), build.walking_arrow(), name="deltaB_chain")
    gch = groth(dch)
    out.append((build.constant_diagram(gch.total, build.discrete(2, prefix="w"), name="z_ch"), dch))

    # the non-discrete witness: one walking-arrow fibre
    wa_fib = build.walking_arrow()
    term = build.terminal()
    to_term = validate_functor(
        wa_fib, term, {"a": "*", "b": "*"},
        {id_name("a"): id_name("*"), id_name("b"): id_name("*"), "f": id_name("*")},
        name="to_point",
    )
    at_mor = {}
    for m in gt1.total.mors:
        if gt1.total.is_identity(m):
            v = gt1.total.src[m]
            at_mor[m] = identity_functor(wa_fib if gt1.ob_pair[v][0] == "a" else term)
        else:
            at_mor[m] = to_term
    znd = validate_diagram(
        gt1.total,
        {v: (wa_fib if gt1.ob_pair[v][0] == "a" else term) for v in gt1.total.objects},
        at_mor,
        name="z_nondiscrete",
    )
    out.append((znd, d1))
    return out


def pseudonat_instances() -> list[tuple[DiagramMor, DiagramOpfib]]:
    """(alpha, phi) pairs for the pseudonaturality checks."""
    out = []
    coll = build.arrow_diagram(collapse_functor(), name="collapse_arrow")
    gtc = groth(coll)
    zc = build.constant_diagram(gtc.total, build.walking_arrow(), name="z_const")
    phi = indexed_groth(zc, coll, gtc, name="phi_collapse")
    out.append((identity_diagram_mor(coll), phi))

    wa = build.walking_arrow()
    wi = build.walking_iso()
    d1 = build.terminal_diagram(wa, name="delta1_arrow")
    pt_a = validate_functor(build.terminal(), wi, {"*": "a"}, {id_name("*"): id_name("a")}, name="pt_a")
    pt_b = validate_functor(build.terminal(), wa, {"*": "a"}, {id_name("*"): id_name("a")}, name="pt_b")
    out.append((validate_diagram_mor(d1, coll, {"a": pt_a, "b": pt_b}, name="points"), phi))

    pick_wa = build.one_object_diagram(wa, name="pick_arrow")
    pick_d2 = build.one_object_diagram(build.discrete(2), name="pick_d2")
    ends = validate_functor(
        build.discrete(2), wa, {"x0": "a", "x1": "b"},
        {id_name("x0"): id_name("a"), id_name("x1"): id_name("b")}, name="ends",
    )
    gtp = groth(pick_wa)
    zp = _two_point_z(gtp.total)
    phi_p = indexed_groth(zp, pick_wa, gtp, name="phi_pick")
    out.append((validate_diagram_mor(pick_d2, pick_wa, {"*": ends}, name="alpha_ends"), phi_p))

    ch3 = build.chain(3)
    dch = build.constant_diagram(ch3, wa, name="deltaB_chain")
    gch = groth(dch)
    zch = build.constant_diagram(gch.total, build.discrete(2, prefix="w"), name="z_ch")
    phi_ch = indexed_groth(zch, dch, gch, name="phi_chain")
    d1ch = build.terminal_diagram(ch3, name="delta1_chain")
    const_a = validate_functor(build.terminal(), wa, {"*": "a"}, {id_name("*"): id_name("a")}, name="at_a")
    out.append(
        (
            validate_diagram_mor(
                d1ch, dch, {x: const_a for x in ch3.objects}, name="alpha_chain"
            ),
            phi_ch,
        )
    )

    semi = semidirect_diagram()
    gs = groth(semi)
    phi_s = indexed_groth(sign_z_diagram(gs), semi, gs, name="phi_sign")
    out.append((identity_diagram_mor(semi), phi_s))
    return out


def base_change_instances() -> list[tuple[FunctorData, CatDiagram]]:
    """(H, F) pairs for the base-change checks."""
    out = []
    ch3 = build.chain(3)
    wa = build.walking_arrow()
    dch = build.constant_diagram(ch3, wa, name="deltaB_chain")
    out.append((identity_functor(ch3), dch))
    out.append(
        (validate_functor(build.terminal(), ch3, {"*": "1"}, {id_name("*"): id_name("1")}, name="pick1"), dch)
    )
    emb = validate_functor(
        wa, ch3, {"a": "0", "b": "2"},
        {id_name("a"): id_name("0"), id_name("b"): id_name("2"), "f": "le(0,2)"}, name="span",
    )
    out.append((emb, [d for d in corpus_diagrams() if d.name == "poset_fibres"][0]))
    coll = build.arrow_diagram(collapse_functor(), name="collapse_arrow")
    ends = validate_functor(
        build.discrete(2), wa, {"x0": "a", "x1": "b"},
        {id_name("x0"): id_name("a"), id_name("x1"): id_name("b")}, name="ends",
    )
    out.append((ends, coll))
    semi = semidirect_diagram()
    pt = validate_functor(build.terminal(), semi.base, {"*": "*"}, {id_name("*"): id_name("*")}, name="pt")
    out.append((pt, semi))
    return out


# ---------------------------------------------------------------------------
# shipped example files


_WALKING_ARROW_FILE = """\
# The smallest nontrivial category: two objects and one arrow between them.
# Identities are implicit; no composites of non-identity arrows exist here.
category WA {
  objects: a b ;
  arrows:
    f: a -> b ;
}
"""

_SEMIDIRECT_FILE = """\
# Z/2 acting on Z/3 by inversion.  The Grothendieck construction of this
# diagram is the delooping of the semidirect product Z/3 x| Z/2 = S3:
#   grothkit groth -i semidirect.cat F
category BZ2 = delooping(s0 s1 : s1.s1=s0)
category BZ3 = delooping(r0 r1 r2 : r1.r1=r2 r1.r2=r0 r2.r1=r0 r2.r2=r1)

functor invert : BZ3 -> BZ3 {
  ob: * |-> * ;
  arr: r1 |-> r2 ; r2 |-> r1 ;
}

diagram F on BZ2 {
  at * = BZ3 ;
  at s1 = invert ;
}
"""

_DELTA1_FILE = """\
# The terminal-valued diagram on a chain base; its total category is the base.
category A = chain(3)
category ONE = terminal()
diagram F on A = constant(ONE)
"""

_DELTAB_FILE = """\
# A constant diagram; its total category is the product of base and fibre.
category A = chain(3)
category B = walking_arrow()
diagram F on A = constant(B)
"""

_A2_FILE = """\
# A diagram on the walking arrow is a single functor; here the walking
# isomorphism collapses onto one end of the walking arrow.
category TWO = walking_arrow()
category I = walking_iso()
category WA = walking_arrow()

functor collapse : I -> WA {
  ob: a |-> a ; b |-> a ;
  arr: f |-> id_a ; g |-> id_a ;
}

diagram F on TWO {
  at a = I ;
  at b = WA ;
  at f = collapse ;
}
"""

_BROKEN_ASSOC_FILE = """\
# Negative control: the composition table violates associativity.
#   grothkit validate -i broken_assoc.cat       (exit code 1, witness printed)
category BAD {
  objects: * ;
  arrows:
    r1: * -> * ;
    r2: * -> * ;
  compose:
    r1.r1 = r2 ;
    r1.r2 = id_* ;
    r2.r1 = id_* ;
    r2.r2 = r2 ;
}
"""


def _mutated_cleavage_workspace() -> Workspace:
    """groth of a constant diagram with one cleavage entry replaced by a composite."""
    wa = build.walking_arrow()
    dB = build.constant_diagram(wa, build.walking_arrow(), name="deltaB")
    gt = groth(dB)
    ws = Workspace()
    ws.add("category", "A", wa)
    ws.add("category", "T", gt.total)
    ws.add("functor", "p", gt.projection, {"dom": "T", "cod": "A"})
    ws.add("cleavage", "canonical", gt.lifts, {"functor": "p"})
    mutated = dict(gt.lifts)
    victim = gt.obj_of[("a", "a")]
    # replace the chosen lift of f at (a,a) by the composite morphism (f, f)
    mutated[(victim, "f")] = gt.mor_of[("f", "f", "a")]
    ws.add("cleavage", "mutated", mutated, {"functor": "p"})
    ws.add("functor", "idT", identity_functor(gt.total), {"dom": "T", "cod": "T"})
    ws.add("functor", "idA", identity_functor(wa), {"dom": "A", "cod": "A"})
    return ws


def _nondiscrete_workspace() -> Workspace:
    """The projection of a product is not a discrete opfibration."""
    wa = build.walking_arrow()
    p, fst, _ = build.product_projections(wa, wa)
    ws = Workspace()
    ws.add("category", "A", wa)
    ws.add("category", "P", p)
    ws.add("functor", "proj", fst, {"dom": "P", "cod": "A"})
    return ws


def _identity_opfib_workspace() -> Workspace:
    wa = build.walking_arrow()
    d1 = build.terminal_diagram(wa, name="delta1")
    phi = identity_diagram_opfib(d1, name="phi")
    ws = Workspace()
    export_opfib(ws, "phi", phi)
    return ws


def shipped_examples() -> dict[str, str]:
    """All example files, keyed by file name."""
    out = {
        "walking_arrow.cat": _WALKING_ARROW_FILE,
        "semidirect.cat": _SEMIDIRECT_FILE,
        "delta1.cat": _DELTA1_FILE,
        "deltaB.cat": _DELTAB_FILE,
        "a2_collapse.cat": _A2_FILE,
        "broken_assoc.cat": _BROKEN_ASSOC_FILE,
        "mutated_cleavage.cat": print_workspace(_mutated_cleavage_workspace()),
        "nondiscrete.cat": print_workspace(_nondiscrete_workspace()),
        "identity_opfib.cat": print_workspace(_identity_opfib_workspace()),
    }
    return out
