"""The hand-built verification corpus the paper's claims are checked on.

Every instance is assembled from the public builders.  A diagram F that
several lists start from is built, together with its Grothendieck total, by
one helper, and so is each opfibration that two lists share.
"""

from __future__ import annotations

from grothkit import build
from grothkit.fincat import (
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
from grothkit.groth import GrothTotal, groth
from grothkit.indexed import DiagramOpfib, diagram_opfib, identity_diagram_opfib, indexed_groth


# ---------------------------------------------------------------------------
# small reusable pieces


def stock_bases() -> dict[str, FinCat]:
    """The five index categories the verification corpus runs over."""
    return {
        "terminal": build.terminal(),
        "walking_arrow": build.walking_arrow(),
        "walking_iso": build.walking_iso(),
        "chain3": build.chain(3),
        "BZ2": bz(2, prefix="s"),
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


def z2_action(t: FunctorData, name: str) -> CatDiagram:
    """Z/2 acting on t.dom by the involution t, as a diagram on the delooping of Z/2."""
    return validate_diagram(bz(2, prefix="s"), {"*": t.dom}, {id_name("*"): identity_functor(t.dom), "s1": t},
                            name=name)


def semidirect_diagram() -> CatDiagram:
    """Z/2 acting on Z/3 by inversion."""
    return z2_action(inversion_functor(bz(3)), "inversion_action")


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
# the diagrams several lists start from, each with its Grothendieck total


def pick_arrow() -> tuple[CatDiagram, GrothTotal]:
    d = build.one_object_diagram(build.walking_arrow(), name="pick_arrow")
    return d, groth(d)


def delta1_arrow() -> tuple[CatDiagram, GrothTotal]:
    d = build.terminal_diagram(build.walking_arrow(), name="delta1_arrow")
    return d, groth(d)


def collapse_arrow() -> tuple[CatDiagram, GrothTotal]:
    d = build.arrow_diagram(collapse_functor(), name="collapse_arrow")
    return d, groth(d)


def swap_iso() -> tuple[CatDiagram, GrothTotal]:
    d2 = build.discrete(2)
    d = build.iso_diagram(swap_functor(d2), swap_functor(d2), name="swap_iso")
    return d, groth(d)


def deltaB_chain() -> tuple[CatDiagram, GrothTotal]:
    d = build.constant_diagram(build.chain(3), build.walking_arrow(), name="deltaB_chain")
    return d, groth(d)


def semidirect_action() -> tuple[CatDiagram, GrothTotal]:
    d = semidirect_diagram()
    return d, groth(d)


def poset_fibres() -> CatDiagram:
    """On chain(3): chain(2) twice, then chain(3), the last map embedding the ends."""
    ch2, ch3 = build.chain(2), build.chain(3)
    emb = poset_functor(ch2, ch3, {"0": "0", "1": "2"}, name="ends")
    return validate_diagram(
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


# ---------------------------------------------------------------------------
# the opfibrations two lists share


def phi_collapse() -> DiagramOpfib:
    coll, gtc = collapse_arrow()
    zc = build.constant_diagram(gtc.total, build.walking_arrow(), name="z_const")
    return indexed_groth(zc, coll, gtc, name="phi_collapse")


def phi_chain(z_name: str) -> DiagramOpfib:
    """The constant two-point Z, named z_name, on the total of deltaB_chain, collected over it."""
    dch, gch = deltaB_chain()
    zch = build.constant_diagram(gch.total, build.discrete(2, prefix="w"), name=z_name)
    return indexed_groth(zch, dch, gch, name="phi_chain")


def phi_sign() -> DiagramOpfib:
    semi, gs = semidirect_action()
    return indexed_groth(sign_z_diagram(gs), semi, gs, name="phi_sign")


# ---------------------------------------------------------------------------
# corpus of Cat-valued diagrams (classical round trips, counting laws)


def corpus_diagrams() -> list[CatDiagram]:
    wa = build.walking_arrow()
    d2 = build.discrete(2)
    out: list[CatDiagram] = [
        build.terminal_diagram(wa, name="delta1_on_arrow"),
        build.constant_diagram(build.chain(3), wa, name="deltaB_on_chain3"),
        build.one_object_diagram(bz(3), name="pick_BZ3"),
        semidirect_diagram(),
        collapse_arrow()[0],
        swap_iso()[0],
        poset_fibres(),
    ]

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

    s3, t2 = build.discrete(3, prefix="s"), build.discrete(2, prefix="t")
    fn = function_as_functor(s3, t2, {"s0": "t0", "s1": "t0", "s2": "t1"}, name="fn")
    out.append(build.arrow_diagram(fn, name="set_function"))
    out.append(z2_action(swap_functor(d2), "z2_swap_sets"))
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
    at_mor = {m: identity_functor(p1 if total.src[m] == a_obj else p2) if total.is_identity(m) else incl
              for m in total.mors}
    return validate_diagram(total, {a_obj: p1, b_obj: p2}, at_mor, name="two_point_z")


def sign_z_diagram(gt: GrothTotal) -> CatDiagram:
    """On the delooping of S3 arising from the inversion action: the sign representation
    on a two-point set."""
    d2 = build.discrete(2, prefix="e")
    sw, ident = swap_functor(d2), identity_functor(d2)
    at_mor = {m: sw if gt.mor_pair[m][0] == "s1" else ident for m in gt.total.mors}
    return validate_diagram(gt.total, {v: d2 for v in gt.total.objects}, at_mor, name="sign_z")


def product_square_opfib() -> DiagramOpfib:
    """A hand-built opfibration over the identity arrow: product projections with
    componentwise cleavages, lift of f at (x, y) being (f, id_y)."""
    wa = build.walking_arrow()
    d2 = build.discrete(2, prefix="u")
    p, fst, snd = build.product_projections(wa, d2)
    over = build.arrow_diagram(identity_functor(wa), name="id_arrow_diag")
    total = build.constant_diagram(over.base, p, name="product_total")
    lifts = {(e, f): pair_mor_id(wa, d2, f, d2.identity[snd.ob_map[e]])
             for e in p.objects for f in wa.out(fst.ob_map[e])}
    return diagram_opfib(over, total, {"a": fst, "b": fst}, {"a": lifts, "b": lifts},
                         name="product_square")


def corpus_opfibs() -> list[DiagramOpfib]:
    """At least eight opfibration instances over the five stock bases."""
    pick, gt = pick_arrow()
    d1, gt1 = delta1_arrow()
    iso, gti = swap_iso()
    zi = build.constant_diagram(gti.total, build.discrete(2, prefix="w"), name="z_iso")
    sign = phi_sign()
    return [
        indexed_groth(_two_point_z(gt.total), pick, gt, name="phi_terminal"),
        indexed_groth(_two_point_z(gt1.total), d1, gt1, name="phi_delta1"),
        phi_collapse(),
        indexed_groth(zi, iso, gti, name="phi_iso"),
        phi_chain("z_chain"),
        sign,
        identity_diagram_opfib(sign.over, name="phi_id_semi"),
        product_square_opfib(),
    ]


def corpus_z_instances() -> list[tuple[CatDiagram, CatDiagram]]:
    """(Z, F) pairs for the diagram-side round trip."""
    pick, gt = pick_arrow()
    d1, gt1 = delta1_arrow()
    coll, gtc = collapse_arrow()
    semi, gs = semidirect_action()
    iso, gti = swap_iso()
    dch, gch = deltaB_chain()
    out = [
        (_two_point_z(gt.total), pick),
        (_two_point_z(gt1.total), d1),
        (build.constant_diagram(gt1.total, build.walking_arrow(), name="z_wa"), d1),
        (build.constant_diagram(gtc.total, build.discrete(2, prefix="w"), name="z_d2"), coll),
        (sign_z_diagram(gs), semi),
        (build.constant_diagram(gti.total, build.terminal(), name="z_term"), iso),
        (build.constant_diagram(gch.total, build.discrete(2, prefix="w"), name="z_ch"), dch),
    ]

    # the non-discrete witness: one walking-arrow fibre
    wa_fib = build.walking_arrow()
    term = build.terminal()
    to_term = build.constant_functor(wa_fib, term, "*", name="to_point")
    total = gt1.total
    at_ob = {v: wa_fib if gt1.ob_pair[v][0] == "a" else term for v in total.objects}
    at_mor = {m: identity_functor(at_ob[total.src[m]]) if total.is_identity(m) else to_term for m in total.mors}
    out.append((validate_diagram(total, at_ob, at_mor, name="z_nondiscrete"), d1))
    return out


def pseudonat_instances() -> list[tuple[DiagramMor, DiagramOpfib]]:
    """(alpha, phi) pairs for the pseudonaturality checks."""
    phi = phi_collapse()
    coll = phi.over
    wa = build.walking_arrow()
    d1 = build.terminal_diagram(wa, name="delta1_arrow")
    pt_a = build.constant_functor(build.terminal(), build.walking_iso(), "a", name="pt_a")
    pt_b = build.constant_functor(build.terminal(), wa, "a", name="pt_b")

    ends = function_as_functor(build.discrete(2), wa, {"x0": "a", "x1": "b"}, name="ends")
    pick_wa, gtp = pick_arrow()
    pick_d2 = build.one_object_diagram(build.discrete(2), name="pick_d2")
    phi_p = indexed_groth(_two_point_z(gtp.total), pick_wa, gtp, name="phi_pick")

    phi_ch = phi_chain("z_ch")
    ch3 = phi_ch.base
    d1ch = build.terminal_diagram(ch3, name="delta1_chain")
    const_a = build.constant_functor(build.terminal(), wa, "a", name="at_a")

    sign = phi_sign()
    return [
        (identity_diagram_mor(coll), phi),
        (validate_diagram_mor(d1, coll, {"a": pt_a, "b": pt_b}, name="points"), phi),
        (validate_diagram_mor(pick_d2, pick_wa, {"*": ends}, name="alpha_ends"), phi_p),
        (validate_diagram_mor(d1ch, phi_ch.over, {x: const_a for x in ch3.objects}, name="alpha_chain"),
         phi_ch),
        (identity_diagram_mor(sign.over), sign),
    ]


def base_change_instances() -> list[tuple[FunctorData, CatDiagram]]:
    """(H, F) pairs for the base-change checks."""
    dch, _ = deltaB_chain()
    ch3 = dch.base
    wa = build.walking_arrow()
    span = poset_functor(wa, ch3, {"a": "0", "b": "2"}, name="span")
    ends = function_as_functor(build.discrete(2), wa, {"x0": "a", "x1": "b"}, name="ends")
    semi = semidirect_diagram()
    return [
        (identity_functor(ch3), dch),
        (build.constant_functor(build.terminal(), ch3, "1", name="pick1"), dch),
        (span, poset_fibres()),
        (ends, collapse_arrow()[0]),
        (build.constant_functor(build.terminal(), semi.base, "*", name="pt"), semi),
    ]
