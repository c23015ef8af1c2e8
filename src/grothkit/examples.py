"""The shipped example files, written by the `examples` CLI command.

Six are hand-written workspace text; three are printed from workspaces
assembled with the public builders.
"""

from __future__ import annotations

from . import build
from .dsl import Workspace, export_opfib, print_workspace
from .fincat import identity_functor
from .groth import groth
from .indexed import identity_diagram_opfib

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
