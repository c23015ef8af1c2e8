"""grothkit: finite-category computations around the Grothendieck construction.

`import grothkit` runs only the core that every caller needs: report, fincat,
build, opfib and groth.  The search, indexed, text and CLI layers load on first
use (see below), so a caller compiles only the layers it runs.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader, find_spec as _find_spec, module_from_spec as _module_from_spec

from .report import Check, Report, UsageError, ValidationError
from .fincat import (
    CatDiagram,
    DiagramMor,
    FinCat,
    FunctorData,
    IsoWitness,
    NatTransData,
    compose_diagram_mors,
    compose_functors,
    id_name,
    identity_diagram_mor,
    identity_functor,
    identity_nat_trans,
    make_category,
    pair_id,
    reindex,
    validate_category,
    validate_diagram,
    validate_diagram_mor,
    validate_functor,
    validate_nat_trans,
)
from .build import (
    arrow_diagram,
    chain,
    commuting_square_poset,
    constant_diagram,
    coslice_category,
    cyclic_table,
    delooping,
    discrete,
    iso_diagram,
    one_object_diagram,
    opposite,
    poset,
    product,
    product_projections,
    representable_diagram,
    slice_category,
    terminal,
    terminal_diagram,
    walking_arrow,
    walking_iso,
)
from .opfib import (
    CleavedOpfib,
    PullbackOpfib,
    cell_transport,
    check_cleavage_preserving,
    check_discrete_opfib,
    check_split_opfib,
    cleaved_opfib,
    fibre_category,
    fibres,
    find_cartesian_lifts,
    pullback_opfib,
)
from .groth import (
    BaseChange,
    GrothTotal,
    LaxCocone,
    base_change,
    cocone_factorize,
    factorize,
    groth,
    groth_map,
    inc_cocone,
    validate_lax_cocone,
)

# The layers below run only when first used: each is registered in sys.modules
# as a lazy module (importlib.util.LazyLoader), whose body runs on the first
# read of one of its attributes.  That first read takes no lock on CPython 3.11;
# grothkit is single-threaded.  `groth` must stay above: it names both a
# submodule and a function, and importing the submodule late would bind the
# module over the function.
_DEFERRED = {  # module -> the names re-exported from it
    "isosearch": (
        "BUDGET", "DEFAULT_BUDGET", "FOUND", "NONE", "Budget", "BudgetExceeded", "SearchResult",
        "diagram_iso_search", "iso_search", "over_base_iso_search",
    ),
    "indexed": (
        "DiagramModification", "DiagramOpfib", "DiagramOpfibMor", "check_diagram_opfib",
        "check_diagram_opfib_mor", "diagram_opfib", "discrete_check_diagram", "discrete_check_opfib",
        "dualize_diagram", "dualize_opfib", "identity_diagram_opfib", "identity_modification",
        "indexed_fibres", "indexed_fibres_map", "indexed_groth", "indexed_groth_map",
        "indexed_roundtrip_diagram", "indexed_roundtrip_opfib", "pseudonat_check",
        "pullback_diagram_opfib", "two_cell_action", "validate_diagram_modification",
        "vertical_compose_modifications",
    ),
    "dsl": (
        "Diagnostic", "Workspace", "WorkspaceParseError", "parse_files", "parse_workspace",
        "print_workspace", "render_dot",
    ),
    "cli": ("run_command",),
    "examples": (),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def _lazy_module(module: str):
    """grothkit.<module>, registered in sys.modules; its body runs on the first attribute read."""
    spec = _find_spec(f"{__name__}.{module}")
    spec.loader = _LazyLoader(spec.loader)
    mod = _module_from_spec(spec)
    _sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


globals().update({module: _lazy_module(module) for module in _DEFERRED})


def __getattr__(name: str):
    """A re-exported name of a deferred layer: loads the layer, then keeps the value here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__all__ = sorted([n for n in globals() if not n.startswith("_")] + list(_HOME))
__version__ = "0.1.0"
