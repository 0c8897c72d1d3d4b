"""Local-unitary invariant polynomials of multipartite quantum states.

Enumerates the linearly independent invariants of grades 1-3 (polynomial
degrees 2, 4, 6 in pure-state amplitudes; 1, 2, 3 in density-matrix entries)
for any number of subsystems of any finite dimensions, evaluates them by
direct index contraction and by index-free matrix formulas, and verifies the
algebraic structure numerically.

The label algebra (``perms``, ``graphs``) imports without numpy; the
numerical modules and their names load on first use.
"""

from importlib import import_module as _import_module

from .errors import ResourceLimitError, VerificationError
from .graphs import (
    build_graph,
    canonical_graph,
    connected_components,
    dot_export,
    expressible_ordering,
    graph_from_json,
    graph_to_json,
    graph_tuple,
)
from .perms import (
    MAX_GRADE,
    OrbitLabel,
    Perm,
    PermTuple,
    SimClass,
    canonical_form,
    compose,
    conjugate,
    enumerate_orbits,
    format_label,
    generator_count,
    generator_labels,
    identity,
    is_transitive,
    orbit_count,
    parse_label,
    perm_from_name,
    perm_name,
    perm_tuple,
    s3_orbit_representatives,
    sim_decompose,
)

#: The numerical modules, which load numpy: each is imported on first use of
#: its name or of a name in its ``__all__``, so the label algebra above runs
#: without numpy.
_NUMERICAL = ("closedform", "contract", "states", "verify")


def _numerical_modules():
    return [_import_module(f".{module}", __name__) for module in _NUMERICAL]


def _public_names() -> list[str]:
    names = {name for name in globals() if not name.startswith("_")}
    names.update(_NUMERICAL)
    for module in _numerical_modules():
        names.update(module.__all__)
    return sorted(names)


def __getattr__(name):
    if name == "__all__":  # so ``from luinv import *`` binds every public name
        return _public_names()
    if name in _NUMERICAL:
        return _import_module(f".{name}", __name__)
    if not name.startswith("_"):
        for module in _numerical_modules():
            if name in module.__all__:
                value = getattr(module, name)
                globals()[name] = value
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(_public_names()))


__version__ = "0.1.0"
