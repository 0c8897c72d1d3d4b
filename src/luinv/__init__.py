"""Local-unitary invariant polynomials of multipartite quantum states.

Enumerates the linearly independent invariants of grades 1-3 (polynomial
degrees 2, 4, 6 in pure-state amplitudes; 1, 2, 3 in density-matrix entries)
for any number of subsystems of any finite dimensions, evaluates them by
direct index contraction and by index-free matrix formulas, and verifies the
algebraic structure numerically.
"""

from .closedform import (
    FormulaDescriptor,
    alternate_writings,
    closed_form,
    closed_form_batch,
    formula_text,
    mixed_m1,
    mixed_m2,
    mixed_m3,
    parse_formula,
    pure_m1,
    pure_m2,
    pure_m3,
)
from .contract import (
    InvariantSpec,
    eval_mixed,
    eval_mixed_batch,
    eval_pure,
    eval_pure_batch,
    eval_pure_via_mixed,
)
from .errors import ResourceLimitError, VerificationError
from .graphs import (
    InvGraph,
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
    generator_labels,
    identity,
    is_transitive,
    parse_label,
    perm_from_name,
    perm_name,
    perm_tuple,
    s3_orbit_representatives,
    sim_decompose,
)
from .states import (
    DEFAULT_DIM_LIMIT,
    DensityMatrix,
    PureState,
    apply_local_unitaries,
    apply_local_unitaries_mixed,
    dim_limit,
    haar_unitary,
    is_hermitian,
    load_state,
    partial_trace,
    partial_transpose,
    projector,
    purify,
    random_density,
    random_hermitian,
    random_local_unitaries,
    random_pure,
    save_state,
    set_dim_limit,
    tensor_with_identity,
)
from .verify import VerifyReport, all_specs, render_table, reports_to_json, run_suite

__version__ = "0.1.0"
