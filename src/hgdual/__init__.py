"""Exact duality pairings for generalized (q-)hypergeometric operators."""

from .exact_algebra import (
    Q,
    rat,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    PoleAtOrigin,
)
from .skew_operators import (
    THETA,
    QSHIFT,
    SkewOperator,
    TaggedSeries,
    dual_operator,
    q_dual_operator,
    psi_matrix,
    psi_q_matrix,
)
from .hypergeometric import (
    HGParams,
    DegenerateParameters,
    hg_operator,
    solution_basis,
    c_constants,
    duality_matrix,
    verify_theorem1,
    verify_euler_identity,
)
from .q_hypergeometric import (
    QHGParams,
    qhg_operator,
    q_solution_basis,
    q_c_constants,
    q_duality_matrix,
    verify_theorem2,
    verify_heine_identity,
)

__version__ = "0.1.0"
