"""Numerics for parallel transport along superpaths.

Exact Grassmann-algebra arithmetic, calculus on S x R^{1|1}, flows of even
and odd vector fields on R^{p|q}, and the half-order parallel-transport
solver for connections and Quillen superconnection data, with gluing,
reversal, reparametrization, adiabatic sweeps, and coefficient recovery.
"""

from .errors import (
    CapabilityError,
    CompatibilityError,
    ConfigError,
    DegreeError,
    DimensionError,
    DomainError,
    OrientationError,
    ParityError,
    ResolutionError,
    SuperTransportError,
    UnderdeterminedError,
)
from .grassmann import (
    AlgebraMap,
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    SmoothMap,
    adjoin_theta,
    graded_expm,
    split_theta,
    taylor_eval,
    taylor_eval_stack,
)
from .superfield import Grid, SuperField, SuperPoint
from .geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    SuperVectorField,
    Superconnection,
    TransportData,
    chart_claim_residual,
    connection_coefficient,
    endomorphism_term,
    lift_pullback,
    odd_tangent_data,
    odd_tangent_lift,
    superconnection_coefficient,
)
from .flows import Trajectory, flow_even, flow_odd, flow_odd_residual
from .transport import (
    SweepEntry,
    TransportMap,
    adiabatic_sweep,
    glue,
    glued_endpoint,
    lift_problem,
    ps,
    recover,
    reparametrize,
    reverse_transport,
    solve_parallel,
    sp,
)

__version__ = "0.1.0"
