"""Second-order differential invariants of the classical point-symmetry
algebras, with a numerical verification engine and a small expression
language."""

__version__ = "0.1.0"

from .dual import Dual, EvaluationError
from .exprlang import (ParseError, SourceSpan, bind,
                       bind_scalar_function, parse, to_text)
from .invcat import (
    BasisFamily,
    JetSpace,
    ScalarJetFunction,
    TensorBuilder,
    basis,
    covariant_tensor,
    equation_function,
    galilei_mu0_determinant_family,
    rotation_dilation_family,
    rotation_pair_family,
    two_matrix_trace_family,
)
from .jetspace import (
    COMPLEX,
    REAL,
    FieldKind,
    JetCoordinateId,
    JetPoint,
    Metric,
    base_coord,
    d1_coord,
    d2_coord,
    enumerate_coords,
    euclidean,
    field_coord,
    minkowski,
    sample_generic,
    to_log_jets,
)
from .liealg import (
    AlgebraSpec,
    ProlongedOperator,
    VectorField,
    catalog,
    generic_rank,
    make_sampler,
    make_spec,
    prolong2,
)
from .verify import (
    CompletenessReport,
    CovarianceReport,
    InvarianceRecord,
    InvarianceReport,
    RankReport,
    check_absolute,
    check_covariance,
    check_on_manifold,
    completeness,
    independence_rank,
    newton_project,
)

__all__ = [name for name in dir() if not name.startswith("_")]
