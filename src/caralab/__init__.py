"""caralab: numerical boundary theory of Schur-Agler functions on the bidisk."""

from .boundary import (
    BoundaryReport,
    CarapointScan,
    DerivativeTable,
    JuliaRow,
    NontangentialGrid,
    build_grid,
    cara_quotients,
    classify_model,
    default_direction_pairs,
    default_directions,
    derivative_fd,
    derivative_model,
    derivative_table,
    detect_carapoint,
    julia_quotient_ray,
    linearity_defect,
    satisfies_aperture,
)
from .errors import (
    BadApertureError,
    CaralabError,
    DegenerateParameterError,
    InadmissibleDirectionError,
    NoConvergenceError,
    NotHermitianError,
    NotIsometricError,
    SingularDenominatorError,
    SingularResolventError,
    SpectrumOutOfRangeError,
    UnconvergedError,
)
from .hermitian import (
    PositiveContraction,
    SpectralDecomposition,
    hermitian_defect,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    random_positive_contraction,
    spectral_decompose,
    validate_positive_contraction,
)
from .pencil import (
    OperatorPencil,
    contractivity_scan,
    i_y_diagonal,
    i_y_eval,
    i_y_spectral_form,
)
from .points import BoundaryPoint, direction_entry_time
from .realization import (
    Colligation,
    GeneralizedRealization,
    RayLimit,
    colligation_with_ray_limit,
    dump_model,
    load_model,
    random_colligation,
    validate_colligation,
)
from .scalar_family import (
    phi_y_directional_derivative,
    phi_y_eval,
    phi_y_model_residual,
)

__version__ = "0.1.0"
