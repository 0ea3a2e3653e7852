import cmath

import numpy as np
import pytest

from caralab import (
    BoundaryPoint,
    Colligation,
    GeneralizedRealization,
    OperatorPencil,
    random_colligation,
    random_positive_contraction,
    validate_colligation,
    validate_positive_contraction,
)

TAU_11 = BoundaryPoint(1 + 0j, 1 + 0j)

#: boundary points used across tests: exact lattice points and irrational angles
TAUS = (
    TAU_11,
    BoundaryPoint(1 + 0j, -1 + 0j),
    BoundaryPoint(cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 5)),
)


def disk_point(rng: np.random.Generator) -> tuple[complex, complex]:
    r = np.sqrt(rng.uniform(0.0, 1.0, size=2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=2)
    z = r * np.exp(1j * th)
    return complex(z[0]), complex(z[1])


def scalar_model(y: float = 0.5, tau: BoundaryPoint = TAU_11, block=None) -> GeneralizedRealization:
    """One-dimensional realization over Y = [[y]]; defaults to the swap colligation.

    ``block`` may be a raw matrix (validated) or a Colligation instance
    (taken as-is, for negative controls).
    """
    contraction = validate_positive_contraction([[y]])
    pencil = OperatorPencil(contraction, tau)
    if block is None:
        block = [[0, 1], [1, 0]]
    col = block if isinstance(block, Colligation) else validate_colligation(block)
    return GeneralizedRealization(pencil, col)


def left_null_model(beta: float) -> GeneralizedRealization:
    """Non-isometric model with A = diag(1, 0) and B = (beta, 1); E = span(e1)."""
    pen = OperatorPencil(validate_positive_contraction(np.diag([0.5, 0.3])), TAU_11)
    block = np.array([[1.0, 0.0, beta], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
    return GeneralizedRealization(pen, Colligation(block))


def random_model(dim: int, tau: BoundaryPoint, rng: np.random.Generator) -> GeneralizedRealization:
    """Random positive contraction of the given dimension and a random unitary colligation."""
    y = random_positive_contraction(dim, rng)
    return GeneralizedRealization(OperatorPencil(y, tau), random_colligation(dim, rng))


def desk_model(rng: np.random.Generator) -> GeneralizedRealization:
    """Dim-64 model at (1, 1): 8 eigenvalues of Y at 1, 8 at 0, 48 interior."""
    dim = 64
    eigenvalues = np.concatenate([np.ones(8), np.zeros(8), rng.uniform(0.05, 0.95, dim - 16)])
    y = random_positive_contraction(dim, rng, eigenvalues=eigenvalues)
    return GeneralizedRealization(OperatorPencil(y, TAU_11), random_colligation(dim, rng))


def reference_calculus(y, f):
    """f(Y) as the sum of f(w) times the eigenprojector P_w, one Hermitian
    U_w U_w* per distinct weight: the reference that the eigenbasis
    formulas (`SpectralDecomposition.compose`, the pencil's kernel) are
    compared against."""
    dec = y.decomposition
    total = np.zeros((y.dim, y.dim), dtype=complex)
    for w in dec.eigenvalues:
        cols = dec.eigenvectors[:, dec.weights == w]
        p = cols @ cols.conj().T
        total += complex(f(w)) * (p + p.conj().T) / 2
    return total


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
