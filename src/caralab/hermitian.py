"""Dense complex Hermitian linear algebra.

Spectral decompositions with eigenvalue clustering, positive-contraction
validation and the JSON matrix schema.  A decomposition is held as the
eigenbasis U alone, with the snapped eigenvalue of each column;
eigenprojectors and matrices U diag(values) U* are built from U's columns
when asked for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergenceError, NotHermitianError, SpectrumOutOfRangeError

#: default eigenvalue clustering / snapping tolerance
DEFAULT_EIGTOL = 1e-9


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    arr = np.array(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


def matrix_to_json(a) -> dict:
    """Serialize a matrix as {"rows", "cols", "re", "im"} with row-major entries."""
    arr = as_complex_matrix(a)
    rows, cols = arr.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "re": [float(x) for x in arr.real.ravel()],
        "im": [float(x) for x in arr.imag.ravel()],
    }


def _json_int(value, field: str) -> int:
    """An integer field of a JSON document; anything else (a float, a bool) raises TypeError naming the field."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{field} must be an integer, got {value!r}")


def _json_numbers(values, field: str) -> np.ndarray:
    """A JSON list of numbers (int or float, not bool) as a float array, else ValueError naming the field."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{field} must be a list of numbers (int or float)")
    return np.array(values, dtype=float)


def matrix_from_json(doc: dict, name: str = "matrix") -> np.ndarray:
    """Parse the JSON matrix schema of :func:`matrix_to_json`; errors name its fields (name.rows, name.re, ...)."""
    rows, cols = _json_int(doc["rows"], f"{name}.rows"), _json_int(doc["cols"], f"{name}.cols")
    if rows <= 0 or cols <= 0:
        raise ValueError(f"{name}.rows and {name}.cols must be positive, got {rows} and {cols}")
    re = _json_numbers(doc["re"], f"{name}.re")
    # zeros shaped like re, not rows * cols: a huge declared size must fail
    # the count check below, not the allocation
    im = _json_numbers(doc["im"], f"{name}.im") if "im" in doc else np.zeros_like(re)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"{name}.re and {name}.im must hold rows * cols = {rows * cols} entries, got {re.size} and {im.size}"
        )
    return as_complex_matrix((re + 1j * im).reshape(rows, cols))


def hermitian_defect(a) -> float:
    """Operator 2-norm of A - A*."""
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.linalg.norm(arr - arr.conj().T, 2))


def opnorm(a) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


#: relative padding of the Frobenius and column-norm bounds that spare SVDs;
#: far above the rounding error of either norm or of an SVD
CERTIFICATE_PAD = 1e-9


def max_opnorm(stack) -> float:
    """Largest operator 2-norm over a (K, m, n) stack of matrices.

    Bit for bit ``np.linalg.norm(stack, 2, axis=(1, 2)).max()``, with the
    SVD taken only where it can decide the maximum.  Every column norm
    ||G e_j|| bounds ||G||_2 from below and the Frobenius norm bounds it
    from above, so a matrix whose Frobenius norm falls below the largest
    column norm in the stack (with CERTIFICATE_PAD) cannot hold the
    maximum.  The matrix holding the largest column norm always reaches
    it and goes to the SVD.  The bounds are formed after scaling by a power
    of two that brings the largest modulus to [1/2, 1), so that their
    squares do not underflow; the test is written as a negation, so that
    a NaN goes to the SVD too.
    """
    g = np.asarray(stack, dtype=complex)
    _, exponent = np.frexp(np.abs(g).max())
    re, im = np.ldexp(g.real, -exponent), np.ldexp(g.imag, -exponent)
    squares = re * re + im * im
    frobenius = np.sqrt(squares.sum(axis=(1, 2)))
    floor = np.sqrt(squares.sum(axis=1)).max()
    candidates = ~(frobenius * (1.0 + CERTIFICATE_PAD) < floor)
    return float(np.linalg.norm(g[candidates], 2, axis=(1, 2)).max())


@dataclass(frozen=True)
class SpectralDecomposition:
    """A Hermitian matrix as U diag(weights) U*, with clustered eigenvalues.

    ``eigenvectors`` is the unitary U of the eigensolver and ``weights``
    holds the snapped cluster eigenvalue of each of its columns; the
    columns sharing a weight span that eigenvalue's eigenspace.
    ``extremes`` holds the lowest and highest eigenvalue the eigensolver
    returned, before clustering and snapping.
    """

    eigenvectors: np.ndarray
    weights: np.ndarray
    extremes: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        """The distinct weights, ascending."""
        return tuple(sorted(set(self.weights.tolist())))

    def compose(self, values) -> np.ndarray:
        """U diag(values) U*; values of shape (..., n) give matrices (..., n, n)."""
        u = self.eigenvectors
        return (u * np.asarray(values)[..., None, :]) @ u.conj().T

    def projector(self, w: float) -> np.ndarray:
        """Orthogonal projector onto the eigenspace of weight w (zero if w is none)."""
        u = self.eigenvectors[:, self.weights == w]
        return u @ u.conj().T


def _hermitian_part(a, eigtol: float) -> np.ndarray:
    """(A + A*)/2 of a square matrix whose skew part A - A* passes the rule of :func:`spectral_decompose`.

    ||A - A*||_2 <= ||A - A*||_F, so the SVD behind :func:`hermitian_defect`
    runs only for a Frobenius norm above eigtol (with CERTIFICATE_PAD).
    """
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if np.linalg.norm(arr - arr.conj().T) * (1.0 + CERTIFICATE_PAD) > eigtol:
        defect = hermitian_defect(arr)
        # the norm only matters for a defect above eigtol
        if defect > eigtol and defect > 1e-14 * max(1.0, opnorm(arr)):
            raise NotHermitianError(defect)
    return (arr + arr.conj().T) / 2


def _decompose(herm: np.ndarray, eigtol: float) -> SpectralDecomposition:
    """The decomposition of :func:`spectral_decompose` of an exactly Hermitian matrix."""
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc

    # clusters split at the consecutive gaps above eigtol; a singleton keeps its eigenvalue
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(w) > eigtol) + 1, [w.size]))
    many = np.diff(cuts) > 1
    weights = w.copy()
    for lo, hi in zip(cuts[:-1][many], cuts[1:][many]):
        weights[lo:hi] = np.mean(w[lo:hi])
    weights = np.where(np.abs(weights) <= eigtol, 0.0, np.where(np.abs(weights - 1.0) <= eigtol, 1.0, weights))
    return SpectralDecomposition(v, weights, (float(w[0]), float(w[-1])))


def spectral_decompose(a, eigtol: float = DEFAULT_EIGTOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with eigenvalue clustering.

    A matrix whose defect ||A - A*||_2 exceeds both eigtol and
    1e-14 max(1, ||A||) is rejected; the Hermitian part (A + A*)/2 of the
    others is decomposed.  Eigenvalues within ``eigtol`` of each other form
    one cluster and share its mean as their weight, and a cluster value
    within ``eigtol`` of 0 or 1 is snapped to the exact endpoint, so
    projections are recognized exactly.  Clusters snapped onto the same
    endpoint share its eigenspace.
    """
    return _decompose(_hermitian_part(a, eigtol), eigtol)


@dataclass(frozen=True)
class PositiveContraction:
    """Hermitian matrix with spectrum in [0, 1], plus its decomposition."""

    matrix: np.ndarray
    decomposition: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return self.decomposition.eigenvalues

    @property
    def excursion(self) -> float:
        """How far the spectrum of ``matrix``, as the eigensolver measured it, leaves [0, 1].

        Unlike the weights, which snapping moves onto [0, 1], this is read
        before clustering, so a cluster snapped from further than eigtol
        (a chain of close eigenvalues) shows its full reach.
        """
        lo, hi = self.decomposition.extremes
        return max(0.0, -lo, hi - 1.0)


def validate_positive_contraction(
    a, eigtol: float = DEFAULT_EIGTOL
) -> PositiveContraction:
    """Accept a matrix whose spectrum lies in [-eigtol, 1+eigtol].

    The decomposition's weights lie in [0, 1], since snapping moves
    excursions within eigtol onto the endpoints.  ``matrix`` stores the
    Hermitian part (A + A*)/2 as given, not clamped.
    """
    herm = _hermitian_part(a, eigtol)
    dec = _decompose(herm, eigtol)
    for w in dec.eigenvalues:
        if w < 0.0 or w > 1.0:
            # snapping already absorbed excursions within eigtol
            raise SpectrumOutOfRangeError(w)
    return PositiveContraction(herm, dec)


def random_positive_contraction(
    dim: int,
    rng: np.random.Generator,
    eigenvalues: Sequence[float] | None = None,
) -> PositiveContraction:
    """Random positive contraction with prescribed or uniform spectrum."""
    if eigenvalues is None:
        eigenvalues = rng.uniform(0.0, 1.0, size=dim)
    vals = np.asarray(list(eigenvalues), dtype=float)
    if vals.size != dim:
        raise ValueError("need one eigenvalue per dimension")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    mat = (q * vals) @ q.conj().T
    return validate_positive_contraction((mat + mat.conj().T) / 2)
