"""Exception hierarchy for caralab."""


class CaralabError(Exception):
    """Base class for all caralab errors."""


class NotHermitianError(CaralabError):
    """Matrix is not Hermitian within the requested tolerance."""

    def __init__(self, defect: float):
        super().__init__(f"matrix is not Hermitian: defect {defect:.3e}")
        self.defect = defect


class NoConvergenceError(CaralabError):
    """The eigensolver failed to converge."""


class SpectrumOutOfRangeError(CaralabError):
    """An eigenvalue falls outside [0, 1] beyond tolerance."""

    def __init__(self, eigenvalue: float):
        super().__init__(f"eigenvalue {eigenvalue:.12g} outside [0, 1]")
        self.eigenvalue = eigenvalue


class DegenerateParameterError(CaralabError):
    """Parameter value for which the requested formula degenerates."""


class InadmissibleDirectionError(CaralabError):
    """Direction does not point into the bidisk at the given boundary point."""


class SingularDenominatorError(CaralabError):
    """The denominator operator of the pencil is numerically singular."""


class NotIsometricError(CaralabError):
    """Colligation block fails the isometry test."""

    def __init__(self, defect: float):
        super().__init__(f"colligation is not isometric: defect {defect:.3e}")
        self.defect = defect


class SingularResolventError(CaralabError):
    """The realization resolvent is numerically singular."""


class BadApertureError(CaralabError):
    """Nontangential aperture that is not a finite number >= 1, or too large for its grid."""


class UnconvergedError(CaralabError):
    """A required ray limit did not converge."""
