"""Structured dense matrices with exactly-enforced symmetry invariants.

The interconnection matrix J of a port-Hamiltonian system is skew-symmetric,
the dissipation matrix R is symmetric positive semidefinite and the energy
matrix Q is symmetric positive definite.  All three are stored here as full
dense arrays, but skew and symmetric matrices are only ever *built* from
their free parameters (the strict lower triangle for skew, the lower
triangle including the diagonal for symmetric).  The defining identities

    A[i, j] == -A[j, i]      (skew, diagonal exactly zero)
    A[i, j] ==  A[j, i]      (symmetric)

therefore hold bit-exactly, not merely up to round-off.  IEEE-754 negation
is exact, so mirroring the lower triangle preserves this under construction.
:func:`_skew_from_lower` and :func:`_sym_from_lower` are the one definition
of that mirror, for one matrix or a stack; the constructors and the line
search's stacked trial points all call them.

Definiteness is a spectral property and can only be checked numerically:
positive semidefiniteness is validated with an absolute slack ``PSD_EIG_TOL``
on the smallest eigenvalue, which absorbs the round-off introduced by
congruence transforms and projections.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidModelError

#: Validation slack for the smallest eigenvalue of a PSD matrix.
PSD_EIG_TOL = 1e-10

#: Relative tolerance when validating (skew-)symmetry of externally
#: supplied dense arrays before they are canonicalized.
SYMMETRY_RTOL = 1e-12

#: Relative Frobenius tolerance for the Cholesky reconstruction V @ V.T.
SPD_RECONSTRUCTION_RTOL = 1e-12


def _skew_from_lower(lower: np.ndarray) -> np.ndarray:
    """The strict lower triangle of ``lower`` (n, n) or (m, n, n), mirrored skew."""
    strict = np.tril(lower, -1)
    return strict - strict.swapaxes(-1, -2)


def _sym_from_lower(lower: np.ndarray) -> np.ndarray:
    """The lower triangle of ``lower`` (n, n) or (m, n, n), mirrored symmetric."""
    tri = np.tril(lower)
    return tri + np.tril(tri, -1).swapaxes(-1, -2)


def _frozen_matrix(a, name) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    a.flags.writeable = False
    return a


def _frozen_vector(a, name) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    a.flags.writeable = False
    return a


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether the real ``value`` is finite as a float; an integer too large
    for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_integer(value) -> bool:
    if isinstance(value, numbers.Integral):  # may be too large for a float
        return not isinstance(value, bool)
    return _is_real(value) and _is_finite(value) and int(value) == value


@dataclass(frozen=True)
class SkewSymmetricMatrix:
    """Dense skew-symmetric matrix, exact by construction.

    Use :meth:`from_strict_lower` (free parameters) or :meth:`from_matrix`
    (validated and canonicalized dense input).  The stored array is
    read-only.
    """

    array: np.ndarray

    def __post_init__(self):
        a = _frozen_matrix(self.array, "skew-symmetric matrix")
        object.__setattr__(self, "array", a)
        if not np.array_equal(a.T, -a) or not np.all(a.diagonal() == 0.0):
            raise InvalidModelError(
                "skew-symmetry violated: build through from_strict_lower/from_matrix"
            )

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "SkewSymmetricMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def from_strict_lower(cls, lower) -> "SkewSymmetricMatrix":
        """Build from free parameters; entries on and above the diagonal are ignored."""
        return cls(_skew_from_lower(np.asarray(lower, dtype=float)))

    @classmethod
    def from_matrix(cls, a, rtol: float = SYMMETRY_RTOL) -> "SkewSymmetricMatrix":
        """Validate that ``a`` is skew-symmetric to relative tolerance ``rtol``,
        then canonicalize through the strict lower triangle."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if not np.all(np.isfinite(a)):
            raise InvalidModelError("skew-symmetry check failed: non-finite entries")
        if np.abs(a + a.T).max() > rtol * scale:
            raise InvalidModelError(
                "skew-symmetry violated: A[i, j] != -A[j, i] beyond tolerance"
            )
        return cls.from_strict_lower(a)


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric matrix, exact by construction (mirrored lower triangle)."""

    array: np.ndarray

    def __post_init__(self):
        a = _frozen_matrix(self.array, "symmetric matrix")
        object.__setattr__(self, "array", a)
        if not np.array_equal(a.T, a):
            raise InvalidModelError(
                "symmetry violated: build through from_lower/from_matrix"
            )

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "SymmetricMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, d) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(d, dtype=float)))

    @classmethod
    def from_lower(cls, lower) -> "SymmetricMatrix":
        """Build from free parameters: the lower triangle including the diagonal."""
        return cls(_sym_from_lower(np.asarray(lower, dtype=float)))

    @classmethod
    def from_matrix(cls, a, rtol: float = SYMMETRY_RTOL) -> "SymmetricMatrix":
        """Validate symmetry to relative tolerance ``rtol``, canonicalize via lower triangle."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if not np.all(np.isfinite(a)):
            raise InvalidModelError("symmetry check failed: non-finite entries")
        if np.abs(a - a.T).max() > rtol * scale:
            raise InvalidModelError("symmetry violated: A[i, j] != A[j, i] beyond tolerance")
        return cls.from_lower(a)


@dataclass(frozen=True)
class PSDMatrix:
    """Symmetric positive semidefinite matrix (dissipation block).

    Semidefiniteness is validated on construction: the smallest eigenvalue
    must be >= -PSD_EIG_TOL.
    """

    base: SymmetricMatrix

    def __post_init__(self):
        lam_min = float(np.linalg.eigvalsh(self.base.array)[0])
        if lam_min < -PSD_EIG_TOL:
            raise InvalidModelError(
                f"positive semidefiniteness violated: smallest eigenvalue "
                f"{lam_min:.3e} < -{PSD_EIG_TOL:.0e}"
            )

    @property
    def array(self) -> np.ndarray:
        return self.base.array

    @property
    def n(self) -> int:
        return self.base.n

    @classmethod
    def zeros(cls, n: int) -> "PSDMatrix":
        return cls(SymmetricMatrix.zeros(n))

    @classmethod
    def from_matrix(cls, a, rtol: float = SYMMETRY_RTOL) -> "PSDMatrix":
        return cls(SymmetricMatrix.from_matrix(a, rtol=rtol))


@dataclass(frozen=True)
class SPDMatrix:
    """Symmetric positive definite matrix together with its lower Cholesky factor.

    ``base == cholesky_factor @ cholesky_factor.T`` up to a relative
    Frobenius error of ``SPD_RECONSTRUCTION_RTOL``; the factor has a strictly
    positive diagonal (Cholesky succeeds iff the matrix is positive definite).
    """

    base: SymmetricMatrix
    cholesky_factor: np.ndarray

    def __post_init__(self):
        v = _frozen_matrix(self.cholesky_factor, "Cholesky factor")
        object.__setattr__(self, "cholesky_factor", v)
        if v.shape != self.base.array.shape:
            raise DimensionMismatchError("Cholesky factor shape does not match base")
        if not np.all(v.diagonal() > 0.0):
            raise InvalidModelError(
                "positive definiteness violated: Cholesky diagonal not strictly positive"
            )
        err = np.linalg.norm(v @ v.T - self.base.array)
        if err > SPD_RECONSTRUCTION_RTOL * max(np.linalg.norm(self.base.array), 1e-300):
            raise InvalidModelError(
                "Cholesky factor does not reconstruct the matrix to tolerance"
            )

    @property
    def array(self) -> np.ndarray:
        return self.base.array

    @property
    def n(self) -> int:
        return self.base.n

    @classmethod
    def identity(cls, n: int) -> "SPDMatrix":
        return cls(SymmetricMatrix(np.eye(n)), np.eye(n))

    @classmethod
    def from_matrix(cls, a, rtol: float = SYMMETRY_RTOL) -> "SPDMatrix":
        base = SymmetricMatrix.from_matrix(a, rtol=rtol)
        try:
            factor = np.linalg.cholesky(base.array)
        except np.linalg.LinAlgError:
            raise InvalidModelError(
                "positive definiteness violated: Cholesky factorization failed"
            ) from None
        return cls(base, factor)


def project_psd(m: SymmetricMatrix) -> PSDMatrix:
    """Frobenius-nearest positive semidefinite matrix.

    Eigendecompose, clip negative eigenvalues to zero, reassemble.  Inputs
    that are already PSD are returned unchanged (bit-exact).  Exactly
    diagonal inputs are clipped entrywise, which coincides with the spectral
    projection and keeps them exactly diagonal.
    """
    a = m.array
    if not np.all(np.isfinite(a)):
        raise InvalidModelError("projection failed: non-finite entries")
    if np.linalg.eigvalsh(a)[0] >= 0.0:
        return PSDMatrix(m)
    if np.array_equal(a, np.diag(a.diagonal())):
        return PSDMatrix(SymmetricMatrix.diagonal(np.maximum(a.diagonal(), 0.0)))
    w, u = np.linalg.eigh(a)
    clipped = (u * np.maximum(w, 0.0)) @ u.T
    # reassembly is symmetric only to round-off; canonicalize with a loose gate
    sym = SymmetricMatrix.from_matrix(clipped, rtol=1e-8)
    # for large-scale inputs the reassembly round-off alone can push the
    # smallest eigenvalue below the validation slack; boost the diagonal by an
    # escalating, representable amount (relative perturbation of order eps)
    lam = float(np.linalg.eigvalsh(sym.array)[0])
    attempt = 1
    while lam < -1e-12:
        boost = -lam * attempt**2 + np.spacing(max(float(np.abs(a).max()), 1.0))
        sym = SymmetricMatrix(sym.array + boost * np.eye(sym.n))
        lam = float(np.linalg.eigvalsh(sym.array)[0])
        attempt += 1
    return PSDMatrix(sym)
