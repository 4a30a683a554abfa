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
search's stacked trial points all call them.  Both matrix types derive from
one private base that holds the exact test (the array equals the mirror of
its own lower triangle) and ``from_matrix``, whose relative tolerance gate,
:func:`_check_mirror`, also checks the PSD projection's reassembly.

:class:`PSDMatrix` and :class:`SPDMatrix` are symmetric matrices: each is a
:class:`SymmetricMatrix` subclass that adds one spectral test to its
constructor, so they take a raw array and inherit ``from_matrix``,
``from_lower``, ``zeros`` and every structural error.  Definiteness can
only be checked numerically.  Positive semidefiniteness is validated with
an absolute slack ``PSD_EIG_TOL`` on the smallest eigenvalue, which absorbs
the round-off introduced by congruence transforms and projections.
Positive definiteness is whatever LAPACK's Cholesky factorization accepts;
its factor is kept.  The spectral clip (Higham 1988) is one stacked core,
:func:`_project_psd_stack`; it alone decides which blocks are already PSD
and leaves those bit for bit.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _tril_mask(shape: tuple[int, ...], k: int) -> np.ndarray:
    """``np.tril``'s mask, built once per shape: np.where(mask, a, 0.0) is np.tril(a, k)."""
    mask = np.tri(*shape, k=k, dtype=bool)
    mask.flags.writeable = False  # shared by every caller of that shape
    return mask


def _skew_from_lower(lower: np.ndarray) -> np.ndarray:
    """The strict lower triangle of ``lower`` (n, n) or (m, n, n), mirrored skew."""
    strict = np.where(_tril_mask(lower.shape[-2:], -1), lower, 0.0)
    return strict - strict.swapaxes(-1, -2)


def _sym_from_lower(lower: np.ndarray) -> np.ndarray:
    """The lower triangle of ``lower`` (n, n) or (m, n, n), mirrored symmetric."""
    tri = np.where(_tril_mask(lower.shape[-2:], 0), lower, 0.0)
    return tri + np.where(_tril_mask(tri.shape[-2:], -1), tri, 0.0).swapaxes(-1, -2)


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


def _frozen_vector(a, name, length=None) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    if length is not None and a.shape[0] != length:
        raise DimensionMismatchError(f"{name} has length {a.shape[0]}, expected {length}")
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


def _check_mirror(a: np.ndarray, sign: float, rtol: float, what: str) -> None:
    """Reject ``a``, one square matrix (n, n) or a stack (m, n, n), unless it
    is finite and every block equals ``sign`` times its transpose to within
    ``rtol`` times max(1, max|block|); ``what`` names the property in the
    errors, and the first failing block decides which error is raised."""
    if a.shape[-1] < 1:
        raise DimensionMismatchError(f"{what} check failed: matrix must have dimension >= 1")
    finite = np.isfinite(a).all(axis=(-2, -1))
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    with np.errstate(invalid="ignore"):  # inf - inf in a block rejected as non-finite
        off = np.abs(a - sign * a.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(~finite | (off > rtol * scale))
    if len(bad):
        if not finite.flat[bad[0]]:
            raise InvalidModelError(f"{what} check failed: non-finite entries")
        minus = "-" if sign < 0 else ""
        raise InvalidModelError(f"{what} violated: A[i, j] != {minus}A[j, i] beyond tolerance")


@dataclass(frozen=True)
class _MirroredMatrix:
    """Dense matrix that equals the mirror of its own lower triangle.

    A subclass names its ``_sign`` (-1 skew, +1 symmetric), its ``_mirror``
    of the lower triangle, its free-parameter builder ``_build`` and, for
    the errors, its ``_name`` and the property ``_what`` it keeps.  The
    stored array is read-only.  For a finite array, A == sign * A^T entry
    by entry is the same test as A == mirror(A), with a zero skew diagonal
    implied (a == -a only for a = 0), and is the cheaper one.
    """

    array: np.ndarray

    def __post_init__(self):
        a = _frozen_matrix(self.array, self._name)
        object.__setattr__(self, "array", a)
        if not (a == self._sign * a.T).all():
            raise InvalidModelError(
                f"{self._what} violated: build through {self._build}/from_matrix"
            )

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @classmethod
    def zeros(cls, n: int):
        return cls(np.zeros((n, n)))

    @classmethod
    def from_matrix(cls, a, rtol: float = SYMMETRY_RTOL):
        """Validate the mirror identity of ``a`` to relative tolerance
        ``rtol``, then canonicalize through the lower triangle."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected square matrix, got shape {a.shape}")
        _check_mirror(a, cls._sign, rtol, cls._what)
        return cls(cls._mirror(a))


class SkewSymmetricMatrix(_MirroredMatrix):
    """Dense skew-symmetric matrix, exact by construction.

    Use :meth:`from_strict_lower` (free parameters) or :meth:`from_matrix`
    (validated and canonicalized dense input).
    """

    _sign, _mirror, _build = -1.0, staticmethod(_skew_from_lower), "from_strict_lower"
    _name, _what = "skew-symmetric matrix", "skew-symmetry"

    @classmethod
    def from_strict_lower(cls, lower) -> "SkewSymmetricMatrix":
        """Build from free parameters; entries on and above the diagonal are ignored."""
        return cls(_skew_from_lower(np.asarray(lower, dtype=float)))


class SymmetricMatrix(_MirroredMatrix):
    """Dense symmetric matrix, exact by construction (mirrored lower triangle)."""

    _sign, _mirror, _build = 1.0, staticmethod(_sym_from_lower), "from_lower"
    _name, _what = "symmetric matrix", "symmetry"

    @classmethod
    def diagonal(cls, d) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(d, dtype=float)))

    @classmethod
    def from_lower(cls, lower) -> "SymmetricMatrix":
        """Build from free parameters: the lower triangle including the diagonal."""
        return cls(_sym_from_lower(np.asarray(lower, dtype=float)))


class PSDMatrix(SymmetricMatrix):
    """Symmetric positive semidefinite matrix (dissipation block).

    A :class:`SymmetricMatrix` whose smallest eigenvalue is checked on
    construction to be >= -PSD_EIG_TOL.
    """

    def __post_init__(self):
        super().__post_init__()
        lam_min = float(np.linalg.eigvalsh(self.array)[0])
        if lam_min < -PSD_EIG_TOL:
            raise InvalidModelError(
                f"positive semidefiniteness violated: smallest eigenvalue "
                f"{lam_min:.3e} < -{PSD_EIG_TOL:.0e}"
            )


class SPDMatrix(SymmetricMatrix):
    """Symmetric positive definite matrix (energy block).

    A :class:`SymmetricMatrix` that LAPACK's Cholesky factorization accepts;
    the read-only lower factor V, with ``array == V @ V.T`` up to round-off,
    is kept as ``cholesky_factor``.
    """

    def __post_init__(self):
        super().__post_init__()
        try:
            factor = np.linalg.cholesky(self.array)
        except np.linalg.LinAlgError:
            raise InvalidModelError(
                "positive definiteness violated: Cholesky factorization failed"
            ) from None
        factor.flags.writeable = False
        object.__setattr__(self, "cholesky_factor", factor)

    @classmethod
    def identity(cls, n: int) -> "SPDMatrix":
        return cls(np.eye(n))


def _project_psd_stack(r: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrices of the finite symmetric blocks ``r``
    (m, n, n), as a new (m, n, n) array.

    The one PSD test before projection is here: a block whose smallest
    eigenvalue by a stacked ``eigvalsh`` is >= 0 is returned bit for bit.
    Of the others, exactly diagonal blocks are clipped entrywise, which
    coincides with the spectral projection and keeps them exactly diagonal.
    The rest are eigendecomposed, their negative eigenvalues clipped to zero
    and the blocks reassembled, all as one stack; numpy's stacked linalg and
    matmul make one LAPACK or BLAS call per block, so each block is what a
    stack of one gives.
    """
    out = r.copy()
    neg = np.flatnonzero(np.linalg.eigvalsh(r)[:, 0] < 0.0)
    if not len(neg):
        return out
    n = r.shape[-1]
    diag = np.arange(n)
    off = r[neg]
    off[:, diag, diag] = 0.0
    diagonal = ~off.any(axis=(1, 2))
    clip = neg[diagonal]
    out[clip] = 0.0
    out[clip[:, None], diag, diag] = np.maximum(r[clip[:, None], diag, diag], 0.0)
    rest = neg[~diagonal]
    if not len(rest):
        return out
    w, u = np.linalg.eigh(r[rest])
    clipped = (u * np.maximum(w, 0.0)[:, None, :]) @ u.swapaxes(-1, -2)
    # reassembly is symmetric only to round-off; canonicalize with a loose
    # gate, the one SymmetricMatrix.from_matrix(clipped, rtol=1e-8) applies
    _check_mirror(clipped, 1.0, 1e-8, "symmetry")
    sym = _sym_from_lower(clipped)
    # for large-scale inputs the reassembly round-off alone can push the
    # smallest eigenvalue below the validation slack; boost the diagonal by an
    # escalating, representable amount (relative perturbation of order eps)
    lam = np.linalg.eigvalsh(sym)[:, 0]
    for i in np.flatnonzero(lam < -1e-12):
        block, low = sym[i], float(lam[i])
        attempt = 1
        while low < -1e-12:
            boost = -low * attempt**2 + np.spacing(max(float(np.abs(r[rest[i]]).max()), 1.0))
            block = SymmetricMatrix(block + boost * np.eye(n)).array
            low = float(np.linalg.eigvalsh(block)[0])
            attempt += 1
        sym[i] = block
    out[rest] = sym
    return out


def project_psd(m: SymmetricMatrix) -> PSDMatrix:
    """Frobenius-nearest positive semidefinite matrix.

    Eigendecompose, clip negative eigenvalues to zero, reassemble.  Inputs
    that are already PSD are returned unchanged (bit-exact).  Exactly
    diagonal inputs are clipped entrywise, which coincides with the spectral
    projection and keeps them exactly diagonal.  All of it is
    :func:`_project_psd_stack` on a stack of one, the core the line search
    runs on all of a batch's R blocks at once.
    """
    return PSDMatrix(_project_psd_stack(m.array[None])[0])
