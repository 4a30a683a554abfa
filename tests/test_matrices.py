import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phsid import (
    DimensionMismatchError,
    InvalidModelError,
    PSDMatrix,
    SPDMatrix,
    SkewSymmetricMatrix,
    SymmetricMatrix,
    project_psd,
)
from phsid.matrices import _project_psd_stack, _skew_from_lower, _sym_from_lower, _tril_mask
from conftest import philox, random_psd


class TestSkewSymmetric:
    def test_from_strict_lower_is_exactly_skew(self):
        rng = philox(1)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = SkewSymmetricMatrix.from_strict_lower(rng.normal(size=(n, n)))
            assert np.array_equal(m.array.T, -m.array)
            assert np.all(m.array.diagonal() == 0.0)

    def test_upper_triangle_of_input_is_ignored(self):
        m = SkewSymmetricMatrix.from_strict_lower([[5.0, 99.0], [2.0, 5.0]])
        assert m.array.tolist() == [[0.0, -2.0], [2.0, 0.0]]

    def test_from_matrix_accepts_valid_and_canonicalizes(self):
        m = SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-1.0, 0.0]])
        assert m.array.tolist() == [[0.0, 1.0], [-1.0, 0.0]]

    def test_from_matrix_rejects_violation(self):
        with pytest.raises(InvalidModelError, match="skew"):
            SkewSymmetricMatrix.from_matrix([[0.0, 1.0], [-0.5, 0.0]])

    def test_direct_construction_requires_exact_skewness(self):
        with pytest.raises(InvalidModelError):
            SkewSymmetricMatrix(np.array([[0.0, 1.0], [-1.0 + 1e-15, 0.0]]))

    def test_array_is_read_only(self):
        m = SkewSymmetricMatrix.zeros(3)
        with pytest.raises(ValueError):
            m.array[0, 1] = 1.0


@pytest.mark.parametrize("cls", [SkewSymmetricMatrix, SymmetricMatrix, PSDMatrix, SPDMatrix])
def test_from_matrix_rejects_an_empty_matrix(cls):
    with pytest.raises(DimensionMismatchError, match="must have dimension >= 1"):
        cls.from_matrix(np.zeros((0, 0)))


class TestSymmetric:
    def test_from_lower_is_exactly_symmetric(self):
        rng = philox(2)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = SymmetricMatrix.from_lower(rng.normal(size=(n, n)))
            assert np.array_equal(m.array.T, m.array)

    def test_diagonal_builder(self):
        m = SymmetricMatrix.diagonal([1.0, -2.0])
        assert m.array.tolist() == [[1.0, 0.0], [0.0, -2.0]]

    def test_from_matrix_rejects_asymmetry(self):
        with pytest.raises(InvalidModelError, match="symmetry"):
            SymmetricMatrix.from_matrix([[1.0, 2.0], [2.1, 1.0]])


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 4, 4)])
def test_mirrors_equal_their_tril_formulas_bit_for_bit(shape):
    # the cached masks select what np.tril keeps, signed zeros and NaNs included
    a = philox(3).normal(size=shape)
    a.flat[::3] = -0.0
    a.flat[1::5] = np.nan
    strict = np.tril(a, -1)
    tri = np.tril(a)
    for got, want in ((_skew_from_lower(a), strict - strict.swapaxes(-1, -2)),
                      (_sym_from_lower(a), tri + np.tril(tri, -1).swapaxes(-1, -2))):
        assert got.tobytes() == want.tobytes()
    # every caller of a shape shares its mask, so none may write into it
    with pytest.raises(ValueError, match="read-only"):
        _tril_mask(shape[-2:], 0)[0, 0] = False


@pytest.mark.parametrize("cls", [PSDMatrix, SPDMatrix])
class TestDefiniteMatrices:
    def test_takes_a_raw_array(self, cls):
        m = cls(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert isinstance(m, SymmetricMatrix)
        assert m.array.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_inherited_builders_return_the_subclass(self, cls):
        assert type(cls.from_lower([[2.0, 99.0], [1.0, 2.0]])) is cls
        assert type(cls.from_matrix([[2.0, 1.0], [1.0, 2.0]])) is cls
        assert type(cls.diagonal([1.0, 2.0])) is cls

    def test_rejects_asymmetric_array(self, cls):
        with pytest.raises(InvalidModelError, match="symmetry"):
            cls(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]))


class TestPSD:
    def test_accepts_psd(self):
        PSDMatrix.from_matrix([[2.0, 1.0], [1.0, 2.0]])

    def test_accepts_semidefinite(self):
        PSDMatrix.from_matrix([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 2, 0

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidModelError, match="semidefinite"):
            PSDMatrix.from_matrix([[1.0, 0.0], [0.0, -1e-3]])

    def test_tolerates_roundoff_negative_eigenvalue(self):
        PSDMatrix.from_matrix([[1.0, 0.0], [0.0, -1e-11]])


class TestSPD:
    def test_hand_cholesky(self):
        q = SPDMatrix.from_matrix([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(q.cholesky_factor, expected, rtol=0, atol=1e-15)

    def test_identity(self):
        for n in range(1, 9):
            q = SPDMatrix.identity(n)
            assert q.cholesky_factor.tobytes() == np.eye(n).tobytes()

    def test_cholesky_factor_is_read_only(self):
        q = SPDMatrix.from_matrix([[4.0, 2.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            q.cholesky_factor[0, 0] = 1.0

    def test_reconstruction_invariant(self):
        rng = philox(3)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            g = rng.normal(size=(n, n))
            q = SPDMatrix.from_matrix(g @ g.T / n + 0.3 * np.eye(n))
            v = q.cholesky_factor
            assert np.all(v.diagonal() > 0)
            err = np.linalg.norm(v @ v.T - q.array)
            assert err <= 1e-12 * np.linalg.norm(q.array)

    def test_rejects_semidefinite(self):
        with pytest.raises(InvalidModelError, match="definite"):
            SPDMatrix.from_matrix([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidModelError, match="definite"):
            SPDMatrix.from_matrix([[0.0, 1.0], [1.0, 0.0]])


class TestProjectPSD:
    def test_psd_input_unchanged(self):
        m = SymmetricMatrix.from_matrix([[2.0, 0.5], [0.5, 1.0]])
        out = project_psd(m)
        assert np.array_equal(out.array, m.array)

    def test_diagonal_clipping(self):
        out = project_psd(SymmetricMatrix.diagonal([1.0, -0.5]))
        assert type(out) is PSDMatrix
        assert out.array.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_offdiagonal_pair(self):
        # eigenvalues +-1 with eigenvector (1,1)/sqrt(2) for +1
        out = project_psd(SymmetricMatrix.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out.array, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-14)

    def test_projection_is_frobenius_nearest(self):
        rng = philox(4)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = SymmetricMatrix.from_lower(rng.normal(size=(n, n)))
            out = project_psd(m)
            evals = np.linalg.eigvalsh(out.array)
            assert evals[0] >= -1e-12
            # distance equals the norm of the clipped negative part
            neg = np.linalg.eigvalsh(m.array)
            expected = np.sqrt(np.sum(np.minimum(neg, 0.0) ** 2))
            got = np.linalg.norm(out.array - m.array)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(InvalidModelError, match="finite"):
            SymmetricMatrix.diagonal([1.0, np.nan])


BLOCK_KINDS = ("general", "diagonal", "diagonal_negative_zero", "boundary", "large",
               "psd", "psd_diagonal")


def symmetric_block(rng, n, kind):
    """A symmetric (n, n) block of the given kind: with no negative
    eigenvalue for the "psd" kinds, with one for the others."""
    if kind == "psd":
        g = rng.normal(size=(n, n))
        return _sym_from_lower(g @ g.T / n + 0.1 * np.eye(n))
    if kind == "psd_diagonal":
        # -0.0 off the diagonal and at [0, 0]: bits an entrywise clip would not keep
        a = np.full((n, n), -0.0)
        a[np.diag_indices(n)] = np.abs(rng.normal(size=n))
        a[0, 0] = -0.0
        return a
    if kind.startswith("diagonal"):
        d = rng.normal(size=n)
        d[rng.integers(n)] = -abs(d[0]) - 0.1
        a = np.full((n, n), -0.0 if kind == "diagonal_negative_zero" else 0.0)
        a[np.diag_indices(n)] = d
        return a
    if kind == "boundary":
        # smallest eigenvalue just below zero, by 1e-6 down to 1e-14
        a = random_psd(rng, n, 1e-3).array
        shift = np.linalg.eigvalsh(a)[0] + 10.0 ** -rng.integers(6, 15)
        return a - shift * np.eye(n)
    a = _sym_from_lower(rng.normal(size=(n, n)))
    a[0, 0] = -abs(a[0, 0]) - 0.1  # a negative diagonal entry bounds the spectrum below
    # at this scale the reassembly's round-off reaches the diagonal boost
    return a * 10.0 ** rng.integers(50, 300) if kind == "large" else a


def one_matrix_projection(a):
    """The spectral clip of one symmetric matrix ``a``, step by step through
    the public types: the reference the stacked core is held to."""
    if np.linalg.eigvalsh(a)[0] >= 0.0:
        return a
    if np.array_equal(a, np.diag(a.diagonal())):
        return np.diag(np.maximum(a.diagonal(), 0.0))
    w, u = np.linalg.eigh(a)
    sym = SymmetricMatrix.from_matrix((u * np.maximum(w, 0.0)) @ u.T, rtol=1e-8).array
    lam, attempt = float(np.linalg.eigvalsh(sym)[0]), 1
    while lam < -1e-12:
        boost = -lam * attempt**2 + np.spacing(max(float(np.abs(a).max()), 1.0))
        sym = sym + boost * np.eye(len(a))
        lam, attempt = float(np.linalg.eigvalsh(sym)[0]), attempt + 1
    return sym


def reassembled_min_eigenvalue(a):
    """Smallest eigenvalue of the clipped reassembly of ``a``, before any boost."""
    w, u = np.linalg.eigh(a)
    return np.linalg.eigvalsh(_sym_from_lower((u * np.maximum(w, 0.0)) @ u.T))[0]


def assert_projections_match(r, out):
    for block, got in zip(r, out):
        assert got.tobytes() == one_matrix_projection(block).tobytes()
        assert got.tobytes() == project_psd(SymmetricMatrix(block)).array.tobytes()


class TestProjectPSDStack:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1,
                                               max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_each_block_is_project_psd_bit_for_bit(self, n, kinds, seed):
        # exactly diagonal blocks (also with -0.0 off the diagonal), blocks
        # just outside the cone, large-scale blocks and blocks already in the
        # cone, stacked in any order: the PSD blocks come back bit for bit,
        # and each block equals the one-matrix projection's bits
        rng = philox(seed)
        r = np.stack([symmetric_block(rng, n, kind) for kind in kinds])
        psd = np.array([kind.startswith("psd") for kind in kinds])
        assert ((np.linalg.eigvalsh(r)[:, 0] >= 0.0) == psd).all()
        out = _project_psd_stack(r.copy())
        assert out.shape == r.shape
        assert out[psd].tobytes() == r[psd].tobytes()
        assert_projections_match(r, out)

    def test_large_scale_blocks_reach_the_diagonal_boost(self):
        rng = philox(9)
        r = np.stack([symmetric_block(rng, 6, "large") for _ in range(4)])
        assert all(reassembled_min_eigenvalue(a) < -1e-12 for a in r)
        out = _project_psd_stack(r)
        assert (np.linalg.eigvalsh(out)[:, 0] >= -1e-12).all()
        assert_projections_match(r, out)

    def test_diagonal_blocks_stay_exactly_diagonal(self):
        r = np.array([[[1.0, -0.0], [-0.0, -2.0]], [[-3.0, 0.0], [0.0, 4.0]]])
        out = _project_psd_stack(r)
        assert out.tobytes() == np.array([[[1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 4.0]]]).tobytes()
