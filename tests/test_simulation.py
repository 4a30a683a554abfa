import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import phsid as p
from conftest import (
    diverging_system,
    oscillator_system,
    philox,
    random_psd,
    random_reduced_system,
    random_signal,
    random_skew,
)
from phsid import systems
from phsid.systems import _CHUNK_VALUES, _affine_scan, _euler_states


def euler_oracle(a, b, w0, u_values, h):
    """Plain textbook Euler loop, written independently of the library kernel."""
    w = np.array(w0, dtype=float)
    out = [w.copy()]
    for j in range(len(u_values) - 1):
        w = w + h * (a @ w + b @ u_values[j])
        out.append(w.copy())
    return np.array(out)


class TestSimulateEuler:
    def test_zero_dynamics_keeps_state(self):
        grid = p.TimeGrid(1.0, 25)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.zeros((2, 1)), np.array([3.0, -1.0]))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert np.all(traj.states == [3.0, -1.0])

    def test_scalar_decay_recursion(self):
        grid = p.TimeGrid(1.0, 10)  # h = 0.1
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[1.0]]),
            np.zeros((1, 1)), np.array([1.0]))
        traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        np.testing.assert_allclose(traj.states[1], [0.9], rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.states[2], [0.81], rtol=0, atol=1e-15)

    def test_matches_independent_loop(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=5))
        traj = p.simulate_euler(oscillator, u)
        expected = euler_oracle(oscillator.drift(), oscillator.B,
                                oscillator.w_hat, u.values, grid.h)
        np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-12)

    def test_output_shape_and_range(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=5))
        y = p.output(oscillator, p.simulate_euler(oscillator, u))
        assert y.values.shape == (1001, 1)
        assert y.values[0, 0] == 3.0  # B^T w_hat with B = (1,1), w_hat = (1,2)
        # bounded oscillation, no blow-up on the unit horizon
        assert np.all(np.abs(y.values) < 4.0)

    def test_first_order_convergence(self):
        # smooth dissipative problem with no input; reference via matrix exponential
        sys = oscillator_system()
        a = sys.drift()
        exact = expm(a) @ sys.w_hat
        errors = []
        for steps in (200, 400, 800):
            grid = p.TimeGrid(1.0, steps)
            traj = p.simulate_euler(sys, p.Signal.zeros(grid, 1))
            errors.append(np.linalg.norm(traj.states[-1] - exact))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9)

    def test_divergence_reports_step(self):
        # dissipative ODE but unstable discretization: w' = -5w with h = 1
        # gives the propagator -4, so |w| grows fourfold per step
        grid = p.TimeGrid(400.0, 400)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[5.0]]),
            np.zeros((1, 1)), np.array([1e300]))
        with pytest.raises(p.DivergenceError) as err:
            p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert 0 < err.value.step < 20

    def test_overflowing_propagator_powers_name_step_2(self):
        # K = 1000 is one chunk of the doubling scan; the powers of the
        # propagator overflow, so the chunk is not finite and the scan steps
        # from x_0
        grid = p.TimeGrid(1.0, 1000)
        with pytest.raises(p.DivergenceError) as err:
            p.simulate_euler(diverging_system(), p.Signal.zeros(grid, 1))
        assert err.value.step == 2

    def test_divergence_in_a_later_chunk_names_the_per_step_loop_step(self):
        # w' = -2.04 w with h = 1: the propagator -1.04 and its powers up to
        # the chunk length are finite, and the states overflow after about
        # 18100 steps, past the first chunk (_CHUNK_VALUES steps at n = 1);
        # the rescan from that chunk's start names the per-step loop's step
        grid = p.TimeGrid(20000.0, 20000)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[2.04]]),
            np.zeros((1, 1)), np.array([1.0]))
        propagator = 1.0 + grid.h * -2.04
        w, first = 1.0, None
        with np.errstate(over="ignore"):
            for j in range(1, grid.num_nodes):
                w = propagator * w
                if not np.isfinite(w):
                    first = j
                    break
        assert grid.steps > first > _CHUNK_VALUES
        with pytest.raises(p.DivergenceError) as err:
            p.simulate_euler(sys, p.Signal.zeros(grid, 1))
        assert err.value.step == first

    def test_port_count_mismatch(self, oscillator):
        grid = p.TimeGrid(1.0, 5)
        with pytest.raises(p.DimensionMismatchError):
            p.simulate_euler(oscillator, p.Signal.zeros(grid, 2))


def midpoint_oracle(a, b, w0, u_values, h):
    """Per-step linear solve, written independently of the library kernel."""
    n = len(w0)
    m_minus = np.eye(n) - 0.5 * h * a
    m_plus = np.eye(n) + 0.5 * h * a
    w = np.array(w0, dtype=float)
    out = [w.copy()]
    for j in range(len(u_values) - 1):
        w = np.linalg.solve(m_minus, m_plus @ w + h * b @ u_values[j + 1])
        out.append(w.copy())
    return np.array(out)


class TestStackedEuler:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), m=st.integers(1, 8),
           steps=st.integers(1, 1200), seed=st.integers(0, 2**32 - 1))
    def test_each_element_equals_its_own_sweep(self, n, k, m, steps, seed):
        rng = philox(seed)
        drifts = np.stack([random_skew(rng, n).array - random_psd(rng, n).array
                           for _ in range(m)])
        b = rng.normal(size=(n, k))
        w0 = rng.normal(size=(m, n))
        u_values = rng.normal(size=(steps + 1, k))
        h = 1.0 / steps
        states, finite = _euler_states(drifts, b, w0, u_values, h)
        assert states.shape == (m, steps + 1, n)
        assert finite.all()
        for i in range(m):
            assert np.array_equal(states[i], _euler_states(drifts[i], b, w0[i], u_values, h))

    def test_diverged_element_is_returned_not_raised(self):
        assert_diverged_element_is_returned(steps=100)

    def test_diverged_element_alone_is_rescanned_at_k_1000(self):
        # K = 1000 is one chunk of the doubling scan; the diverging element's
        # chunk overflows and it alone is rescanned stepwise, the others keep
        # their doubling-scan states
        assert_diverged_element_is_returned(steps=1000)


def assert_diverged_element_is_returned(steps):
    grid = p.TimeGrid(1.0, steps)
    b = np.ones((2, 1))
    u_values = np.ones((grid.num_nodes, 1))
    drifts = np.stack([np.diag([-0.5, -0.3]), np.diag([1e6, 1e6]), np.diag([-0.1, -0.2])])
    w0 = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, 0.5]])
    states, _ = _euler_states(drifts, b, w0, u_values, grid.h)
    assert not np.isfinite(states[1]).all()
    with pytest.raises(p.DivergenceError):
        _euler_states(drifts[1], b, w0[1], u_values, grid.h)
    for i in (0, 2):
        single = _euler_states(drifts[i], b, w0[i], u_values, grid.h)
        assert np.array_equal(states[i], single)


def plain_loop(p_mat, rows):
    """The per-step loop x_{j+1} = P x_j + f_j over ``rows`` (K+1, [m,] n),
    written apart from the kernel."""
    out = rows.copy()
    for j in range(len(rows) - 1):
        out[j + 1] = (p_mat @ out[j][..., None])[..., 0] + rows[j + 1]
    return out


def random_propagators(rng, n, count, h, midpoint, adjoint):
    """Euler or midpoint propagators of ``count`` random models at step
    ``h``, (count, n, n), plain or transposed as the adjoint sweeps them."""
    props = []
    for _ in range(count):
        a = random_reduced_system(rng, n, 1).drift()
        if midpoint:
            props.append(np.linalg.solve(np.eye(n) - 0.5 * h * a, np.eye(n) + 0.5 * h * a))
        else:
            props.append(np.eye(n) + h * a)
    props = np.stack(props)
    return props.swapaxes(-1, -2) if adjoint else props


class TestAffineScan:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), count=st.integers(0, 4), shared=st.booleans(),
           adjoint=st.booleans(), midpoint=st.booleans(), t_end=st.floats(0.5, 20.0),
           steps=st.integers(1, 2500), seed=st.integers(0, 2**32 - 1))
    def test_states_within_replay_tolerance(self, n, count, shared, adjoint, midpoint,
                                            t_end, steps, seed):
        # the doubling scan reorders the per-step loop's sums: on Euler and
        # midpoint propagators of random models, plain or transposed as the
        # adjoint sweeps them, it stays within 1e-12 of each element's largest
        # state (perfbench's REPLAY_RTOL; 7.9e-13 measured at worst), from
        # K = 1 on and past the first chunk at n = 8.  count = 0 is one
        # sweep (K+1, n), count >= 1 an element-major stack (count, K+1, n)
        # with one shared P or one P per element
        h = t_end / steps
        rng = philox(seed)
        props = random_propagators(rng, n, 1 if shared or not count else count, h, midpoint,
                                   adjoint)
        p_mat = props if count and not shared else props[0]
        stack = (count,) if count else ()
        rows = rng.normal(size=(steps + 1, *stack, n))
        scanned = np.moveaxis(rows, 0, -2).copy()
        _affine_scan(p_mat, scanned)
        scanned = np.moveaxis(scanned, -2, 0)
        expected = plain_loop(p_mat, rows)
        scale = np.abs(expected).max(axis=(0, -1))
        assert (np.abs(scanned - expected).max(axis=(0, -1)) <= 1e-12 * scale).all()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(1, 21), count=st.integers(1, 3), shared=st.booleans(),
           midpoint=st.booleans(), t_end=st.floats(0.5, 20.0), extra=st.integers(0, 700),
           seed=st.integers(0, 2**32 - 1))
    def test_chunks_within_replay_tolerance_and_bit_exact_per_element(
            self, n, count, shared, midpoint, t_end, extra, seed):
        # K spans at least three chunks of _CHUNK_VALUES // n steps, each
        # started from the last state of the one before: every state stays
        # within 1e-12 of each element's largest state of the per-step loop,
        # and each stack element equals its own single sweep bit for bit
        steps = 2 * (_CHUNK_VALUES // n) + 1 + extra
        rng = philox(seed)
        props = random_propagators(rng, n, 1 if shared else count, t_end / steps, midpoint,
                                   adjoint=False)
        p_mat = props[0] if shared else props
        rows = rng.normal(size=(steps + 1, count, n))
        scanned = rows.swapaxes(0, 1).copy()
        _affine_scan(p_mat, scanned)
        expected = plain_loop(p_mat, rows)
        scale = np.abs(expected).max(axis=(0, -1))
        assert (np.abs(scanned.swapaxes(0, 1) - expected).max(axis=(0, -1)) <= 1e-12 * scale).all()
        for i in range(count):
            single = rows[:, i].copy()
            _affine_scan(p_mat if shared else p_mat[i], single)
            assert np.array_equal(scanned[i], single)

    @pytest.mark.parametrize("n", [1, 2, 8, 21, 22, 32])
    def test_per_step_loop_runs_only_after_an_overflow(self, n):
        # the doubling scan serves every n and K, n > 21 too: on finite runs
        # of K = 1, a few steps and more than one chunk, single sweeps and
        # stacks with a shared P or one per element, the per-step loop never
        # runs; a run that overflows rescans its chunk with it
        rng = philox(n)
        chunk = _CHUNK_VALUES // n
        for steps in (1, 5, chunk + 3):
            props = random_propagators(rng, n, 3, 1.0 / steps, midpoint=False, adjoint=False)
            for p_mat, shape in ((props[0], (steps + 1, n)), (props[0], (3, steps + 1, n)),
                                 (props, (3, steps + 1, n))):
                rows = rng.normal(size=shape)
                with mock.patch.object(systems, "_step_scan",
                                       wraps=systems._step_scan) as step_scan:
                    finite = _affine_scan(p_mat, rows)
                assert step_scan.call_count == 0
                assert np.isfinite(rows).all() and finite.all()
        # 16 I overflows within 256 steps, in the first chunk at n <= 32
        rows = rng.normal(size=(chunk + 4, n))
        with mock.patch.object(systems, "_step_scan", wraps=systems._step_scan) as step_scan:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = _affine_scan(16.0 * np.eye(n), rows)
        assert step_scan.call_count == 1
        assert not np.isfinite(rows[-1]).any() and not finite.any()


class TestFiniteMask:
    @pytest.mark.parametrize("steps", [5, _CHUNK_VALUES // 2 + 3])
    @pytest.mark.parametrize("diverging", [(True,), (False, True), (True, False, False, True),
                                           (False, True, True, False)])
    def test_mask_names_the_elements_that_stayed_finite(self, steps, diverging):
        # per-element P: 16 I from 1e305 overflows within five steps, in the
        # first chunk at n = 2; K = _CHUNK_VALUES // 2 + 3 runs the finite
        # elements on past that chunk
        n, diverging = 2, np.array(diverging)
        rng = philox(steps + len(diverging))
        props = random_propagators(rng, n, len(diverging), 1.0 / steps, midpoint=False,
                                   adjoint=False)
        props[diverging] = 16.0 * np.eye(n)
        rows = rng.normal(size=(len(diverging), steps + 1, n))
        rows[diverging] *= 1e305
        scanned = rows.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            finite = _affine_scan(props, scanned)
        assert np.array_equal(finite, np.isfinite(scanned).all(axis=(1, 2)))
        assert np.array_equal(finite, ~diverging)
        for i in np.flatnonzero(finite):
            single = rows[i].copy()
            assert _affine_scan(props[i], single).all()
            assert np.array_equal(scanned[i], single)

    @pytest.mark.parametrize("steps", [5, _CHUNK_VALUES // 2 + 3])
    def test_mask_follows_the_rescan_not_the_rounds(self, steps):
        # a shared 16 I: the elements from 1e305 overflow, and those that
        # start at zero with zero forcing stay zero, though past 256 steps
        # the powers overflow and the rounds give them NaN; the rescan
        # restores their zeros and the mask says so
        n = 2
        rows = 1e305 * philox(steps).normal(size=(4, steps + 1, n))
        rows[[1, 2]] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            finite = _affine_scan(16.0 * np.eye(n), rows)
        assert np.array_equal(finite, np.isfinite(rows).all(axis=(1, 2)))
        assert np.array_equal(finite, [False, True, True, False])
        assert not rows[[1, 2]].any()

    @pytest.mark.parametrize("simulate, rate, w0, u, steps", [
        # Euler's propagator 1 - rate: -16 overflows 1e305 at step 3, and
        # -1.04 overflows 1 past the first chunk (_CHUNK_VALUES steps at n = 1)
        (p.simulate_euler, 17.0, 1e305, 0.0, 5),
        (p.simulate_euler, 2.04, 1.0, 0.0, 20_000),
        # the midpoint's propagator 1 with forcing u: 1e308 + 5e307 is finite
        # and overflows at step 2, and 1e304 per step overflows at step 17977
        (p.simulate_discrete_gradient, 0.0, 1e308, 5e307, 5),
        (p.simulate_discrete_gradient, 0.0, 0.0, 1e304, 20_000),
    ])
    def test_integrators_raise_at_the_per_step_loops_step(self, simulate, rate, w0, u, steps):
        grid = p.TimeGrid(float(steps), steps)  # h = 1
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.from_matrix([[rate]]),
            np.ones((1, 1)), np.array([w0]))
        propagator = 1.0 - rate if simulate is p.simulate_euler else 1.0
        w, first = np.float64(w0), None
        with np.errstate(over="ignore"):
            for j in range(1, grid.num_nodes):
                w = propagator * w + u
                if not np.isfinite(w):
                    first = j
                    break
        assert first is not None
        with pytest.raises(p.DivergenceError) as err:
            simulate(sys, p.Signal(grid, np.full((grid.num_nodes, 1), u)))
        assert err.value.step == first


def scan_peak(p_mat, rows):
    """Bytes that :func:`_affine_scan` allocates beyond ``rows`` at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _affine_scan(p_mat, rows)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestScanMemory:
    @pytest.mark.parametrize("n, steps", [(2, 8192), (1, 16_384), (8, 2048), (8, 10_000),
                                          (2, 100_000)])
    def test_temporaries_stay_within_four_chunks_whatever_k(self, n, steps):
        # the copy of the chunk's forcing and one product buffer are a chunk
        # each; the powers and the chunk's finiteness test come to a small
        # part of one more.  Where K n is near _CHUNK_VALUES that is about
        # twice the rows; at K = 1e5 a sixth
        rng = philox(steps)
        p_mat = random_propagators(rng, n, 1, 1.0 / steps, midpoint=False, adjoint=False)[0]
        rows = rng.normal(size=(steps + 1, n))
        assert scan_peak(p_mat, rows) <= 4 * _CHUNK_VALUES * 8
        assert np.isfinite(rows).all()

    def test_a_stack_holds_no_more_than_its_elements_one_at_a_time(self):
        # the Armijo evaluator's shape: 8 candidates of n = 8 at K = 1000,
        # one chunk.  The forcing copy and the product buffer hold a chunk of
        # every element, as the candidates' own sweeps would
        n, count, steps = 8, 8, 1000
        rng = philox(5)
        props = random_propagators(rng, n, count, 1.0 / steps, midpoint=False, adjoint=False)
        rows = rng.normal(size=(count, steps + 1, n))
        singles = [rows[i].copy() for i in range(count)]
        stacked = scan_peak(props, rows)
        assert stacked <= sum(scan_peak(props[i], single) for i, single in enumerate(singles))
        for i, single in enumerate(singles):
            assert np.array_equal(rows[i], single)


class TestBitExactIntegrators:
    """Both integrators are :func:`_affine_scan` run on their textbook
    propagator and their forcing ``inputs @ S.T``, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), k=st.integers(1, 3), steps=st.integers(1, 2500),
           seed=st.integers(0, 2**32 - 1))
    def test_integrators_equal_the_kernel_bit_for_bit(self, n, k, steps, seed):
        rng = philox(seed)
        sys = random_reduced_system(rng, n, k)
        grid = p.TimeGrid(1.0, steps)
        u = random_signal(rng, grid, k)
        h, a = grid.h, sys.drift()

        def kernel_states(propagator, source, inputs):
            rows = np.concatenate([sys.w_hat[None], inputs @ source.T])
            _affine_scan(propagator, rows)
            return rows

        expected = kernel_states(np.eye(n) + h * a, h * sys.B, u.values[:-1])
        assert np.array_equal(p.simulate_euler(sys, u).states, expected)

        m_minus = np.eye(n) - 0.5 * h * a
        m_plus = np.eye(n) + 0.5 * h * a
        expected = kernel_states(np.linalg.solve(m_minus, m_plus),
                                 np.linalg.solve(m_minus, h * sys.B), u.values[1:])
        assert np.array_equal(p.simulate_discrete_gradient(sys, u).states, expected)

    @pytest.mark.parametrize("simulate", [p.simulate_euler, p.simulate_discrete_gradient])
    def test_peak_memory_is_the_state_buffer(self, simulate):
        grid = p.TimeGrid(1.0, 100_000)
        sys = oscillator_system()
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=4))
        states_bytes = grid.num_nodes * sys.n * 8

        def peak():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                simulate(sys, u)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # Trajectory adopts the state buffer: the buffer and the scan's two
        # chunk buffers come to 1.18x the states, a K x n forcing temporary
        # or a copy of the states to 2.0x.
        assert peak() <= 1.5 * states_bytes


class TestDiscreteGradient:
    def test_zero_dynamics_keeps_state_exactly(self):
        grid = p.TimeGrid(1.0, 30)
        sys = p.ReducedPHSystem(
            p.SkewSymmetricMatrix.zeros(2), p.PSDMatrix.zeros(2),
            np.zeros((2, 1)), np.array([1.5, -2.5]))
        traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
        assert np.all(traj.states == [1.5, -2.5])

    def test_matches_independent_solve_loop(self, oscillator):
        grid = p.TimeGrid(1.0, 500)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=9))
        traj = p.simulate_discrete_gradient(oscillator, u)
        expected = midpoint_oracle(oscillator.drift(), oscillator.B,
                                   oscillator.w_hat, u.values, grid.h)
        np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-12)

    def test_divergence_reports_step(self):
        assert_midpoint_overflow_at_step_2(steps=4)

    def test_overflowing_chunk_is_rescanned_to_report_step(self):
        # K = 1000 is one chunk of the doubling scan: its states overflow and
        # it is rescanned stepwise from x_0
        assert_midpoint_overflow_at_step_2(steps=1000)

    def test_skew_only_conserves_energy(self):
        rng = philox(21)
        grid = p.TimeGrid(1.0, 1000)
        sys = p.ReducedPHSystem(
            random_skew(rng, 3), p.PSDMatrix.zeros(3),
            np.zeros((3, 1)), rng.normal(size=3))
        traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
        energy = p.hamiltonian(traj)
        assert np.abs(energy - energy[0]).max() <= 1e-12 * max(1.0, energy[0])

    def test_differs_from_euler_by_order_h(self, oscillator):
        grid = p.TimeGrid(1.0, 1000)
        u = p.generate_input(grid, 1, p.NoiseSpec(seed=3))
        euler = p.simulate_euler(oscillator, u).states
        midpoint = p.simulate_discrete_gradient(oscillator, u).states
        gap = np.abs(euler - midpoint).max()
        assert 0.0 < gap < 50.0 * grid.h

    def test_dissipativity_without_input(self):
        rng = philox(22)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            sys = random_reduced_system(rng, n, 1)
            grid = p.TimeGrid(2.0, 400)
            traj = p.simulate_discrete_gradient(sys, p.Signal.zeros(grid, 1))
            energy = p.hamiltonian(traj)
            assert np.all(energy[1:] <= energy[:-1] + 1e-12)


def assert_midpoint_overflow_at_step_2(steps):
    # zero dynamics, so w_{j+1} = w_j + h u_{j+1}: 1e308 + 0.5e308 is still
    # finite at step 1, and 2e308 overflows at step 2
    grid = p.TimeGrid(0.5 * steps, steps)  # h = 0.5
    sys = p.ReducedPHSystem(
        p.SkewSymmetricMatrix.zeros(1), p.PSDMatrix.zeros(1),
        np.ones((1, 1)), np.array([1e308]))
    u = p.Signal(grid, np.full((grid.num_nodes, 1), 1e308))
    with pytest.raises(p.DivergenceError, match="discrete-gradient") as err:
        p.simulate_discrete_gradient(sys, u)
    assert err.value.step == 2


class TestEnergyBalance:
    def test_midpoint_residual_is_roundoff(self):
        rng = philox(23)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 3))
            sys = random_reduced_system(rng, n, k)
            grid = p.TimeGrid(1.0, 300)
            u = random_signal(rng, grid, k)
            traj = p.simulate_discrete_gradient(sys, u)
            res = p.energy_balance_residual(sys, traj, u)
            assert np.abs(res).max() <= 1e-10

    def test_euler_residual_is_second_order_per_step(self, oscillator):
        residual_max = {}
        for steps in (500, 1000):
            grid = p.TimeGrid(1.0, steps)
            u = p.generate_input(grid, 1, p.NoiseSpec(std=0.0, seed=0))
            traj = p.simulate_euler(oscillator, u)
            residual_max[steps] = np.abs(
                p.energy_balance_residual(oscillator, traj, u)).max()
        assert residual_max[1000] > 1e-10  # genuinely nonzero
        assert residual_max[1000] < 0.5 * residual_max[500]  # ~O(h^2): expect ~1/4

    def test_conservative_case_exact(self):
        rng = philox(24)
        grid = p.TimeGrid(1.0, 800)
        sys = p.ReducedPHSystem(
            random_skew(rng, 4), p.PSDMatrix.zeros(4),
            np.zeros((4, 1)), rng.normal(size=4))
        u = p.Signal.zeros(grid, 1)
        traj = p.simulate_discrete_gradient(sys, u)
        energy = p.hamiltonian(traj)
        assert abs(energy[-1] - energy[0]) <= 1e-10

    def test_grid_mismatch_rejected(self, oscillator):
        grid = p.TimeGrid(1.0, 10)
        other = p.TimeGrid(1.0, 11)
        u = p.Signal.zeros(grid, 1)
        traj = p.simulate_discrete_gradient(oscillator, u)
        with pytest.raises(p.DimensionMismatchError):
            p.energy_balance_residual(oscillator, traj, p.Signal.zeros(other, 1))
