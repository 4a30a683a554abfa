import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import phsid._blas as blas

_SRC = Path(__file__).resolve().parents[1] / "src"

# two calibrate steps of a random n = 32, k = 2 truth at K = 1000, printed as
# the |g|^2 of each step in hex and a digest of the final R
_GRADIENT_RUN = """
import hashlib
import numpy as np
import phsid as p
rng = np.random.Generator(np.random.Philox(key=32))
n = 32
j = p.SkewSymmetricMatrix.from_strict_lower(0.3 * rng.normal(size=(n, n)))
factor = np.tril(rng.normal(size=(n, n))) / np.sqrt(n)
r = p.PSDMatrix.from_matrix(factor @ factor.T)
truth = p.ReducedPHSystem(j, r, rng.normal(size=(n, 2)) / np.sqrt(n), rng.normal(size=n))
u, y = p.generate_reference(truth, p.TimeGrid(1.0, 1000), p.NoiseSpec(seed=3))
start = p.ParameterPoint(j, p.PSDMatrix.from_matrix(1.1 * r.array), 0.9 * truth.w_hat)
res = p.calibrate(start, u, y, truth.B, p.CalibrationConfig(max_iter=2))
print([g.hex() for g in res.gradient_sq_norms], hashlib.sha256(res.v_opt.R.array).hexdigest())
"""


def gradient_run(threads):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(_SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", _GRADIENT_RUN], env=env, check=True,
                          capture_output=True, text=True).stdout


bundled_openblas = pytest.mark.skipif(blas._get is None,
                                      reason="numpy's BLAS is not its bundled OpenBLAS")


@bundled_openblas
def test_n32_gradient_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits the gradient's K-long gemm sum between its threads; at
    # n = 32 the default thread count gives other bits than one thread
    # unless calibrate runs on one
    assert gradient_run(None) == gradient_run("1")


@bundled_openblas
def test_guard_restores_the_thread_count():
    before = blas._get()
    with pytest.raises(ZeroDivisionError):
        with blas.single_blas_thread():
            assert blas._get() == 1
            with blas.single_blas_thread():
                assert blas._get() == 1
            assert blas._get() == 1
            1 / 0
    assert blas._get() == before


@bundled_openblas
def test_guard_holds_one_thread_until_the_last_of_two_threads_leaves():
    # thread a enters, b enters, a leaves while b still runs, then b leaves
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with blas.single_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with blas.single_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen.append(blas._get())

    before = blas._get()
    blas._set(2)
    try:
        threads = [threading.Thread(target=f) for f in (a, b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [1]
        assert blas._get() == 2
    finally:
        blas._set(before)


@bundled_openblas
def test_guard_keeps_its_count_under_many_threads():
    # more threads than cores enter and leave the guard with a short switch
    # interval; a lost update to the depth would leave the count at 1 or
    # restore it while a block still runs
    inside = []

    def enter_and_leave():
        for _ in range(2000):
            with blas.single_blas_thread():
                inside.append(blas._get())

    before, interval = blas._get(), sys.getswitchinterval()
    blas._set(2)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(2 * os.cpu_count() + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert set(inside) == {1} and len(inside) == 2000 * len(threads)
        assert blas._depth == 0 and blas._get() == 2
    finally:
        sys.setswitchinterval(interval)
        blas._set(before)


def test_guard_without_the_thread_calls_does_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_get", None)
    monkeypatch.setattr(blas, "_set", None)
    with blas.single_blas_thread():
        assert np.dot(np.ones(3), np.ones(3)) == 3.0
