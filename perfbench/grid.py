"""Single layer calls timed over n in {2, 4, 8, 16} and K in {1e3, 1e4}.

The forward gradient integrates n^2 + n sensitivity sweeps and its tangent
basis holds n^2 + n dense n x n pairs, so these figures show how each layer
grows with n before any optimisation changes that.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import phsid

from tracing import basis_bytes
from workloads import grid, random_model, sub_seed

DIMENSIONS = (2, 4, 8, 16)
HORIZONS = (1000, 10_000)
PORTS = 2


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_grid(seed: int) -> dict:
    out = {}
    for n in DIMENSIONS:
        truth, start = random_model(sub_seed(seed, 7, n), n, PORTS)
        sys0 = start.to_system(truth.B)
        basis = phsid.tangent_basis(n)
        for steps in HORIZONS:
            u, y = phsid.generate_reference(truth, grid(steps),
                                            phsid.NoiseSpec(seed=sub_seed(seed, 8, n, steps)))
            key = f"grid.n{n}.K{steps}"
            out[f"{key}.simulate_euler_s"] = (
                _median_s(lambda: phsid.simulate_euler(sys0, u), 3), "s")
            out[f"{key}.cost_s"] = (_median_s(lambda: phsid.cost(sys0, u, y), 3), "s")
            traj = phsid.simulate_euler(sys0, u)
            t0 = time.perf_counter()
            coeffs = phsid.sensitivity_coefficients(sys0, traj, y, basis)
            phsid.assemble_gradient(coeffs, basis)
            out[f"{key}.gradient_s"] = (time.perf_counter() - t0, "s")
        out[f"grid.n{n}.assemble_gradient_s"] = (
            _median_s(lambda: phsid.assemble_gradient(coeffs, basis), 5), "s")
        out[f"grid.n{n}.tangent_basis_s"] = (_median_s(lambda: phsid.tangent_basis(n), 5), "s")
        out[f"grid.n{n}.tangent_basis.computed_bytes"] = (basis_bytes(basis), "B")
        rng = np.random.Generator(np.random.Philox(key=sub_seed(seed, 9, n)))
        indefinite = phsid.SymmetricMatrix.from_lower(rng.normal(size=(n, n)))
        out[f"grid.n{n}.project_psd_s"] = (_median_s(lambda: phsid.project_psd(indefinite), 5), "s")
    return out
