"""Fixed-input micro cases for single layers, timed with tracing off.

Each case reports the median over a few repeats.  The inputs are the two
reference laws (LAW_A = finite [0.45, 0, 0.45], LAW_B = lf q=0.1 r=0.4
p=0.5), scalars and 1e4-point arrays, ``NamedFamily.law`` and
``compose_coeffs`` on LAW_B at horizon 50.
"""
from __future__ import annotations

import statistics
import time

import numpy as np


def _median_s(fn, number: int, repeat: int) -> float:
    """Median over ``repeat`` runs of the time of one call, in seconds."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t) / number)
    return statistics.median(times)


def micro_cases() -> dict[str, float]:
    from defbranch import (
        Constant,
        FiniteSupport,
        LinearFractional,
        NamedFamily,
        compose_coeffs,
        monte_carlo,
    )

    fs = FiniteSupport([0.45, 0.0, 0.45])
    lf = LinearFractional(0.1, 0.4, 0.5)
    xs = np.linspace(0.0, 1.0, 10_000)
    ys = xs[::-1].copy()
    out: dict[str, float] = {}
    for tag, law in (("fs", fs), ("lf", lf)):
        out[f"laws.{tag}_pgf_scalar_us"] = _median_s(lambda: law.pgf(0.3), 5000, 5) * 1e6
        out[f"laws.{tag}_dd_scalar_us"] = (
            _median_s(lambda: law.divided_difference(0.7, 0.2), 5000, 5) * 1e6
        )
        out[f"laws.{tag}_pgf_array_ns_per_pt"] = (
            _median_s(lambda: law.pgf(xs), 200, 5) / xs.size * 1e9
        )
        out[f"laws.{tag}_dd_array_ns_per_pt"] = (
            _median_s(lambda: law.divided_difference(xs, ys), 200, 5) / xs.size * 1e9
        )

    named = NamedFamily("example-2a")
    gens = iter(range(1, 10**9))
    out["environments.named_law_us"] = _median_s(lambda: named.law(next(gens)), 5000, 5) * 1e6

    env_b = Constant(lf)
    out["environments.compose_coeffs_d256_s"] = _median_s(
        lambda: compose_coeffs(env_b, 50, 256), 1, 5
    )
    out["environments.compose_coeffs_d1024_s"] = _median_s(
        lambda: compose_coeffs(env_b, 50, 1024), 1, 3
    )

    env_a = Constant(fs)
    walls = {1: [], 2: []}
    for _ in range(3):
        for w in (1, 2):
            t = time.perf_counter()
            monte_carlo(env_a, 20, 10**6, 7, workers=w)
            walls[w].append(time.perf_counter() - t)
    out["simulate.speedup_2w"] = statistics.median(walls[1]) / statistics.median(walls[2])
    return out
