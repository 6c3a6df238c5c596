"""Shared fixtures and independent oracles.

The oracles here recompute quantities by routes deliberately different
from the package internals: term-by-term pgf sums, dictionary dynamic
programming over population sizes, grid-plus-bisection fixed points,
and Moebius fits for composed linear-fractional laws.
"""
from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from defbranch import (
    Constant,
    Environment,
    FiniteSupport,
    LinearFractional,
    NamedFamily,
    OffspringLaw,
    Prefix,
)

# HYPOTHESIS_PROFILE=ci runs more examples of every property test that
# does not fix its own count, such as the config checker's differential test
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

LAW_A = FiniteSupport([0.45, 0.0, 0.45])
LAW_B = LinearFractional(0.1, 0.4, 0.5)


class Alternating(Environment):
    """Two laws taking turns, odd generations first."""

    def __init__(self, odd: OffspringLaw, even: OffspringLaw):
        self.odd = odd
        self.even = even

    def law(self, n: int) -> OffspringLaw:
        if n < 1:
            raise ValueError("generation index starts at 1")
        return self.odd if n % 2 else self.even


class BinarySplitter(Environment):
    """Proper supercritical family: each individual has one or two
    children, two with probability (1 - 2^-n n^-2) / 2."""

    def law(self, n: int) -> FiniteSupport:
        if n < 1:
            raise ValueError("generation index starts at 1")
        c = 1.0 - 0.5**n / n**2
        return FiniteSupport([0.0, 1.0 - c / 2.0, c / 2.0])


@pytest.fixture(scope="session")
def law_a() -> FiniteSupport:
    return LAW_A


@pytest.fixture(scope="session")
def law_b() -> LinearFractional:
    return LAW_B


@pytest.fixture(scope="session")
def env_a() -> Constant:
    return Constant(LAW_A)


@pytest.fixture(scope="session")
def env_b() -> Constant:
    return Constant(LAW_B)


@pytest.fixture(scope="session")
def alt_env() -> Alternating:
    return Alternating(LAW_A, LAW_B)


@pytest.fixture(scope="session")
def env_1a() -> NamedFamily:
    return NamedFamily("example-1a")


@pytest.fixture(scope="session")
def env_1b() -> NamedFamily:
    return NamedFamily("example-1b")


@pytest.fixture(scope="session")
def env_2a() -> NamedFamily:
    return NamedFamily("example-2a")


@pytest.fixture(scope="session")
def env_2b() -> NamedFamily:
    return NamedFamily("example-2b")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def law_weights(law: OffspringLaw, floor: float = 1e-18) -> dict[int, float]:
    """Weight table straight from the law's defining data."""
    if isinstance(law, FiniteSupport):
        return {k: float(w) for k, w in enumerate(law.weights) if w > 0.0}
    out = {0: law.q + law.r}
    k = 1
    while True:
        w = law.r * law.p**k
        if w < floor:
            break
        out[k] = w
        k += 1
    return out


def brute_pgf(law: OffspringLaw, s: float, order: int = 0) -> float:
    """Term-by-term (falling-factorial weighted) power sum."""
    total = 0.0
    for k, w in sorted(law_weights(law).items()):
        ff = 1.0
        for j in range(order):
            ff *= k - j
        if ff == 0.0:
            continue
        total += w * ff * s ** (k - order)
    return total


def brute_compose(env: Environment, k: int, n: int, s: float) -> float:
    for i in range(n, k, -1):
        s = brute_pgf(env.law(i), s)
    return s


def plain_compose_eval(env: Environment, k: int, n: int, s, order: int = 0):
    """f_{k,n}(s) or its first or second derivative by the plain loop: one
    law lookup and the chain rule at every generation, innermost first,
    with no split at a repeated tail."""
    scalar = np.ndim(s) == 0
    if scalar:
        v, d1, d2 = float(s), 1.0, 0.0
    else:
        v = np.asarray(s, dtype=float).copy()
        d1 = np.ones_like(v)
        d2 = np.zeros_like(v)
    with np.errstate(over="ignore"):
        for i in range(n, k, -1):
            law = env.law(i)
            if order >= 1:
                fp = law.pgf(v, 1)
                if order == 2:
                    d2 = law.pgf(v, 2) * d1 * d1 + fp * d2
                d1 = fp * d1
            v = law.pgf(v)
    out = (v, d1, d2)[order]
    return float(out) if scalar else out


def brute_dist(env: Environment, n: int) -> tuple[dict[int, float], float]:
    """Exact law of the population at n by dictionary convolution.

    Returns (alive-or-zero value distribution, graveyard probability).
    """
    dist = {1: 1.0}
    p_kill = 0.0
    for g in range(1, n + 1):
        w = law_weights(env.law(g))
        pows: dict[int, dict[int, float]] = {0: {0: 1.0}}

        def power(z: int) -> dict[int, float]:
            if z not in pows:
                prev = power(z - 1)
                cur: dict[int, float] = {}
                for a, pa in prev.items():
                    for c, wc in w.items():
                        cur[a + c] = cur.get(a + c, 0.0) + pa * wc
                pows[z] = cur
            return pows[z]

        new: dict[int, float] = {}
        for z, pr in dist.items():
            if z == 0:
                new[0] = new.get(0, 0.0) + pr
                continue
            conv = power(z)
            p_kill += pr * (1.0 - sum(conv.values()))
            for v, pv in conv.items():
                new[v] = new.get(v, 0.0) + pr * pv
        dist = new
    return dist, p_kill


def oracle_fixed_point(
    law: OffspringLaw, grid: int = 2001, iters: int = 80
) -> float | None:
    """Smallest fixed point in (0,1) by sign scan plus bisection.

    The pgf minus the identity is convex, so its negative set is a
    single interval; when the law is defective the value at 1 is
    negative and the scan cannot miss the first crossing.
    """
    w = law_weights(law)
    if w.get(0, 0.0) <= 0.0:
        return None
    ks = np.array(sorted(w), dtype=np.float64)
    cs = np.array([w[int(k)] for k in ks])
    xs = np.linspace(0.0, 1.0, grid)
    g = (cs[None, :] * xs[:, None] ** ks[None, :]).sum(axis=1) - xs
    down = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    if down.size == 0:
        return None
    lo, hi = float(xs[down[0]]), float(xs[down[0] + 1])

    def gs(s: float) -> float:
        return sum(c * s**k for k, c in w.items()) - s

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gs(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return root if root < 1.0 - 1e-9 else None


def fit_lf(f0: float, fh: float, f1: float) -> tuple[float, float, float]:
    """Recover (q, r, p) of s -> q + r/(1 - p s) from values at 0, 1/2, 1."""
    ratio = (f1 - f0) / (fh - f0)
    p = (ratio - 2.0) / (ratio - 1.0)
    r = (f1 - f0) * (1.0 - p) / p
    q = f0 - r
    return q, r, p


# ---------------------------------------------------------------------------
# random generators for property sweeps
# ---------------------------------------------------------------------------


def rand_finite(rng: np.random.Generator, max_support: int = 4) -> FiniteSupport:
    size = int(rng.integers(2, max_support + 2))
    w = rng.random(size) + 1e-3
    w = w / w.sum() * rng.uniform(0.55, 1.0)
    return FiniteSupport(w)


def rand_binary(rng: np.random.Generator) -> FiniteSupport:
    w = rng.random(3) + 1e-3
    w = w / w.sum() * rng.uniform(0.55, 1.0)
    return FiniteSupport(w)


def rand_lf(rng: np.random.Generator) -> LinearFractional:
    p = rng.uniform(0.05, 0.85)
    mass = rng.uniform(0.6, 1.0)
    r = rng.uniform(0.05, 0.95) * mass * (1.0 - p)
    return LinearFractional(mass - r / (1.0 - p), r, p)


def rand_env(rng: np.random.Generator, allow_lf: bool = True) -> Environment:
    def one() -> OffspringLaw:
        if allow_lf and rng.random() < 0.4:
            return rand_lf(rng)
        return rand_finite(rng)

    if rng.random() < 0.5:
        return Constant(one())
    k = int(rng.integers(1, 4))
    return Prefix(tuple(one() for _ in range(k)), one())
