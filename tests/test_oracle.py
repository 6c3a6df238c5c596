"""Exact results against 50-digit mpmath recomputations.

Deep horizons: constant, named and prefix environments are covered.
At n = 10^4 survival and the mean are far below the float range, so the
program's log fields are the only carriers of the values.  The oracle
composes the same float laws in 50-digit arithmetic, multiplying the
gap by exact divided differences and the mean by exact derivatives, and
takes logs once at the end.  The tolerance is the naive-summation bound
for a sum of n logs, max(1e-12, n * 2^-53) relative.

Smallest fixed points of single random laws are checked against their
40-digit roots.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import pytest

from conftest import LAW_A, LAW_B, mp_criteria, rand_binary, rand_finite, rand_lf
from defbranch import (
    Constant,
    FiniteSupport,
    LinearFractional,
    NamedFamily,
    Prefix,
    absorption_profile,
    compose_coeffs,
    conditioned_mean_bound,
    criteria_verdicts,
    growth_rate,
    moments,
    survival_bounds,
)

N = 10_000
TOL = max(1e-12, N * 2.0**-53)


def _mp_law(law):
    """f, f', f'' and the divided difference of a float law, in mpmath."""
    if isinstance(law, FiniteSupport):
        w = [mpmath.mpf(float(x)) for x in law.weights]

        def horner(c, s):
            out = mpmath.mpf(0)
            for ck in reversed(c):
                out = out * s + ck
            return out

        d1 = [k * w[k] for k in range(1, len(w))]
        d2 = [k * (k - 1) * w[k] for k in range(2, len(w))]

        def dd(a, b):
            # sum_k w_k (a^k - b^k)/(a - b), with h_k = a^(k-1) + b h_(k-1)
            out, h, apow = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
            for k in range(1, len(w)):
                h = apow + b * h
                apow *= a
                out += w[k] * h
            return out

        return (lambda s: horner(w, s), lambda s: horner(d1, s),
                lambda s: horner(d2, s), dd)
    q, r, p = (mpmath.mpf(float(x)) for x in (law.q, law.r, law.p))
    return (
        lambda s: q + r / (1 - p * s),
        lambda s: r * p / (1 - p * s) ** 2,
        lambda s: 2 * r * p**2 / (1 - p * s) ** 3,
        lambda a, b: r * p / ((1 - p * a) * (1 - p * b)),
    )


def _oracle(env, n):
    """(log survival, log mean, second-moment ratio) of env at n.

    Composes the float laws env.law(i) as they are: for a named family
    that is the rounded weight c_n (1 - 1/(n^2 2^n) is exactly 1 from
    n of about 45 on), not the exact family."""
    with mpmath.workdps(50):
        fns, conv = [None], {}  # fns[i]: law i in mpmath, one per distinct law
        for i in range(1, n + 1):
            law = env.law(i)
            if id(law) not in conv:
                conv[id(law)] = (law, _mp_law(law))
            fns.append(conv[id(law)][1])
        hi, lo = mpmath.mpf(1), mpmath.mpf(0)
        t = [hi]  # t[i] = f_{n-i,n}(1)
        surv = mpmath.mpf(1)
        for i in range(n, 0, -1):
            f, _, _, dd = fns[i]
            surv *= dd(hi, lo)
            hi, lo = f(hi), f(lo)
            t.append(hi)
        t.reverse()  # t[j] = f_{j,n}(1)
        mean, var = mpmath.mpf(1), mpmath.mpf(0)
        for j in range(1, n + 1):
            _, f1, f2, _ = fns[j]
            d1 = f1(t[j])
            mean *= d1
            var += f2(t[j]) / (d1 * mean)
        return mpmath.log(surv), mpmath.log(mean), 1 / mean + var


ENVS = {
    "law_a": Constant(LAW_A),
    "law_b": Constant(LAW_B),
    "example_2b": NamedFamily("example-2b"),
    "prefix": Prefix(
        (FiniteSupport([0.2, 0.3, 0.0, 0.4]), FiniteSupport([0.1, 0.0, 0.8]),
         FiniteSupport([0.3, 0.0, 0.0, 0.0, 0.65])),
        LAW_B,
    ),
}


@functools.cache
def _oracle_of(name):
    return _oracle(ENVS[name], N)


def close(got, want):
    assert got == pytest.approx(float(want), rel=TOL, abs=0.0)


# Under binary splitting f_{j-1,n}(1) = c_j f_{j,n}(1)^2 doubles the
# relative rounding error of the point per generation: at n = 10^4 the
# float f_{0,n}(1) of example-2b is 9.7e-11 off in relative terms, and so
# are log survival (-1.0088) and the second-moment ratio (2.742), which
# both rest on it.  The mean is checked on its own below.
_POINT_ERROR = pytest.mark.xfail(
    strict=True, reason="f_{j,n}(1) loses a factor 2 of relative accuracy per generation"
)


@pytest.mark.parametrize(
    "name", ["law_a", "law_b", pytest.param("example_2b", marks=_POINT_ERROR), "prefix"]
)
def test_deep_horizon_against_mpmath(name):
    env = ENVS[name]
    log_surv, log_mean, ratio = _oracle_of(name)
    close(absorption_profile(env, N).log_survival, log_surv)
    m = moments(env, N)
    close(m.log_mean, log_mean)
    close(m.log_ratio, mpmath.log(ratio))
    sb = survival_bounds(env, N)
    # inv_hi is the second-moment ratio; where it leaves the float range
    # its log is checked through log_moment_lower = -log(inv_hi)
    if float(ratio) == math.inf:
        assert sb.inv_hi == math.inf
    close(sb.log_moment_lower, -mpmath.log(ratio))
    close(sb.log_survival, log_surv)
    g = growth_rate(env, N)
    close(g.mean_rate, log_mean / N)
    close(g.survival_rate, log_surv / N)


def test_named_family_mean_against_mpmath():
    env = ENVS["example_2b"]
    _, log_mean, _ = _oracle_of("example_2b")
    close(moments(env, N).log_mean, log_mean)
    close(growth_rate(env, N).mean_rate, log_mean / N)


def test_defect_series_of_example_2a_against_mpmath():
    # sum_{i<=h} d_i mu_{i-1}, d_i = 2^-i / i and mu_i = prod_{j<=i} 2 (1 - d_j),
    # run in 30-digit mpmath with d_i formed there (conftest.mp_criteria);
    # past i = 1074 the float d_i underflows, so the check terms are
    # formed from log d_i = -i ln 2 - ln i
    env = NamedFamily("example-2a")
    hs = (100, 1000, 10_000, 100_000)
    got = {v.criterion: v for v in criteria_verdicts(env, hs)}["defect_mean_series"]
    want = mp_criteria(env, hs)["defect_mean_series"]
    assert [round(float(w), 11) for w in want[2:]] == [2.32367560516, 2.79368616410]
    for h, p, w in zip(hs, got.partials, want):
        assert abs(p - w) <= max(1e-12, h * 2.0**-53) * w


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30, 60, 100])
@pytest.mark.parametrize("name", ["law_a", "law_b"])
def test_conditioned_mean_against_mpmath(name, n):
    # E[Z_n | Z_n > 0] = E[Z_n] / P[Z_n > 0]
    log_surv, log_mean, _ = _oracle(ENVS[name], n)
    want = mpmath.exp(log_mean - log_surv)
    assert conditioned_mean_bound(ENVS[name], n).exact == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("n, want", [
    (1, 2000.0000000002203), (3, 17983.076589124142), (10, 17983.111660337689),
])
def test_conditioned_mean_of_a_heavy_tail(n, want):
    # f_{0,n} of a linear-fractional law is linear-fractional, with
    # P[Z_n = k] proportional to P^k for k >= 1, so the conditioned mean
    # is 1/(1 - P); P is read off the 50-digit product of Moebius matrices.
    # Survivors hold thousands: no short run of coefficients carries the mean.
    env = Constant(LinearFractional(0.1, 0.0004, 0.9995))
    assert conditioned_mean_bound(env, n).exact == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# population distributions: compose_coeffs against a Moebius product
# ---------------------------------------------------------------------------


def _mp_poly_mul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mp_poly_add(a, b):
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _mp_dist(env, n, degree):
    """P[Z_n = k], k = 0..degree, from f_{0,n} = N/D in 50 digits.

    Innermost first, the polynomials (N, D) start at (s, 1).  A
    linear-fractional law acts on them by its Moebius matrix
    [[-pq, q + r], [-p, 1]], a finite law w by N/D -> sum_k w_k N^k
    D^(m-k) / D^m.  The coefficients of N/D then follow from D y = N."""
    with mpmath.workdps(50):
        num, den = [mpmath.mpf(0), mpmath.mpf(1)], [mpmath.mpf(1)]
        for i in range(n, 0, -1):
            law = env.law(i)
            if isinstance(law, LinearFractional):
                q, r, p = (mpmath.mpf(float(x)) for x in (law.q, law.r, law.p))
                num, den = (_mp_poly_add([-p * q * x for x in num], [(q + r) * x for x in den]),
                            _mp_poly_add([-p * x for x in num], den))
            else:
                w = [mpmath.mpf(float(x)) for x in law.weights]
                pn, pd = [[mpmath.mpf(1)]], [[mpmath.mpf(1)]]
                for _ in range(len(w) - 1):
                    pn.append(_mp_poly_mul(pn[-1], num))
                    pd.append(_mp_poly_mul(pd[-1], den))
                new = [mpmath.mpf(0)]
                for k, wk in enumerate(w):
                    new = _mp_poly_add(new, [wk * x for x in _mp_poly_mul(pn[k], pd[-1 - k])])
                num, den = new, pd[-1]
        y = []
        for k in range(degree + 1):
            acc = num[k] if k < len(num) else mpmath.mpf(0)
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * y[k - i]
            y.append(acc / den[0])
        return y


_FIN = (FiniteSupport([0.2, 0.3, 0.45]), FiniteSupport([0.1, 0.4, 0.5]),
        FiniteSupport([0.3, 0.2, 0.5]), FiniteSupport([0.15, 0.35, 0.3, 0.15]))
_LF = (LAW_B, LinearFractional(0.05, 0.3, 0.6), LinearFractional(0.2, 0.2, 0.7))
DIST_WINDOWS = {
    # one run of 50 linear-fractional generations: geometric coefficients
    "constant_lf": (Constant(LAW_B), 50),
    # finite laws over an innermost run of 28
    "finite_over_run": (Prefix((_FIN[0], _FIN[3]), LAW_B), 30),
    # runs above finite laws: power-series divisions
    "runs_over_finite": (Prefix((_LF[0], _LF[1], _FIN[0], _LF[2], _LF[0], _FIN[1], _FIN[2]),
                                _FIN[3]), 9),
}


@pytest.mark.parametrize("name", DIST_WINDOWS)
def test_dist_against_moebius_product(name):
    env, n = DIST_WINDOWS[name]
    dv = compose_coeffs(env, n, 1000)
    want = _mp_dist(env, n, 1000)
    assert dv.dropped == 0.0
    for k, (got, w) in enumerate(zip(dv.probs, want)):
        assert abs(got - w) <= 1e-12 * w, (k, got, float(w))


# ---------------------------------------------------------------------------
# smallest fixed points against 40-digit roots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make, seed", [(rand_binary, 1), (rand_lf, 2), (rand_finite, 3)],
                         ids=["binary", "lf", "finite"])
def test_fixed_point_against_mpmath(make, seed):
    # every random law is defective with f[0] > 0, so f(s) - s changes sign
    # exactly once on [0, 1], and a bracketing solver finds that root
    rng = np.random.default_rng(seed)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(1000):
            law = make(rng)
            f = _mp_law(law)[0]
            want = mpmath.findroot(lambda s: f(s) - s, (mpmath.mpf(0), mpmath.mpf(1)),
                                   solver="anderson")
            worst = max(worst, float(abs(law.fixed_point() - want) / want))
    assert worst <= 1e-14
