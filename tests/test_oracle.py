"""Deep-horizon exact results against a 50-digit mpmath recomputation.

At n = 10^4 survival and the mean are far below the float range, so the
program's log fields are the only carriers of the values.  The oracle
composes the same float laws in 50-digit arithmetic, multiplying the
gap by exact divided differences and the mean by exact derivatives, and
takes logs once at the end.  The tolerance is the naive-summation bound
for a sum of n logs, max(1e-12, n * 2^-53) relative.
"""
from __future__ import annotations

import math

import mpmath
import pytest

from conftest import LAW_A, LAW_B
from defbranch import (
    Constant,
    FiniteSupport,
    absorption_profile,
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


def _oracle(law, n):
    """(log survival, log mean, second-moment ratio) of Constant(law) at n."""
    with mpmath.workdps(50):
        f, f1, f2, dd = _mp_law(law)
        hi, lo = mpmath.mpf(1), mpmath.mpf(0)
        t = [hi]  # t[i] = f_{n-i,n}(1)
        surv = mpmath.mpf(1)
        for _ in range(n):
            surv *= dd(hi, lo)
            hi, lo = f(hi), f(lo)
            t.append(hi)
        t.reverse()  # t[j] = f_{j,n}(1)
        mean, var = mpmath.mpf(1), mpmath.mpf(0)
        for j in range(1, n + 1):
            d1 = f1(t[j])
            mean *= d1
            var += f2(t[j]) / (d1 * mean)
        return mpmath.log(surv), mpmath.log(mean), 1 / mean + var


@pytest.mark.parametrize("law", [LAW_A, LAW_B], ids=["law_a", "law_b"])
def test_deep_horizon_against_mpmath(law):
    log_surv, log_mean, ratio = _oracle(law, N)
    env = Constant(law)

    def close(got, want):
        assert got == pytest.approx(float(want), rel=TOL, abs=0.0)

    close(absorption_profile(env, N).log_survival, log_surv)
    m = moments(env, N)
    close(m.log_mean, log_mean)
    close(m.log_ratio, mpmath.log(ratio))
    sb = survival_bounds(env, N)
    # inv_hi is the second-moment ratio; it leaves the float range here,
    # so its log is checked through log_moment_lower = -log(inv_hi)
    assert sb.inv_hi == float(ratio) == math.inf
    close(sb.log_moment_lower, -mpmath.log(ratio))
    close(sb.log_survival, log_surv)
    g = growth_rate(env, N)
    close(g.mean_rate, log_mean / N)
    close(g.survival_rate, log_surv / N)
