"""Exact analysis of population processes under killing environments.

Everything here is deterministic: absorption probabilities through pgf
composition, first/second moments through derivative ladders, two-sided
survival bounds, convergence verdicts for the criterion series that
decide long-run behaviour, growth rates, late-extinction bounds and
conditioned-mean bounds.

Survival probabilities are differences f_{0,n}(1) - f_{0,n}(0) of two
numbers that converge to each other; they are never formed by
subtraction.  Each composition step multiplies the gap by the divided
difference of the step law, so log-survival is accumulated exactly as a
sum of logs and stays accurate at depths where the linear difference is
pure cancellation.

Readers here make one generation pass (``environments._sweep``) per
horizon and starting point, and never re-sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environments import (
    Environment,
    _exp,
    _log,
    _logsumexp,
    _mu_at,
    _running,
    _sweep,
    _whole,
    compose_eval,
    composed_points,
)
from .laws import BudgetError, PreconditionError

__all__ = [
    "AbsorptionProfile",
    "absorption_profile",
    "AbsorptionScan",
    "absorption_scan",
    "Moments",
    "moments",
    "SurvivalBounds",
    "survival_bounds",
    "ConditionVerdict",
    "criteria_verdicts",
    "CRITERIA", "CONVERGES", "DIVERGES", "INCONCLUSIVE",
    "FixedPointBracket",
    "fixed_point_bracket",
    "EnvelopeRatios",
    "envelope_ratios",
    "GrowthRates",
    "growth_rate",
    "LateExtinctionBounds",
    "late_extinction_bounds",
    "CondMeanBound",
    "conditioned_mean_bound",
]


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorptionProfile:
    """Exact absorption state at one horizon.

    p_extinct = P[hit 0 by n], p_killed = P[graveyard by n], p_absorbed
    is their sum, survival = P[still alive at n] with log_survival the
    cancellation-free log value.
    """

    n: int
    p_extinct: float
    p_killed: float
    survival: float
    log_survival: float

    @property
    def p_absorbed(self) -> float:
        return self.p_extinct + self.p_killed


def absorption_profile(env: Environment, n: int) -> AbsorptionProfile:
    """Absorption probabilities at horizon n by exact composition."""
    n = _whole(n, "n")
    sw = _sweep(env, 0, n, 1.0, 0.0)
    return AbsorptionProfile(
        n=n,
        p_extinct=float(sw.lo_points[0]),
        p_killed=1.0 - float(sw.points[0]),
        survival=_exp(sw.log_gap),
        log_survival=sw.log_gap,
    )


@dataclass(frozen=True)
class AbsorptionScan:
    """Absorption profiles for every horizon 0..n in one sweep."""

    n: int
    p_extinct: np.ndarray
    p_killed: np.ndarray
    survival: np.ndarray
    log_survival: np.ndarray

    def profile(self, n: int) -> AbsorptionProfile:
        """The horizon-n profile, for 0 <= n <= the scan's horizon."""
        n = _whole(n, "n")
        if n > self.n:
            raise PreconditionError(f"horizon {n} outside the scan's 0..{self.n}")
        return AbsorptionProfile(
            n=n,
            p_extinct=float(self.p_extinct[n]),
            p_killed=float(self.p_killed[n]),
            survival=float(self.survival[n]),
            log_survival=float(self.log_survival[n]),
        )


def absorption_scan(env: Environment, n: int) -> AbsorptionScan:
    """All horizons at once.

    One backward pass over the laws updates the whole vector of pending
    horizons: one law evaluation per (law, horizon) pair, O(n^2) in all.
    It splits as ``_sweep`` does: from the generation T on which the
    environment repeats one law (``Environment._fixed_from``), f_{i,m} =
    f^(m-i) for T <= i <= m, so that tail is the orbits of 1 and 0 under
    f, the points and lo points of one ``_sweep`` on the window T-1..n,
    then one array call each of ``divided_difference`` and ``np.log``,
    and a ``cumsum``;
    the head generations T-1..1 run the pass.  O(n) for ``Constant``,
    O(n len(laws)) for ``Prefix``.  The terms are added in the order the
    full pass adds them: the same results to the bit.
    """
    n = _whole(n, "n")
    hi = np.ones(n + 1)
    lo = np.zeros(n + 1)
    logd = np.zeros(n + 1)
    top = min(env._fixed_from() or n + 1, n + 1)
    with np.errstate(divide="ignore"):
        if top <= n:
            sw = _sweep(env, top - 1, n, 1.0, 0.0)
            hi[top - 1:] = sw.points[::-1]
            lo[top - 1:] = sw.lo_points[::-1]
            law = env.law(top)
            logd[top:] = np.cumsum(np.log(law.divided_difference(hi[top - 1:-1], lo[top - 1:-1])))
        for i in range(top - 1, 0, -1):
            law = env.law(i)
            sl = slice(i, n + 1)
            logd[sl] += np.log(law.divided_difference(hi[sl], lo[sl]))
            hi[sl] = law.pgf(hi[sl])
            lo[sl] = law.pgf(lo[sl])
    return AbsorptionScan(
        n=n,
        p_extinct=lo,
        p_killed=1.0 - hi,
        survival=_exp(logd),
        log_survival=logd,
    )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """First two moments of the population at a horizon.

    mean = E[Z_n] (killed paths contribute zero), ratio =
    E[Z_n^2] / E[Z_n]^2, second = E[Z_n^2].  The log fields are the
    authoritative values when the linear ones under/overflow.
    """

    n: int
    mean: float
    log_mean: float
    ratio: float
    log_ratio: float
    second: float
    log_second: float


def moments(env: Environment, n: int) -> Moments:
    """Exact moments from the derivative ladder.

    The mean is the product of f_j'(f_{j,n}(1)); the second-moment ratio
    adds one variance-like term per generation:

        ratio = 1 / mean + sum_j f_j''(t_j) / (f_j'(t_j) mu_{j,n}),

    with t_j = f_{j,n}(1) and mu_{j,n} the partial mean products.
    """
    n = _whole(n, "n")
    sw = _sweep(env, 0, n, 1.0, ladder=True, second=True)
    log_mean = float(sw.log_ladder[-1])
    log_ratio = _logsumexp(np.concatenate(([-log_mean], sw.log_var)))
    return Moments(
        n=n,
        mean=_exp(log_mean),
        log_mean=log_mean,
        ratio=_exp(log_ratio),
        log_ratio=log_ratio,
        second=_exp(log_ratio + 2.0 * log_mean),
        log_second=log_ratio + 2.0 * log_mean,
    )


# ---------------------------------------------------------------------------
# survival bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalBounds:
    """Two-sided exact bounds on the survival probability at horizon n.

    moment_lower <= survival <= inf_mean_product, and the reciprocal
    bracket inv_lo <= 1/survival <= inv_hi, where inv_hi is exactly the
    second-moment ratio and inv_lo keeps 1/(2c) of its variance part.
    c_prime = max(1, 2 c_used) is a certified constant with
    survival <= c_prime * moment_lower; c_prime_empirical is the
    smallest constant that would do for this environment and horizon.
    """

    n: int
    survival: float
    log_survival: float
    inf_mean_product: float
    log_inf_mean_product: float
    moment_lower: float
    log_moment_lower: float
    inv_lo: float
    inv_hi: float
    c_used: float
    c_prime: float
    c_prime_empirical: float
    holds: bool


def survival_bounds(env: Environment, n: int, c: float | None = None) -> SurvivalBounds:
    """Sandwich the survival probability between moment quantities.

    Args:
        env: environment.
        n: horizon, n >= 1.
        c: tail-regularity constant; defaults to the largest
           per-generation c12 over generations 1..n.  Must be > 0 when
           any generation has variance terms (f'' > 0).
    """
    n = _whole(n, "n", 1)
    sw = _sweep(env, 0, n, 1.0, 0.0, ladder=True, second=True, at=(1.0,), regularity=c is None)
    log_surv, log_mean = sw.log_gap, float(sw.log_ladder[-1])
    log_inf_mu = float(np.min(_running(sw.at[0])[1:]))  # inf_j log prod f_i'(1)
    c_used = sw.c12 if c is None else float(c)
    log_s = _logsumexp(sw.log_var)  # variance part of the ratio
    log_inv_hi = _logsumexp(np.array([-log_mean, log_s]))
    if math.isinf(log_s) and log_s < 0:  # no variance terms at all
        log_inv_lo = -log_mean
    else:
        if not c_used > 0.0:
            raise PreconditionError(f"variance terms present but c = {c_used!r} is not > 0")
        log_inv_lo = _logsumexp(np.array([-log_mean, log_s - math.log(2.0 * c_used)]))
    slack = 1e-9
    holds = (
        -log_inv_hi <= log_surv + slack
        and log_surv <= log_inf_mu + slack
        and log_inv_lo <= -log_surv + slack
    )
    return SurvivalBounds(
        n=n,
        survival=_exp(log_surv),
        log_survival=log_surv,
        inf_mean_product=_exp(log_inf_mu),
        log_inf_mean_product=log_inf_mu,
        moment_lower=_exp(-log_inv_hi),
        log_moment_lower=-log_inv_hi,
        inv_lo=_exp(log_inv_lo),
        inv_hi=_exp(log_inv_hi),
        c_used=c_used,
        c_prime=max(1.0, 2.0 * c_used),
        c_prime_empirical=_exp(log_surv + log_inv_hi),
        holds=holds,
    )


# ---------------------------------------------------------------------------
# criterion series
# ---------------------------------------------------------------------------

# criterion ids, in reporting order
CRITERIA = (
    "one_child_gap",        # sum_n (1 - f_n[1]); finite <=> positive chance of freezing at a finite value
    "mean_product_infimum", # inf_n prod_{i<=n} f_i'(1) > 0
    "defect_mean_series",   # sum_n defect_n * mu_{n-1}
    "var_mean_series",      # sum_n f_n''(1) / (f_n'(1) mu_n)
    "tail_ratio_sup",       # sup_n c8_n finite
)

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one criterion check.

    partials holds the partial sums (series criteria) or the running
    infimum / supremum at each horizon.  For min/max criteria
    "converges" means the condition holds (infimum positive, supremum
    finite).  The verdict is decided by rule, never read off the
    partials: a named family's from its (m, rate, b), a repeated tail's
    from its tail law (``Environment.series_meta``).  analytic is True
    when such a rule decided it; an environment with neither reads
    "inconclusive" with analytic False.  The partials and slope, the
    fitted log-log decay rate of the terms over the top two horizon
    decades (None when not applicable), are evidence only.
    """

    criterion: str
    horizons: tuple[int, ...]
    partials: tuple[float, ...]
    slope: float | None
    verdict: str
    analytic: bool


def criteria_verdicts(
    env: Environment,
    horizons: Sequence[int] = (100, 1_000, 10_000, 100_000),
) -> list[ConditionVerdict]:
    """Evaluate the five criterion series/extremes out to max(horizons).

    Partial sums are exact: each term is read in log scale, from the
    environment's ``_criteria_terms``.  A named family (and a shift of
    one) forms them from its closed-form log d_n with array operations,
    so they stay exact past the generation where d_n underflows (n = 1074
    on example-2a).  Every other environment takes the ``_logs`` of its
    laws' own f[1], defect, f'(1), f''(1) and c8 (one C ``math.log`` per
    entry).

    The verdict is the environment's ``series_meta`` tag: a named family
    (and a shift of one) decides each series from its arity m and the
    decay rate^n n^-b of d_n, and an environment with a repeated tail law
    from that law's f[1], mean, defect and f''(1), since a finite head
    changes no series' convergence.  Without a tag the verdict reads
    "inconclusive", with ``analytic`` False; no finite horizon decides a
    series, so the partials and slope are reported as evidence only.
    Needs at least two distinct horizons, each a count >= 2 (3.0 counts
    as 3, see ``environments._whole``); a repeated horizon counts once, so
    ``horizons`` and ``partials`` pair up entry by entry.
    """
    hs = tuple(sorted({_whole(h, "horizons", 2) for h in horizons}))
    if len(hs) < 2:
        raise PreconditionError("need at least two distinct horizons")
    n_max = hs[-1]
    # term samples for the slope fit: log-spaced over the top two decades
    lo = max(2, int(n_max / 100))
    sample_at = np.unique(np.geomspace(lo, n_max, 61).astype(np.int64))
    at_h = np.array(hs) - 1  # generation i sits at index i - 1

    samples: dict[str, list[tuple[int, float]]] = {}
    partials: dict[str, list[float]] = {}

    def series(k: str, lg: np.ndarray) -> None:
        # terms stay in log scale so a diverging series cannot overflow
        # before its slope is read off; sums saturate at inf instead
        samples[k] = list(zip(sample_at.tolist(), lg[sample_at - 1].tolist()))
        with np.errstate(over="ignore"):
            partials[k] = np.cumsum(np.exp(lg, out=lg), out=lg)[at_h].tolist()

    # each log column is overwritten in place and dropped after its last use
    gap, log_mu, lg_defect, lg_var, c8 = env._criteria_terms(n_max)
    series("one_child_gap", gap)
    series("defect_mean_series", lg_defect)
    series("var_mean_series", lg_var)
    partials["mean_product_infimum"] = _exp(np.minimum.accumulate(log_mu, out=log_mu)[at_h]).tolist()
    del gap, log_mu, lg_defect, lg_var
    partials["tail_ratio_sup"] = np.maximum.accumulate(c8)[at_h].tolist()

    meta = env.series_meta
    return [
        ConditionVerdict(
            criterion=k,
            horizons=hs,
            partials=tuple(partials[k]),
            slope=_fit_slope(samples[k]) if k in samples else None,
            verdict=meta.get(k, INCONCLUSIVE),
            analytic=k in meta,
        )
        for k in CRITERIA
    ]


def _fit_slope(pairs: list[tuple[int, float]]) -> float | None:
    pts = [(math.log(i), lg) for i, lg in pairs if math.isfinite(lg)]
    if len(pts) < max(4, len(pairs) // 4):
        return None
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# fixed point brackets and rate envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointBracket:
    """Envelope [rho, sigma] of smallest pgf fixed points over a window.

    theta[j] is the fixed point of the law at generation n0 + j (nan
    when the law has none).  When every law has a fixed point, rho/sigma
    are their min/max; rho falls back to inf_n f_n(0) when that is
    positive.  ok is False when no valid bracket exists, with reason.
    """

    n0: int
    upto: int
    theta: np.ndarray
    rho: float | None
    sigma: float | None
    ok: bool
    reason: str | None


def fixed_point_bracket(env: Environment, n0: int = 1, upto: int = 64) -> FixedPointBracket:
    """The envelope [rho, sigma] of the laws' smallest fixed points in
    (0, 1) over generations n0..upto, with one fixed-point search per
    generation.  Requires 1 <= n0 <= upto.

    A bracket is ok only when every law has a fixed point and [rho,
    sigma] is invariant: f_i(rho) >= rho and f_i(sigma) <= sigma, each
    to 1e-12, for every i in the window.  Otherwise ok is False and
    reason says why (rho may still hold the fallback inf f_i(0))."""
    n0, upto = _whole(n0, "n0", 1), _whole(upto, "upto")
    if n0 > upto:
        raise PreconditionError(f"need n0 <= upto, got n0={n0}, upto={upto}")
    idx = range(n0, upto + 1)
    theta = np.array(
        [t if (t := env.law(i).fixed_point()) is not None else math.nan for i in idx]
    )
    have_all = not np.any(np.isnan(theta))
    rho = sigma = None
    reason = None
    if have_all:
        rho = float(np.min(theta))
        sigma = float(np.max(theta))
    else:
        f0 = min(env.law(i).pgf(0.0) for i in idx)
        if f0 > 0.0:
            rho = float(f0)
            reason = "some laws lack a fixed point; rho fell back to inf f_n(0), no sigma"
        else:
            reason = "no fixed points and inf f_n(0) = 0: no bracket in (0,1)"
    ok = rho is not None and sigma is not None
    if ok:
        # the bracket must actually be invariant from both sides
        for i in idx:
            law = env.law(i)
            if law.pgf(rho) < rho - 1e-12 or law.pgf(sigma) > sigma + 1e-12:
                ok = False
                reason = f"bracket not invariant under the law at generation {i}"
                break
    return FixedPointBracket(
        n0=n0, upto=upto, theta=theta, rho=rho, sigma=sigma, ok=ok, reason=reason
    )


@dataclass(frozen=True)
class EnvelopeRatios:
    """Survival and mean measured against fixed-point mean products.

    mean_over_mu_rho = E[Z_n] / mu_n(rho) stays bounded away from zero,
    and surv_nu_rho = nu_n(rho) P[alive at n] likewise, when the
    environment dominates rho; the sigma_eps fields (evaluated at
    sigma + eps) stay bounded above in the dominated case.  All four are
    exposed in log scale as well.
    """

    n: int
    rho: float
    sigma_eps: float
    mean_over_mu_rho: float
    log_mean_over_mu_rho: float
    surv_nu_rho: float
    log_surv_nu_rho: float
    mean_over_mu_sigma_eps: float
    log_mean_over_mu_sigma_eps: float
    surv_nu_sigma_eps: float
    log_surv_nu_sigma_eps: float


def envelope_ratios(
    env: Environment, rho: float, sigma: float, eps: float, n: int
) -> EnvelopeRatios:
    """Compare exact mean and survival with their fixed-point envelopes.

    Requires 0 < rho <= sigma < sigma + eps < 1; eps must be positive
    (the upper envelope is evaluated strictly above sigma).
    """
    n = _whole(n, "n")
    if not (0.0 < rho <= sigma < sigma + eps < 1.0):
        raise PreconditionError("need 0 < rho <= sigma < sigma + eps < 1")
    se = sigma + eps
    sw = _sweep(env, 0, n, 1.0, 0.0, ladder=True, at=(rho, se))
    log_surv, log_mean = sw.log_gap, float(sw.log_ladder[-1])
    mu_rho, nu_rho = _mu_at(sw.at[0])
    mu_se, nu_se = _mu_at(sw.at[1])
    return EnvelopeRatios(
        n=n,
        rho=rho,
        sigma_eps=se,
        mean_over_mu_rho=_exp(log_mean - mu_rho),
        log_mean_over_mu_rho=log_mean - mu_rho,
        surv_nu_rho=_exp(log_surv + nu_rho),
        log_surv_nu_rho=log_surv + nu_rho,
        mean_over_mu_sigma_eps=_exp(log_mean - mu_se),
        log_mean_over_mu_sigma_eps=log_mean - mu_se,
        surv_nu_sigma_eps=_exp(log_surv + nu_se),
        log_surv_nu_sigma_eps=log_surv + nu_se,
    )


@dataclass(frozen=True)
class GrowthRates:
    """Per-generation exponential rates at a horizon."""

    n: int
    mean_rate: float       # (1/n) log E[Z_n]
    survival_rate: float   # (1/n) log P[alive at n]
    log_mean: float
    log_survival: float


def growth_rate(env: Environment, n: int) -> GrowthRates:
    """The per-generation rates (1/n) log E[Z_n] and (1/n) log P[alive
    at n], with the logs they divide, from one sweep over generations
    1..n.  Requires n >= 1.  log_survival is log(f_{0,n}(1) - f_{0,n}(0))
    free of cancellation, so it stays finite where the survival
    probability underflows."""
    n = _whole(n, "n", 1)
    sw = _sweep(env, 0, n, 1.0, 0.0, ladder=True)
    log_surv, log_mean = sw.log_gap, float(sw.log_ladder[-1])
    return GrowthRates(
        n=n,
        mean_rate=log_mean / n,
        survival_rate=log_surv / n,
        log_mean=log_mean,
        log_survival=log_surv,
    )


# ---------------------------------------------------------------------------
# late extinction and conditioned means
# ---------------------------------------------------------------------------


# the proxy horizon stops doubling once the q_l move less than this
_CAUCHY_TOL = 1e-10
# the most generations the proxy search's sweeps may cover in all
_PROXY_SWEEP_CAP = 2**20


@dataclass(frozen=True)
class LateExtinctionBounds:
    """Bounds on dying late versus being killed late.

    upper_extinct bounds P[extinction strictly after n but eventually];
    lower_killed underestimates P[killed strictly after n but
    eventually].  The exact_* fields evaluate those probabilities at a
    proxy horizon chosen by Cauchy stopping; q_l are the eventual
    extinction probabilities seen from generation l.
    """

    sigma: float
    n: int
    proxy_horizon: int
    q_l: np.ndarray
    q_l_ok: bool
    upper_extinct: float
    exact_extinct: float
    lower_killed: float
    exact_killed: float
    holds_extinct: bool
    holds_killed: bool


def late_extinction_bounds(
    env: Environment,
    sigma: float,
    n: int,
    proxy_horizon: int | None = None,
) -> LateExtinctionBounds:
    """Bound the tails of the extinction and killing times.

    Requires f_i(sigma) <= sigma for every generation in the window (the
    upper envelope must be invariant); validated out to the proxy
    horizon.  The proxy horizon doubles from max(2n, 64) until the
    seen-from-l extinction probabilities move less than ``_CAUCHY_TOL``
    (1e-10); an explicit ``proxy_horizon`` must be >= n.  The search
    raises BudgetError before a doubling that would take the generations
    its sweeps cover past ``_PROXY_SWEEP_CAP`` (2^20).  From n above 2^18
    even the first doubling passes the cap, so such horizons need an
    explicit ``proxy_horizon``.
    """
    n = _whole(n, "n", 1)
    if proxy_horizon is not None and (proxy_horizon := _whole(proxy_horizon, "proxy_horizon")) < n:
        raise PreconditionError(f"need proxy_horizon >= n, got proxy_horizon={proxy_horizon}, n={n}")
    if not 0.0 < sigma < 1.0:
        raise PreconditionError("need sigma in (0,1)")
    big = max(2 * n, 64) if proxy_horizon is None else proxy_horizon
    _check_upper(env, sigma, 0, big)
    q = composed_points(env, 0, n, compose_eval(env, n, big, 0.0))  # q[l] ~ f_{l,big}(0)
    if proxy_horizon is None:
        swept = big - n
        while True:
            swept += 2 * big - n
            if swept > _PROXY_SWEEP_CAP:
                raise BudgetError(
                    "extinction probabilities did not settle within the proxy "
                    f"search's cap of {_PROXY_SWEEP_CAP} generations swept; "
                    "pass an explicit proxy_horizon"
                )
            _check_upper(env, sigma, big, 2 * big)
            big *= 2
            prev, q = q, composed_points(env, 0, n, compose_eval(env, n, big, 0.0))
            if float(np.max(np.abs(q - prev))) < _CAUCHY_TOL:
                break

    sw = _sweep(env, 0, n, sigma, ladder=True, log0=_log(1.0 - sigma), at=(sigma,))
    log_up = float(_running(sw.at[0], math.log(sigma))[-1])
    log_low = float(sw.log_ladder[-1])

    # exact tails at the proxy horizon, gap carried multiplicatively
    y = compose_eval(env, n, big, 1.0)
    x = float(q[n])  # f_{n,big}(0)
    log_ext = _sweep(env, 0, n, x, 0.0).log_gap
    log_kill = _sweep(env, 0, n, 1.0, y).log_gap
    exact_ext, exact_kill, upper, lower = map(_exp, (log_ext, log_kill, log_up, log_low))
    return LateExtinctionBounds(
        sigma=sigma,
        n=n,
        proxy_horizon=big,
        q_l=q,
        q_l_ok=bool(np.all(q <= sigma + 1e-9)),
        upper_extinct=upper,
        exact_extinct=exact_ext,
        lower_killed=lower,
        exact_killed=exact_kill,
        holds_extinct=exact_ext <= upper * (1.0 + 1e-9) + 1e-15,
        holds_killed=exact_kill >= lower * (1.0 - 1e-9) - 1e-15,
    )


@dataclass(frozen=True)
class CondMeanBound:
    """Mean population size among survivors, with its certified bound.

    exact = E[Z_n | alive at n] = E[Z_n] / P[Z_n > 0], untruncated; bound
    is the envelope 1 + c f_n'(1) sum_j beta^j (1 + f''/f' at n-j), with
    c = 1 / (e alpha^2 beta log(1/beta)), alpha = inf f_i(0) and
    beta = sup f_i(1) over the window.  cond_tail is always 0.0, kept
    for the benchmark's reader.
    """

    n: int
    exact: float
    bound: float
    alpha: float
    beta: float
    c: float
    cond_tail: float
    holds: bool


def conditioned_mean_bound(env: Environment, n: int) -> CondMeanBound:
    """Exact conditioned mean against the uniform-window bound.

    ``exact`` is E[Z_n] / P[Z_n > 0], both read from one sweep from
    generation 0 to n with no truncation, so ``cond_tail`` is 0.0.

    Raises PreconditionError when the window violates the hypotheses
    (some f_i(0) = 0 or some f_i(1) = 1) or survival vanishes at n.
    """
    n = _whole(n, "n", 1)
    alpha = math.inf
    beta = 0.0
    for i in range(1, n + 1):
        law = env.law(i)
        alpha = min(alpha, law.pgf(0.0))
        beta = max(beta, law.mass)
    if alpha <= 0.0:
        raise PreconditionError("hypotheses fail: inf f_i(0) = 0 on the window")
    if beta >= 1.0:
        raise PreconditionError("hypotheses fail: sup f_i(1) = 1 on the window")
    c = 1.0 / (math.e * alpha * alpha * beta * math.log(1.0 / beta))
    tot = 0.0
    for j in range(n):
        law = env.law(n - j)
        tot += beta**j * (1.0 + law.second_factorial / law.mean)
    bound = 1.0 + c * env.law(n).mean * tot

    sw = _sweep(env, 0, n, 1.0, 0.0, ladder=True)  # log P[Z_n > 0], log E[Z_n]
    if _exp(sw.log_gap) <= 0.0:
        raise PreconditionError("survival probability vanishes at this horizon")
    exact = _exp(float(sw.log_ladder[-1]) - sw.log_gap)
    return CondMeanBound(
        n=n,
        exact=exact,
        bound=bound,
        alpha=alpha,
        beta=beta,
        c=c,
        cond_tail=0.0,
        holds=exact <= bound * (1.0 + 1e-9),
    )


def _check_upper(env: Environment, sigma: float, k: int, n: int) -> None:
    """Raise unless f_i(sigma) <= sigma for generations k < i <= n, reading
    a repeated tail law once, at its first generation in the window."""
    last = min(n, max(env._fixed_from() or n, k + 1))
    for i in range(k + 1, last + 1):
        if env.law(i).pgf(sigma) > sigma + 1e-12:
            raise PreconditionError(f"f(sigma) > sigma at generation {i}")
