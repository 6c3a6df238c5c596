"""Absorption, moments, bounds and criterion checks."""
from __future__ import annotations

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import Alternating, brute_dist, rand_env
from defbranch import (
    BudgetError,
    CONVERGES,
    CRITERIA,
    DIVERGES,
    INCONCLUSIVE,
    Constant,
    Environment,
    FiniteSupport,
    LinearFractional,
    NamedFamily,
    Prefix,
    PreconditionError,
    absorption_profile,
    absorption_scan,
    conditioned_mean_bound,
    criteria_verdicts,
    envelope_ratios,
    fixed_point_bracket,
    growth_rate,
    late_extinction_bounds,
    law_from_dict,
    moments,
    survival_bounds,
)

THETA_A = 0.6267890062732586
THETA_B = 0.7298437881283575


def _scan_by_full_pass(env, n):
    """absorption_scan as one O(n^2) pass over every (law, horizon) pair."""
    hi, lo, logd = np.ones(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    with np.errstate(divide="ignore"):
        for i in range(n, 0, -1):
            law = env.law(i)
            sl = slice(i, n + 1)
            logd[sl] += np.log(law.divided_difference(hi[sl], lo[sl]))
            hi[sl] = law.pgf(hi[sl])
            lo[sl] = law.pgf(lo[sl])
    with np.errstate(over="ignore"):
        return lo, 1.0 - hi, np.exp(logd), logd


_SCAN_ENVS = {
    "law_a": Constant(FiniteSupport([0.45, 0.0, 0.45])),
    "law_b": Constant(LinearFractional(0.1, 0.4, 0.5)),
    "four_weights": Constant(FiniteSupport([0.2, 0.3, 0.1, 0.25])),
    "prefix_lf_tail": Prefix(
        tuple(FiniteSupport([0.1 + 0.05 * (i % 3), 0.3, 0.5 - 0.05 * (i % 4)]) for i in range(10)),
        LinearFractional(0.1, 0.4, 0.5),
    ),
    "example_2b": NamedFamily("example-2b"),
}


@pytest.mark.parametrize("n", [0, 1, 2, 11, 2000])
@pytest.mark.parametrize("name", _SCAN_ENVS)
def test_scan_matches_full_pass_bit_for_bit(name, n):
    scan = absorption_scan(_SCAN_ENVS[name], n)
    got = (scan.p_extinct, scan.p_killed, scan.survival, scan.log_survival)
    for g, w in zip(got, _scan_by_full_pass(_SCAN_ENVS[name], n)):
        assert np.array_equal(g, w)


class TestAbsorption:
    def test_frozen_two_generations(self, env_a):
        prof = absorption_profile(env_a, 2)
        assert prof.p_extinct == pytest.approx(0.541125, abs=1e-15)
        assert prof.p_killed == pytest.approx(0.1855, abs=1e-15)
        assert prof.survival == pytest.approx(0.273375, rel=1e-12)
        assert prof.p_absorbed == pytest.approx(0.726625, abs=1e-12)

    def test_horizon_zero(self, env_a):
        prof = absorption_profile(env_a, 0)
        assert prof.survival == 1.0
        assert prof.p_extinct == 0.0
        assert prof.log_survival == 0.0

    def test_scan_matches_profiles(self, alt_env):
        scan = absorption_scan(alt_env, 17)
        for n in (0, 1, 5, 17):
            prof = absorption_profile(alt_env, n)
            got = scan.profile(n)
            assert got.p_extinct == pytest.approx(prof.p_extinct, abs=1e-14)
            assert got.p_killed == pytest.approx(prof.p_killed, abs=1e-14)
            assert got.log_survival == pytest.approx(prof.log_survival, abs=1e-11)

    def test_scan_profile_checks_horizon(self, env_a):
        scan = absorption_scan(env_a, 5)
        assert scan.profile(0).survival == 1.0 and scan.profile(5).n == 5
        for n in (-1, 6):
            with pytest.raises(PreconditionError):
                scan.profile(n)

    def test_mass_accounting_random(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            env = rand_env(rng)
            prof = absorption_profile(env, int(rng.integers(1, 9)))
            total = prof.p_extinct + prof.p_killed + prof.survival
            assert total == pytest.approx(1.0, abs=1e-11)

    def test_deep_horizon_keeps_log_resolution(self, env_a):
        prof = absorption_profile(env_a, 2000)
        # survival underflows linear floats long before n = 2000
        assert prof.survival == 0.0
        assert math.isfinite(prof.log_survival)
        assert prof.log_survival < -1100.0
        # 1 - p_absorbed is pure cancellation by now
        assert prof.p_extinct + prof.p_killed == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_frozen_small_cases(self, env_a):
        m1 = moments(env_a, 1)
        assert m1.mean == pytest.approx(0.9, abs=1e-15)
        assert m1.ratio == pytest.approx(2.0 / 0.9, rel=1e-13)
        assert m1.second == pytest.approx(1.8, rel=1e-13)
        m2 = moments(env_a, 2)
        assert m2.mean == pytest.approx(0.729, abs=1e-15)
        assert m2.ratio == pytest.approx(4.11522633744856, rel=1e-12)
        assert m2.second == pytest.approx(2.187, rel=1e-12)

    def test_against_dict_dp(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            env = rand_env(rng, allow_lf=False)
            n = int(rng.integers(1, 5))
            dist, _ = brute_dist(env, n)
            want_mean = sum(z * p for z, p in dist.items())
            want_second = sum(z * z * p for z, p in dist.items())
            m = moments(env, n)
            assert m.mean == pytest.approx(want_mean, rel=1e-12)
            assert m.second == pytest.approx(want_second, rel=1e-11)

    def test_lf_against_moebius_fit(self, env_b):
        # compositions of Moebius maps are Moebius: fit q + r/(1-ps)
        # through three exact values and read the moments off the fit
        from conftest import brute_compose, fit_lf

        for n in (1, 2, 3, 4):
            f0 = brute_compose(env_b, 0, n, 0.0)
            fh = brute_compose(env_b, 0, n, 0.5)
            f1 = brute_compose(env_b, 0, n, 1.0)
            q, r, p = fit_lf(f0, fh, f1)
            mean = r * p / (1 - p) ** 2
            second_fac = 2 * r * p**2 / (1 - p) ** 3
            m = moments(env_b, n)
            assert m.mean == pytest.approx(mean, rel=1e-9)
            assert m.second == pytest.approx(second_fac + mean, rel=1e-9)

    def test_log_fields(self, env_b):
        m = moments(env_b, 7)
        assert m.mean == pytest.approx(math.exp(m.log_mean), rel=1e-14)
        assert m.second == pytest.approx(math.exp(m.log_second), rel=1e-13)

    def test_linear_overflow_is_quiet(self, env_a):
        # linear fields overflow to inf without a warning; the log fields
        # carry the values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = moments(NamedFamily("example-2b"), 2000)
            sb = survival_bounds(env_a, 2000)
            env = envelope_ratios(env_a, THETA_A, THETA_A, 0.05, 2000)
        assert m.mean == math.inf and math.isfinite(m.log_mean)
        assert sb.inv_hi == math.inf and math.isfinite(sb.log_moment_lower)
        assert math.isfinite(env.log_surv_nu_sigma_eps)


class TestSurvivalBounds:
    def test_holds_on_examples(self, env_a, env_b, alt_env):
        for env in (env_a, env_b, alt_env):
            for n in (1, 3, 10, 60):
                sb = survival_bounds(env, n)
                assert sb.holds
                assert sb.moment_lower <= sb.survival * (1 + 1e-9)
                assert sb.survival <= sb.inf_mean_product * (1 + 1e-9)
                assert sb.inv_lo <= 1.0 / sb.survival * (1 + 1e-9)
                assert 1.0 / sb.survival <= sb.inv_hi * (1 + 1e-9)

    def test_holds_on_randoms(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            env = rand_env(rng)
            sb = survival_bounds(env, int(rng.integers(1, 25)))
            assert sb.holds

    def test_certified_constant(self, env_a):
        sb = survival_bounds(env_a, 12)
        assert sb.c_prime == max(1.0, 2.0 * sb.c_used)
        assert sb.c_used == pytest.approx(2.0)  # law A c12
        assert sb.survival <= sb.c_prime * sb.moment_lower * (1 + 1e-9)
        assert sb.c_prime_empirical <= sb.c_prime * (1 + 1e-9)

    def test_explicit_c_respected(self, env_a):
        sb = survival_bounds(env_a, 5, c=7.0)
        assert sb.c_used == 7.0
        assert sb.c_prime == 14.0

    def test_single_child_env_degenerates(self, env_1b):
        sb = survival_bounds(env_1b, 30)
        assert sb.c_used == 0.0
        assert sb.holds
        # no variance terms: both reciprocal ends meet at 1/mean
        assert sb.inv_lo == pytest.approx(sb.inv_hi, rel=1e-12)
        assert sb.moment_lower == pytest.approx(sb.survival, rel=1e-9)

    def test_zero_c_with_variance_terms_rejected(self, env_a):
        with pytest.raises(PreconditionError, match="c = 0"):
            survival_bounds(env_a, 3, c=0.0)


class TestCriteria:
    def test_reporting_order_and_shape(self, env_1a):
        out = criteria_verdicts(env_1a, horizons=(50, 100))
        assert tuple(v.criterion for v in out) == CRITERIA
        for v in out:
            assert v.horizons == (50, 100)
            assert len(v.partials) == 2
            assert v.verdict in (CONVERGES, DIVERGES, INCONCLUSIVE)

    @pytest.mark.parametrize("horizons", [(10,), (10, 10)])
    def test_needs_two_distinct_horizons(self, env_a, horizons):
        with pytest.raises(PreconditionError, match="^need at least two distinct horizons$"):
            criteria_verdicts(env_a, horizons=horizons)

    def test_repeated_horizon_counts_once(self, env_a):
        out = criteria_verdicts(env_a, horizons=[10, 100, 100])
        assert out == criteria_verdicts(env_a, horizons=[10, 100])
        assert all(v.horizons == (10, 100) and len(v.partials) == 2 for v in out)

    def test_named_families_analytic(self, env_1a, env_1b, env_2a, env_2b):
        def verdicts(env):
            return {v.criterion: v for v in criteria_verdicts(env, horizons=(100, 1000))}

        va = verdicts(env_1a)
        assert va["one_child_gap"].verdict == DIVERGES
        assert va["mean_product_infimum"].verdict == DIVERGES
        assert va["one_child_gap"].analytic

        vb = verdicts(env_1b)
        assert vb["one_child_gap"].verdict == CONVERGES
        assert vb["mean_product_infimum"].verdict == CONVERGES
        assert vb["defect_mean_series"].verdict == CONVERGES
        assert vb["var_mean_series"].verdict == CONVERGES
        assert vb["tail_ratio_sup"].verdict == CONVERGES

        v2a = verdicts(env_2a)
        assert v2a["defect_mean_series"].verdict == DIVERGES
        assert v2a["var_mean_series"].verdict == CONVERGES
        assert v2a["tail_ratio_sup"].verdict == CONVERGES

        v2b = verdicts(env_2b)
        assert v2b["defect_mean_series"].verdict == CONVERGES
        assert v2b["var_mean_series"].verdict == CONVERGES
        # growing mean products: the infimum is the first value, positive
        assert v2b["mean_product_infimum"].verdict == CONVERGES

    def test_slope_heuristic_power_defect(self):
        fast = NamedFamily("power-defect", {"a": 0.5, "b": 2.0})
        slow = NamedFamily("power-defect", {"a": 0.5, "b": 0.5})
        vf = {v.criterion: v for v in criteria_verdicts(fast, horizons=(100, 1000, 10000))}
        vs = {v.criterion: v for v in criteria_verdicts(slow, horizons=(100, 1000, 10000))}
        gap_f = vf["one_child_gap"]
        gap_s = vs["one_child_gap"]
        assert not gap_f.analytic and not gap_s.analytic
        assert gap_f.verdict == CONVERGES
        assert gap_f.slope == pytest.approx(-2.0, abs=0.1)
        assert gap_s.verdict == DIVERGES
        assert gap_s.slope == pytest.approx(-0.5, abs=0.1)

    def test_borderline_is_inconclusive(self):
        edge = NamedFamily("power-defect", {"a": 0.5, "b": 1.0})
        v = {x.criterion: x for x in criteria_verdicts(edge, horizons=(100, 1000, 10000))}
        assert v["one_child_gap"].verdict == INCONCLUSIVE

    def test_partials_monotone(self, env_2a):
        out = criteria_verdicts(env_2a, horizons=(10, 100, 1000))
        for v in out:
            if v.criterion in ("one_child_gap", "defect_mean_series", "var_mean_series"):
                ps = list(v.partials)
                assert ps == sorted(ps)


class _Rebuilt(Environment):
    """The laws of ``base``, built afresh through validation on every
    call: the per-law criteria columns, with no closed form and no two
    generations sharing a law object."""

    def __init__(self, base: Environment):
        self.base = base

    def law(self, n: int):
        return law_from_dict(self.base.law(n).to_dict())

    @property
    def series_meta(self) -> dict[str, str]:
        return self.base.series_meta


_CRITERIA_ENVS = {
    **{f: NamedFamily(f) for f in ("example-1a", "example-1b", "example-2a", "example-2b")},
    **{f"power-defect-{m}": NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": m})
       for m in (1, 2, 3)},
    "constant-b": Constant(LinearFractional(0.1, 0.4, 0.5)),
    "prefix": Prefix(
        (FiniteSupport([0.2, 0.3, 0.0, 0.4]), LinearFractional(0.2, 0.3, 0.4),
         FiniteSupport([0.1, 0.0, 0.8])),
        LinearFractional(0.1, 0.4, 0.5),
    ),
}


def _criteria_loop(env: Environment, hs: tuple[int, ...]):
    """Partials and slopes of criteria_verdicts by its former loop, one
    generation at a time in Python floats: the reference the column pass
    must equal exactly."""
    from defbranch.analysis import _fit_slope
    from defbranch.environments import _series_stats

    n_max = hs[-1]
    lo = max(2, int(n_max / 100))
    sample_at = set(np.unique(np.geomspace(lo, n_max, 61).astype(np.int64)).tolist())
    series = ("one_child_gap", "defect_mean_series", "var_mean_series")
    sums = dict.fromkeys(series, 0.0)
    samples = {k: [] for k in series}
    partials = {k: [] for k in CRITERIA}
    log_mu, log_inf_mu, sup_c8 = 0.0, math.inf, 0.0
    with np.errstate(over="ignore"):
        for i in range(1, n_max + 1):
            w1, defect, mean, second, c8 = _series_stats(env.law(i))
            lg = dict(zip(series, (_log(1.0 - w1), _log(defect) + log_mu, 0.0)))
            log_mu += _log(mean)
            log_inf_mu = min(log_inf_mu, log_mu)
            lg["var_mean_series"] = _log(second) - _log(mean) - log_mu
            sup_c8 = max(sup_c8, c8)
            for k in series:
                sums[k] += float(np.exp(lg[k]))
                if i in sample_at:
                    samples[k].append((i, lg[k]))
            if i in hs:
                for k in series:
                    partials[k].append(sums[k])
                partials["mean_product_infimum"].append(float(np.exp(log_inf_mu)))
                partials["tail_ratio_sup"].append(sup_c8)
    slopes = {k: _fit_slope(samples[k]) if k in samples else None for k in CRITERIA}
    return partials, slopes


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@pytest.mark.parametrize("name", sorted(_CRITERIA_ENVS))
def test_criteria_columns_match_per_law_path(name):
    """Closed-form columns (named families) and once-per-distinct-law
    columns (Constant, Prefix) give verdicts equal in every field to the
    per-generation evaluation of freshly built laws, and partials and
    slopes equal to the former one-generation-at-a-time loop."""
    env = _CRITERIA_ENVS[name]
    hs = (10, 100, 1000)
    out = criteria_verdicts(env, hs)
    assert out == criteria_verdicts(_Rebuilt(env), hs)
    _assert_matches_loop(out, env, hs)


def _assert_matches_loop(out, env, hs):
    partials, slopes = _criteria_loop(env, hs)
    for v in out:
        assert v.partials == tuple(partials[v.criterion])
        assert v.slope == slopes[v.criterion]


def test_criteria_default_horizons_match_loop():
    # at 1e5 generations np.log, unlike math.log, moves these partials
    env = NamedFamily("example-1b")
    hs = (100, 1_000, 10_000, 100_000)
    _assert_matches_loop(criteria_verdicts(env, hs), env, hs)


_SPECIAL = [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf, 5e-324, 1.0,
            math.nextafter(1.0, 0.0), math.e]  # math.log(math.e) is 1.0


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_logs_is_log_entry_by_entry(size):
    from defbranch.analysis import _logs

    rng = np.random.default_rng(size)
    x = rng.lognormal(0.0, 3.0, size)
    x[rng.random(size) < 0.2] = 1.0
    at = rng.choice(size, min(size, 3 * len(_SPECIAL)), replace=False)
    x[at] = np.resize(_SPECIAL, at.size)
    want = np.array([_log(v) for v in x.tolist()])
    assert _logs(x) is x
    assert x.tobytes() == want.tobytes()


def _per_entry_logs(x):
    x[:] = [_log(v) for v in x.tolist()]
    return x


_DEFAULT_HORIZON_ENVS = {
    **{f: NamedFamily(f) for f in ("example-1a", "example-1b", "example-2a", "example-2b")},
    **{f"power-defect-{m}": NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": m})
       for m in (1, 2, 3)},
    "power-defect-int-b": NamedFamily("power-defect", {"a": 0.25, "b": 2, "arity": 2}),
}


@pytest.mark.parametrize("name", sorted(_DEFAULT_HORIZON_ENVS))
def test_criteria_default_horizons_match_per_entry_logs(name, monkeypatch):
    env = _DEFAULT_HORIZON_ENVS[name]
    out = criteria_verdicts(env)
    monkeypatch.setattr("defbranch.analysis._logs", _per_entry_logs)
    assert repr(out) == repr(criteria_verdicts(env))


@pytest.mark.parametrize("name", sorted(_DEFAULT_HORIZON_ENVS))
def test_criteria_columns_write_the_law_coefficient(name):
    # n = 2000 takes 0.5**n past 1074 and 1075, where it turns subnormal and 0
    env = _DEFAULT_HORIZON_ENVS[name]
    n = 2000
    w1, defect, mean, _, _ = env._criteria_columns(n)
    laws = [env.law(i) for i in range(1, n + 1)]
    m = laws[0].weights.size - 1
    c = np.array([law.weights[-1] for law in laws])
    assert defect.tobytes() == (1.0 - c).tobytes()
    assert mean.tobytes() == (m * c).tobytes()
    if m == 1:
        assert w1.tobytes() == c.tobytes()


def test_criteria_verdicts_memory_peak():
    # transient lists one column long in _logs take the peak to about 10.6 MB
    env = NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": 2})
    criteria_verdicts(env, (100, 1_000))  # first-call allocations out of the count
    tracemalloc.start()
    try:
        criteria_verdicts(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.6e6


class TestFixedPointBracket:
    def test_alternating_envelope(self, alt_env):
        br = fixed_point_bracket(alt_env, upto=16)
        assert br.ok
        assert br.rho == pytest.approx(THETA_A, abs=1e-9)
        assert br.sigma == pytest.approx(THETA_B, abs=1e-9)
        assert br.theta.shape == (16,)

    def test_constant_env_degenerate_bracket(self, env_a):
        br = fixed_point_bracket(env_a, upto=8)
        assert br.ok
        assert br.rho == br.sigma

    def test_proper_law_with_wider_support(self):
        # four weights take the bisection path; f(0.25) = 0.25 exactly
        br = fixed_point_bracket(Constant(FiniteSupport([0.2, 0.1, 0.3, 0.4])), upto=4)
        assert br.ok, br.reason
        assert br.rho == pytest.approx(0.25, abs=1e-12)
        assert br.sigma == pytest.approx(0.25, abs=1e-12)

    def test_fallback_rho_without_sigma(self):
        env = Constant(FiniteSupport([0.5, 0.5]))  # proper subcritical: no fixed point
        br = fixed_point_bracket(env, upto=4)
        assert not br.ok
        assert br.rho == pytest.approx(0.5)
        assert br.sigma is None
        assert "fell back" in br.reason

    def test_no_bracket_at_all(self):
        env = Constant(FiniteSupport([0.0, 0.9]))
        br = fixed_point_bracket(env, upto=4)
        assert not br.ok
        assert br.rho is None
        assert "no bracket" in br.reason


class TestEnvelopeRatios:
    def test_constant_env_ratios_stabilize(self, env_a):
        theta = THETA_A
        r150 = envelope_ratios(env_a, theta, theta, 0.05, 150)
        r300 = envelope_ratios(env_a, theta, theta, 0.05, 300)
        for field in ("mean_over_mu_rho", "surv_nu_rho"):
            a, b = getattr(r150, field), getattr(r300, field)
            assert a > 0.0 and math.isfinite(a)
            assert b == pytest.approx(a, rel=0.02)
        # above sigma the same ratios must not blow up
        assert r300.mean_over_mu_sigma_eps <= r150.mean_over_mu_sigma_eps * 1.01
        assert r300.surv_nu_sigma_eps <= r150.surv_nu_sigma_eps * 1.01

    def test_parameter_validation(self, env_a):
        with pytest.raises(PreconditionError):
            envelope_ratios(env_a, 0.7, 0.6, 0.05, 10)  # rho > sigma
        with pytest.raises(PreconditionError):
            envelope_ratios(env_a, 0.5, 0.6, 0.0, 10)  # eps = 0
        with pytest.raises(PreconditionError):
            envelope_ratios(env_a, 0.5, 0.98, 0.05, 10)  # sigma + eps >= 1


class TestGrowthRates:
    def test_constant_env_approaches_derivative_at_theta(self, env_a, env_b, law_a, law_b):
        for env, law, mr, sr in (
            (env_a, law_a, -0.5694095447940655, -0.5723348603190092),
            (env_b, law_b, -0.699231215640345, -0.7018487254899418),
        ):
            g = growth_rate(env, 500)
            target = math.log(law.pgf(law.fixed_point(), 1))
            assert g.mean_rate == pytest.approx(mr, abs=1e-12)
            assert g.survival_rate == pytest.approx(sr, abs=1e-12)
            assert g.mean_rate == pytest.approx(target, abs=0.02)
            assert g.survival_rate == pytest.approx(target, abs=0.02)
            # the two rates squeeze together as n grows
            g2 = growth_rate(env, 1000)
            assert abs(g2.mean_rate - g2.survival_rate) < abs(
                g.mean_rate - g.survival_rate
            )


class TestLateExtinction:
    def test_holds_at_fixed_point(self, env_a):
        for n in (3, 8):
            le = late_extinction_bounds(env_a, THETA_A, n)
            assert le.holds_extinct
            assert le.holds_killed
            assert le.q_l_ok
            assert le.exact_extinct <= le.upper_extinct * (1 + 1e-9)
            assert le.exact_killed >= le.lower_killed * (1 - 1e-9)
            assert le.proxy_horizon >= max(2 * n, 64)

    def test_alternating_at_sigma(self, alt_env):
        le = late_extinction_bounds(alt_env, THETA_B, 5)
        assert le.holds_extinct and le.holds_killed and le.q_l_ok

    def test_rejects_non_invariant_sigma(self, env_a):
        with pytest.raises(PreconditionError, match="sigma"):
            late_extinction_bounds(env_a, 0.3, 4)  # f(0.3) = 0.4905 > 0.3

    def test_invariance_checked_before_proxy_search(self):
        # f(0.99) = 0.990025 > 0.99 fails at generation 1; the proxy search
        # for this critical law would never settle
        env = Constant(FiniteSupport([0.25, 0.5, 0.25]))
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="generation 1$"):
            late_extinction_bounds(env, 0.99, 5)
        assert time.perf_counter() - start < 1.0

    def test_proxy_horizon_below_n_rejected_first(self, monkeypatch):
        from defbranch import analysis

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking proxy_horizon")

        monkeypatch.setattr(analysis, "_check_upper", no_sweep)
        env = Constant(FiniteSupport([0.45, 0.0, 0.45]))
        with pytest.raises(PreconditionError, match="^need proxy_horizon >= n, got proxy_horizon=5, n=10$"):
            late_extinction_bounds(env, THETA_A, 10, proxy_horizon=5)

    @pytest.mark.parametrize("cap, settles", [(181, False), (182, True)])
    def test_proxy_search_stops_at_its_cap(self, env_a, monkeypatch, cap, settles):
        # n = 5 starts the search at horizon 64 (59 generations) and settles
        # after one doubling to 128 (123 more): 182 generations in all
        from defbranch import analysis

        real = analysis.compose_eval
        horizons = []

        def counting(env, k, n, s):
            horizons.append((k, n))
            return real(env, k, n, s)

        monkeypatch.setattr(analysis, "compose_eval", counting)
        monkeypatch.setattr(analysis, "_PROXY_SWEEP_CAP", cap)
        if settles:
            assert late_extinction_bounds(env_a, THETA_A, 5).proxy_horizon == 128
            assert sum(n - k for k, n in horizons[:-1]) == 182  # the last is the kill tail
            return
        with pytest.raises(BudgetError, match=f"cap of {cap} generations swept; pass an explicit proxy_horizon$"):
            late_extinction_bounds(env_a, THETA_A, 5)
        assert horizons == [(5, 64)]

    def test_explicit_proxy_horizon(self, env_a):
        le = late_extinction_bounds(env_a, THETA_A, 4, proxy_horizon=300)
        assert le.proxy_horizon == 300
        assert le.holds_extinct and le.holds_killed

    def test_frozen_fields(self, env_a, alt_env):
        # (proxy horizon, upper_extinct, exact_extinct, lower_killed,
        # exact_killed, q_l) as the whole-window proxy search gave them
        qa = 0.6267890062732584
        qb = [0.6720290022538071, 0.7024227948936722]
        cases = [
            (env_a, THETA_A, 3, None, 128, 0.11251566986071056, 0.04502168674200847,
             0.06699556714981475, 0.12174560622674149, [qa] * 4),
            (env_a, THETA_A, 8, None, 128, 0.006427356800959067, 0.002382189955944368,
             0.003827061730046497, 0.008658903255271435, [qa] * 9),
            (alt_env, THETA_B, 5, None, 128, 0.05086260742763109, 0.013913718253562574,
             0.015334360748576649, 0.027134106111410324, qb * 3),
            (env_a, THETA_A, 4, 300, 300, 0.06347122641194834, 0.024485059939699492,
             0.03779287646269117, 0.07534782347647781, [qa] * 5),
        ]
        for env, sigma, n, proxy, *want in cases:
            le = late_extinction_bounds(env, sigma, n, proxy_horizon=proxy)
            assert (le.sigma, le.n) == (sigma, n)
            got = [le.proxy_horizon, le.upper_extinct, le.exact_extinct, le.lower_killed,
                   le.exact_killed, le.q_l.tolist()]
            assert got == want
            assert le.q_l_ok and le.holds_extinct and le.holds_killed

    def test_proxy_search_keeps_only_the_window(self):
        # nearly critical: the proxy horizon doubles up to 65536, but only
        # the n + 1 points of the window are kept
        env = Constant(FiniteSupport([0.25 - 3e-4, 0.5, 0.25 + 3e-4]))
        sigma = (env.law(1).fixed_point() + 1.0) / 2.0
        tracemalloc.start()
        try:
            le = late_extinction_bounds(env, sigma, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert le.proxy_horizon == 65536
        assert peak < 100_000


class TestConditionedMean:
    def test_frozen_law_a(self, env_a):
        cm = conditioned_mean_bound(env_a, 10)
        assert cm.exact == pytest.approx(4.289546282915147, rel=1e-12)
        assert cm.c == pytest.approx(19.15843781214602, rel=1e-12)
        assert cm.alpha == pytest.approx(0.45)
        assert cm.beta == pytest.approx(0.9)
        assert cm.holds
        # c is hand-checkable: 1 / (e alpha^2 beta ln(1/beta))
        want_c = 1.0 / (math.e * 0.45**2 * 0.9 * math.log(1 / 0.9))
        assert cm.c == pytest.approx(want_c, rel=1e-12)

    def test_against_dict_dp(self, env_a):
        for n in (1, 2, 4, 6):
            dist, _ = brute_dist(env_a, n)
            surv = sum(p for z, p in dist.items() if z >= 1)
            want = sum(z * p for z, p in dist.items()) / surv
            cm = conditioned_mean_bound(env_a, n)
            assert cm.exact == pytest.approx(want, rel=1e-10)

    def test_lf_against_moebius_fit(self, env_b):
        # a Moebius composition stays Moebius, and conditioning a
        # geometric-tail law on survival gives mean 1/(1-p) exactly
        from conftest import brute_compose, fit_lf

        # n = 3 needs degree 128: at 64 the conditional tail passes but the
        # coefficients still miss 6.7e-10 of the mean
        for n in (1, 2, 3, 4, 6):
            f0 = brute_compose(env_b, 0, n, 0.0)
            fh = brute_compose(env_b, 0, n, 0.5)
            f1 = brute_compose(env_b, 0, n, 1.0)
            _, _, p = fit_lf(f0, fh, f1)
            cm = conditioned_mean_bound(env_b, n)
            assert cm.exact == pytest.approx(1.0 / (1.0 - p), rel=1e-10)

    def test_cond_tail_is_relative(self, env_a):
        cm = conditioned_mean_bound(env_a, 60)
        assert cm.cond_tail < 1e-10
        assert cm.degree_used >= 64

    def test_identity_env_rejected(self):
        env = Constant(FiniteSupport([0.0, 1.0]))
        with pytest.raises(PreconditionError, match="f_i\\(0\\)"):
            conditioned_mean_bound(env, 5)

    def test_proper_env_rejected(self):
        env = Constant(FiniteSupport([0.5, 0.5]))
        with pytest.raises(PreconditionError, match="f_i\\(1\\)"):
            conditioned_mean_bound(env, 5)

    def test_prefix_window_hypotheses(self):
        # a single bad generation inside the window must trip the check
        env = Prefix((FiniteSupport([0.0, 0.9]),), FiniteSupport([0.45, 0.0, 0.45]))
        with pytest.raises(PreconditionError):
            conditioned_mean_bound(env, 3)
