"""Absorption, moments, bounds and criterion checks."""
from __future__ import annotations

import copy
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from conftest import Alternating, assert_exact_partials, brute_dist, mp_defect, named_arity, rand_env
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
    moments,
    mu_profile,
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

    @pytest.mark.parametrize("c", [-1.0, math.nan])
    def test_c_not_positive_with_variance_terms_rejected(self, env_a, c):
        with pytest.raises(PreconditionError, match=f"c = {c!r} is not > 0"):
            survival_bounds(env_a, 3, c=c)


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

    def test_non_integral_horizon_rejected(self, env_a):
        with pytest.raises(PreconditionError, match=r"^horizons must be an integer, got 100\.5$"):
            criteria_verdicts(env_a, horizons=(100.5, 200))
        out = criteria_verdicts(env_a, horizons=(100.0, 200))
        assert out == criteria_verdicts(env_a, horizons=(100, 200))
        assert all(v.horizons == (100, 200) for v in out)

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

    def test_power_defect_gap_by_rule(self):
        # the verdict comes from b; the slope of the terms is reported beside it
        fast = NamedFamily("power-defect", {"a": 0.5, "b": 2.0})
        slow = NamedFamily("power-defect", {"a": 0.5, "b": 0.5})
        vf = {v.criterion: v for v in criteria_verdicts(fast, horizons=(100, 1000, 10000))}
        vs = {v.criterion: v for v in criteria_verdicts(slow, horizons=(100, 1000, 10000))}
        gap_f = vf["one_child_gap"]
        gap_s = vs["one_child_gap"]
        assert gap_f.analytic and gap_s.analytic
        assert gap_f.verdict == CONVERGES
        assert gap_f.slope == pytest.approx(-2.0, abs=0.1)
        assert gap_s.verdict == DIVERGES
        assert gap_s.slope == pytest.approx(-0.5, abs=0.1)

    def test_borderline_gap_diverges(self):
        # sum a/n diverges: no finite horizon shows it, the rule does
        edge = NamedFamily("power-defect", {"a": 0.5, "b": 1.0})
        v = {x.criterion: x for x in criteria_verdicts(edge, horizons=(100, 1000, 10000))}
        assert v["one_child_gap"].verdict == DIVERGES
        assert v["one_child_gap"].analytic

    def test_partials_monotone(self, env_2a):
        out = criteria_verdicts(env_2a, horizons=(10, 100, 1000))
        for v in out:
            if v.criterion in ("one_child_gap", "defect_mean_series", "var_mean_series"):
                ps = list(v.partials)
                assert ps == sorted(ps)


class _Rebuilt(Environment):
    """The laws of ``base``, copied afresh on every call (a named law
    with its kept defect): the per-law criteria columns, with no closed
    form and no two generations sharing a law object."""

    def __init__(self, base: Environment):
        self.base = base

    def law(self, n: int):
        return copy.copy(self.base.law(n))

    @property
    def series_meta(self) -> dict[str, str]:
        return self.base.series_meta


_CRITERIA_ENVS = {
    **{f: NamedFamily(f) for f in ("example-1a", "example-1b", "example-2a", "example-2b")},
    **{f"power-defect-{m}": NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": m})
       for m in (1, 2, 3, 6)},
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


def _assert_matches_per_law_path(env, hs):
    """Once-per-distinct-law terms (Constant, Prefix) give verdicts equal
    in every field to the per-generation evaluation of freshly built
    laws, and partials and slopes equal to the former
    one-generation-at-a-time loop.  Closed-form terms (named families and
    their shifts) give the verdicts and tags of freshly built laws, and
    partials within max(1e-12, h 2^-53) of the exact family."""
    out = criteria_verdicts(env, hs)
    rebuilt = criteria_verdicts(_Rebuilt(env), hs)
    if isinstance(getattr(env, "_base", env), NamedFamily):
        assert [(v.verdict, v.analytic) for v in out] == [(v.verdict, v.analytic) for v in rebuilt]
        assert_exact_partials(out, env)
    else:
        assert out == rebuilt
        _assert_matches_loop(out, env, hs)


@pytest.mark.parametrize("name", sorted(_CRITERIA_ENVS))
def test_criteria_columns_match_per_law_path(name):
    _assert_matches_per_law_path(_CRITERIA_ENVS[name], (10, 100, 1000))


@pytest.mark.parametrize("name", sorted(_CRITERIA_ENVS))
def test_shifted_criteria_columns_are_the_base_columns(name):
    """A shift reads its base's terms of generations by+1..by+n, with mean
    products counted from generation by, and its base's tags."""
    env = _CRITERIA_ENVS[name].shift(3)
    _assert_matches_per_law_path(env, (10, 100, 1000))
    assert env.series_meta == _CRITERIA_ENVS[name].series_meta


def test_shifted_family_takes_the_family_tags(monkeypatch):
    # without its tags it would read "inconclusive"; the series, of terms
    # d_i mu_{i-1} = Prod_{j<i} (1 - d_j) / (2 i), diverges
    base = NamedFamily("example-2a")
    env = base.shift(3)

    def law(self, n):
        raise AssertionError("a criteria column read a law")

    monkeypatch.setattr(NamedFamily, "law", law)
    out = criteria_verdicts(env)
    assert all(v.analytic for v in out)
    assert {v.criterion: v.verdict for v in out} == base.series_meta
    n = out[0].horizons[-1]
    gap, log_mu, lg_defect, lg_var, c8 = env._criteria_terms(n)
    whole = base._criteria_terms(n + 3)
    # re-based to generation 3: mu'_i = mu_{i+3} / mu_3
    log_mu3 = whole[1][2]
    assert gap.tobytes() == whole[0][3:].tobytes()
    np.testing.assert_allclose(log_mu, whole[1][3:] - log_mu3, rtol=1e-13)
    np.testing.assert_allclose(lg_defect, whole[2][3:] - log_mu3, rtol=1e-13)
    np.testing.assert_allclose(lg_var, whole[3][3:] + log_mu3, rtol=1e-13)
    assert c8.tobytes() == whole[4][3:].tobytes()


def _assert_matches_loop(out, env, hs):
    partials, slopes = _criteria_loop(env, hs)
    for v in out:
        assert v.partials == tuple(partials[v.criterion])
        assert v.slope == slopes[v.criterion]


def test_check_mean_products_are_mu_profiles():
    # sum_k k f[k] in index order and the law's mean differ in the last
    # bit on this law; check reads the law's, as mu_profile does
    env = Constant(FiniteSupport([0.32, 0.18, 0.19, 0.04]))
    hs = (10, 100, 1000)
    (v,) = [v for v in criteria_verdicts(env, hs) if v.criterion == "mean_product_infimum"]
    assert v.partials == tuple(mu_profile(env, h).mu for h in hs)


# f(1) - f[0] cancels to 0.0 on both laws, whose mass on {1, 2, ...} is
# below the float spacing at f(1)
_TINY_ABOVE_ZERO = [FiniteSupport([0.5, 1e-20]), LinearFractional(0.1, 0.4, 1e-17)]


@pytest.mark.parametrize("law", _TINY_ABOVE_ZERO, ids=["finite", "lf"])
def test_readers_take_a_law_with_tiny_mass_above_zero(law):
    env = Constant(law)
    assert survival_bounds(env, 10).holds
    out = criteria_verdicts(env, (10, 100))
    assert [v.criterion for v in out] == list(CRITERIA)
    assert out[-1].partials == (law.regularity().c8,) * 2


@pytest.mark.parametrize("reader", [absorption_profile, absorption_scan, moments, mu_profile])
def test_negative_horizon_is_named(reader):
    with pytest.raises(PreconditionError) as exc:
        reader(Constant(FiniteSupport([0.45, 0.0, 0.45])), -1)
    assert str(exc.value) == "need n >= 0, got n=-1"


def test_criteria_default_horizons_match_loop():
    # at 1e5 generations np.log, unlike math.log, moves these partials;
    # as an explicit prefix, the laws of example-1b take the per-law terms
    hs = (100, 1_000, 10_000, 100_000)
    base = NamedFamily("example-1b")
    env = Prefix(tuple(base.law(i) for i in range(1, hs[-1] + 1)), base.law(hs[-1] + 1))
    _assert_matches_loop(criteria_verdicts(env, hs), env, hs)


_SPECIAL = [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf, 5e-324, 1.0,
            math.nextafter(1.0, 0.0), math.e]  # math.log(math.e) is 1.0


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_logs_is_log_entry_by_entry(size):
    from defbranch.environments import _logs

    rng = np.random.default_rng(size)
    x = rng.lognormal(0.0, 3.0, size)
    x[rng.random(size) < 0.2] = 1.0
    at = rng.choice(size, min(size, 3 * len(_SPECIAL)), replace=False)
    x[at] = np.resize(_SPECIAL, at.size)
    want = np.array([_log(v) for v in x.tolist()])
    assert _logs(x) is x
    assert x.tobytes() == want.tobytes()


_DEFAULT_HORIZON_ENVS = {
    **{f: NamedFamily(f) for f in ("example-1a", "example-1b", "example-2a", "example-2b")},
    **{f"power-defect-{m}": NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": m})
       for m in (1, 2, 3, 6)},
    "power-defect-int-b": NamedFamily("power-defect", {"a": 0.25, "b": 2, "arity": 2}),
}

# the verdicts at the default horizons, in CRITERIA order: each family's
# tags, decided from its (m, rate, b)
_C, _D = CONVERGES, DIVERGES
_DEFAULT_HORIZON_VERDICTS = {
    "example-1a": (_D, _D, _C, _C, _C),
    "example-1b": (_C, _C, _C, _C, _C),
    "example-2a": (_D, _C, _D, _C, _C),
    "example-2b": (_D, _C, _C, _C, _C),
    "power-defect-1": (_C, _C, _C, _C, _C),
    "power-defect-2": (_D, _C, _D, _C, _C),
    "power-defect-3": (_D, _C, _D, _C, _C),
    "power-defect-6": (_D, _C, _D, _C, _C),
    "power-defect-int-b": (_D, _C, _D, _C, _C),
}


@pytest.mark.parametrize("name", sorted(_DEFAULT_HORIZON_ENVS))
def test_criteria_default_horizons_match_exact_family(name):
    # d_n underflows past n = 1074 on example-2a and 2b; their log terms do not
    env = _DEFAULT_HORIZON_ENVS[name]
    out = criteria_verdicts(env)
    assert tuple(v.verdict for v in out) == _DEFAULT_HORIZON_VERDICTS[name]
    assert all(v.analytic for v in out)
    assert_exact_partials(out, env)


@pytest.mark.parametrize("name", sorted(_DEFAULT_HORIZON_ENVS))
def test_criteria_terms_are_the_exact_family_terms(name):
    # n = 2000 takes 2^-n past 1074 and 1075, where it turns subnormal and 0;
    # the exact terms of generation i, run in 30-digit mpmath, at every
    # i <= 20 and at 1070..1080 and 2000
    env = _DEFAULT_HORIZON_ENVS[name]
    n = 2000
    gap, log_mu, lg_defect, lg_var, c8 = env._criteria_terms(n)
    m = named_arity(env)
    at = {*range(1, 21), *range(1070, 1081), n}
    with mpmath.workdps(30):
        defect, mu = mp_defect(env), mpmath.mpf(1)
        for i in range(1, n + 1):
            d = defect(i)
            if i in at:
                want = (
                    mpmath.log(d) if m == 1 else 0.0,
                    mpmath.log(m * mu * (1 - d)),
                    mpmath.log(d * mu),
                    mpmath.log((m - 1) / (m * mu * (1 - d))) if m > 1 else 0.0,
                )
                got = (gap[i - 1], log_mu[i - 1], lg_defect[i - 1], lg_var[i - 1] if m > 1 else 0.0)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (i, got, want)
            mu *= m * (1 - d)
    if m == 1:
        assert lg_var.tolist() == [-math.inf] * n  # f''(1) = 0
    assert c8.tolist() == [float(m > 1)] * n


class _Untagged(NamedFamily):
    """A named family without its tags: every verdict reads "inconclusive"."""

    @property
    def series_meta(self) -> dict[str, str]:
        return {}


@pytest.mark.parametrize("family, slope", [("example-2a", -1.0), ("example-2b", -2.0)])
def test_untagged_defect_series_reads_the_deep_terms(family, slope):
    # d_i mu_{i-1} = Prod_{j<i} (1 - d_j) / (2 i^k), k = 1 and 2: with the
    # linear d_i, which underflows past i = 1074, the partials of example-2a
    # stalled at 1.8664282973992037 and the slope fit found no finite term;
    # the evidence is reported, and no verdict is read off it
    got = {v.criterion: v for v in criteria_verdicts(_Untagged(family))}["defect_mean_series"]
    assert not got.analytic
    assert got.verdict == INCONCLUSIVE
    assert got.slope == pytest.approx(slope, abs=1e-9)
    assert got.partials[-1] > got.partials[-2]


def test_defect_series_reads_the_clipped_defect():
    # proper up to float dust: 1 - mass is 1.1e-16, the law's defect 0.0
    law = FiniteSupport([0.4933539714095708, 0.012292057180858407, 0.4943539714095707])
    assert law.defect == 0.0 and law.mass < 1.0
    got = {v.criterion: v for v in criteria_verdicts(Constant(law))}["defect_mean_series"]
    assert got.verdict == CONVERGES
    assert set(got.partials) == {0.0}


@pytest.mark.parametrize("a", [0.1, 0.5])
@pytest.mark.parametrize("b", [0.5, 0.9, 1, 1.1, 1.2, 1.5, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_defect_verdicts_are_the_closed_forms(m, b, a):
    # d_n = a n^-b, f_n(s) = (1 - d_n) s^m: sum d_n < inf iff b > 1, and
    # mu_n = m^n Prod_{j<=n} (1 - d_j); the variance terms are (m - 1) / mu_n
    out = criteria_verdicts(NamedFamily("power-defect", {"a": a, "b": b, "arity": m}))
    want = {
        "one_child_gap": m == 1 and b > 1,
        "mean_product_infimum": m >= 2 or b > 1,
        "defect_mean_series": m == 1,
        "var_mean_series": True,
        "tail_ratio_sup": True,
    }
    assert {v.criterion: v.verdict for v in out} == {
        k: CONVERGES if holds else DIVERGES for k, holds in want.items()
    }
    assert all(v.analytic for v in out)


def _on_012(mean: float, defect: float) -> FiniteSupport:
    """The law on {0, 1, 2} with f[1] = 0.1, this float mean and defect."""
    w2 = (mean - 0.1) / 2
    law = FiniteSupport([1.0 - defect - 0.1 - w2, 0.1, w2])
    assert law.mean == mean and law.defect == pytest.approx(defect, abs=1e-15)
    return law


_HEAD = (LinearFractional(0.2, 0.3, 0.4), FiniteSupport([0.1, 0.0, 0.0, 0.9]), FiniteSupport([0.6, 0.3]))
_DUST = FiniteSupport([0.4933539714095708, 0.012292057180858407, 0.4943539714095707])

# (tail law, verdicts in CRITERIA order) of each repeated tail, by hand:
# the gap series adds 1 - f[1] each generation; the mean products sink to
# 0 iff f'(1) < 1; with a defect the defect series is geometric iff
# f'(1) < 1; with f''(1) > 0 the variance series is geometric iff f'(1) > 1
_TAIL_VERDICTS = {
    "mean-1-1e-3": (_on_012(1 - 1e-3, 0.0), (_D, _D, _C, _D, _C)),
    "mean-1-1e-5": (_on_012(1 - 1e-5, 0.0), (_D, _D, _C, _D, _C)),
    "mean-1": (_on_012(1.0, 0.0), (_D, _C, _C, _D, _C)),
    "mean-1+1e-5": (_on_012(1 + 1e-5, 0.0), (_D, _C, _C, _C, _C)),
    "mean-1+1e-3": (_on_012(1 + 1e-3, 0.0), (_D, _C, _C, _C, _C)),
    "mean-1-1e-3-defect": (_on_012(1 - 1e-3, 0.05), (_D, _D, _C, _D, _C)),
    "mean-1-1e-5-defect": (_on_012(1 - 1e-5, 0.05), (_D, _D, _C, _D, _C)),
    "mean-1-defect": (_on_012(1.0, 0.05), (_D, _C, _D, _D, _C)),
    "mean-1+1e-5-defect": (_on_012(1 + 1e-5, 0.05), (_D, _C, _D, _C, _C)),
    "mean-1+1e-3-defect": (_on_012(1 + 1e-3, 0.05), (_D, _C, _D, _C, _C)),
    # the slope fit read the defect series of this law "diverges" and its
    # infimum "inconclusive" at the default horizons: the series is
    # geometric, with sum about 10^4, and the infimum is 0
    "mean-0.99999-defect-0.1": (_on_012(0.99999, 0.1), (_D, _D, _C, _D, _C)),
    "single-child": (FiniteSupport([0.0, 1.0]), (_C, _C, _C, _C, _C)),
    "lf-defect": (LinearFractional(0.1, 0.4, 0.5), (_D, _D, _C, _D, _C)),  # mean 0.8
    "lf-proper": (LinearFractional(0.0, 0.25, 0.75), (_D, _C, _C, _C, _C)),  # mean 3
    # 1 - mass is 1.1e-16 and the law's defect 0.0; mean 1.001
    "dust": (_DUST, (_D, _C, _C, _C, _C)),
}


@pytest.mark.parametrize("name", sorted(_TAIL_VERDICTS))
def test_repeated_tail_verdicts_by_rule(name):
    tail, want = _TAIL_VERDICTS[name]
    # a head, or a shift into or past it, changes no series' convergence
    prefix = Prefix(_HEAD, tail)
    for env in (Constant(tail), Constant(tail).shift(3), prefix, prefix.shift(2), prefix.shift(5)):
        out = criteria_verdicts(env, (10, 100))
        assert tuple(v.verdict for v in out) == want, env
        assert all(v.analytic for v in out), env


# a normalized environment's tail is the tail law divided by its mass
_NORMALIZED_VERDICTS = {
    "mean-1-defect": (_D, _C, _C, _C, _C),  # mean 1 / 0.95
    "mean-1-1e-5-defect": (_D, _C, _C, _C, _C),  # mean (1 - 1e-5) / 0.95
    "mean-0.99999-defect-0.1": (_D, _C, _C, _C, _C),  # mean 0.99999 / 0.9
    "lf-defect": (_D, _D, _C, _D, _C),  # mean 0.8 / 0.9
    "mean-1": (_D, _C, _C, _D, _C),  # proper: the law itself
    "single-child": (_C, _C, _C, _C, _C),
}


@pytest.mark.parametrize("name", sorted(_NORMALIZED_VERDICTS))
def test_normalized_repeated_tail_verdicts_by_rule(name):
    tail, _ = _TAIL_VERDICTS[name]
    want = _NORMALIZED_VERDICTS[name]
    for env in (Constant(tail).normalized(), Prefix(_HEAD, tail).normalized().shift(4)):
        out = criteria_verdicts(env, (10, 100))
        assert tuple(v.verdict for v in out) == want, env
        assert all(v.analytic for v in out), env


def test_unruled_environment_is_inconclusive():
    # no tags and no repeated tail: the partials are reported, no verdict
    env = Alternating(FiniteSupport([0.45, 0.0, 0.45]), LinearFractional(0.1, 0.4, 0.5))
    out = criteria_verdicts(env, (10, 100))
    assert [v.verdict for v in out] == [INCONCLUSIVE] * len(CRITERIA)
    assert not any(v.analytic for v in out)
    assert all(len(v.partials) == 2 for v in out)


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

    def test_proper_subcritical_lf_falls_back(self):
        # extinction is almost sure: rho is inf f_n(0) = q + r, not a root near 1
        br = fixed_point_bracket(Constant(LinearFractional(0.6, 0.2, 0.5)), upto=3)
        assert not br.ok
        assert br.rho == 0.8
        assert br.sigma is None
        assert np.isnan(br.theta).all()

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
        assert cm.exact == pytest.approx(4.2895462829375183, rel=1e-12)
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

        for n in (1, 2, 3, 4, 6):
            f0 = brute_compose(env_b, 0, n, 0.0)
            fh = brute_compose(env_b, 0, n, 0.5)
            f1 = brute_compose(env_b, 0, n, 1.0)
            _, _, p = fit_lf(f0, fh, f1)
            cm = conditioned_mean_bound(env_b, n)
            assert cm.exact == pytest.approx(1.0 / (1.0 - p), rel=1e-10)

    def test_cond_tail_is_relative(self, env_a):
        cm = conditioned_mean_bound(env_a, 60)
        assert cm.cond_tail == 0.0

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
