"""Monte Carlo samplers: determinism, marginals, normalized limits."""
from __future__ import annotations

import math
import threading
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import LAW_A, LAW_B, BinarySplitter
from defbranch import (
    DELTA,
    Constant,
    FiniteSupport,
    LinearFractional,
    NamedFamily,
    PreconditionError,
    absorption_profile,
    compose_coeffs,
    mode_agreement,
    moments,
    monte_carlo,
    mu_profile,
    run_path,
)
from defbranch import simulate
from defbranch.laws import _rng
from defbranch.simulate import (
    _MODE_ID,
    BLOCK,
    DEFAULT_CAP,
    Terminal,
    _offspring_counts,
    _run_block,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# the state column the earlier kernel kept beside the sizes, int8 in a block
_ACTIVE, _EXTINCT, _KILLED, _OVERFLOW = 0, 1, 2, 3

_STATE_KIND = {_ACTIVE: "alive", _EXTINCT: "extinct", _KILLED: "killed", _OVERFLOW: "overflow"}


def _states(z: np.ndarray, cap: int) -> np.ndarray:
    """The state column of paths with sizes z under cap: DELTA killed, 0
    extinct, above cap overflowed, alive otherwise."""
    state = np.full(z.shape, _ACTIVE, dtype=np.int8)
    state[z == 0] = _EXTINCT
    state[z > cap] = _OVERFLOW
    state[z == DELTA] = _KILLED
    return state


def _final(env, horizon, reps, seed, **kwargs):
    """A run with its final sizes, the horizon snapshot (all 1 at horizon 0)."""
    if horizon == 0:
        return monte_carlo(env, 0, reps, seed, **kwargs), np.ones(reps, dtype=np.int64)
    s = monte_carlo(env, horizon, reps, seed, snapshot_times=(horizon,), **kwargs)
    return s, s.snapshots[horizon]


def _bin_terminals(z: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The {killed, 0, 1..9, 10+} counts of paths, overflow in 10+."""
    idx = np.empty(z.shape, dtype=np.int64)
    idx[state == _KILLED] = 0
    small = (state != _KILLED) & (z >= 0) & (z < 10)
    idx[small] = z[small] + 1
    idx[(state != _KILLED) & (z >= 10)] = 11
    idx[state == _OVERFLOW] = 11
    return np.bincount(idx, minlength=12)[:12]


CAPPED_ENVS = {
    "law-a": Constant(LAW_A),
    "law-b": Constant(LAW_B),
    "finite-3": Constant(FiniteSupport([0.2, 0.3, 0.5])),
}


class TestDeterminism:
    def test_worker_count_is_invisible(self, env_b):
        runs = [
            monte_carlo(env_b, 5, 10_000, master_seed=42, workers=w, snapshot_times=(3, 5))
            for w in (1, 2, 4)
        ]
        base = runs[0]
        for other in runs[1:]:
            assert other.to_dict() == base.to_dict()
            assert other.snapshots.keys() == base.snapshots.keys()
            for t, col in base.snapshots.items():
                assert np.array_equal(other.snapshots[t], col)

    def test_blocks_run_on_the_calling_thread(self, env_a, monkeypatch):
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return _run_block(*args)

        monkeypatch.setattr(simulate, "_run_block", recording)
        monte_carlo(env_a, 3, 3 * BLOCK + 1, master_seed=3, workers=4)
        assert threads == [threading.get_ident()] * 4

    def test_partial_final_block(self, env_a):
        s = monte_carlo(env_a, 3, 4097, master_seed=1)
        assert s.reps == 4097
        assert s.n_extinct + s.n_killed + s.n_alive + s.n_overflow == 4097

    def test_seed_and_mode_change_results(self, env_a):
        _, a = _final(env_a, 4, 5000, 1)
        _, b = _final(env_a, 4, 5000, 2)
        _, c = _final(env_a, 4, 5000, 1, mode="coupled")
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("cap", [1, 5, 1000])
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    @pytest.mark.parametrize("env", CAPPED_ENVS.values(), ids=CAPPED_ENVS.keys())
    def test_states_follow_from_sizes_and_cap(self, env, mode, cap):
        # the rule _states applies is the earlier kernel's state column, and
        # the horizon snapshot is the blocks' sizes in block order
        reps, sizes, overflowed = 2 * BLOCK + 7, [], 0
        for b, lo in enumerate(range(0, reps, BLOCK)):
            size = min(BLOCK, reps - lo)
            z = _run_block(env, 6, mode, _rng(3, _MODE_ID[mode], b), size, cap, (), np.empty((0, size)))
            oz, state = _oracle_run_block(env, 6, mode, 3, b, size, cap, {})
            assert np.array_equal(z, oz)
            assert np.array_equal(_states(z, cap), state)
            sizes.append(z)
            overflowed += int((state == _OVERFLOW).sum())
        assert np.array_equal(_final(env, 6, reps, 3, mode=mode, cap=cap)[1], np.concatenate(sizes))
        if cap < 1000:
            assert overflowed > 0

    def test_run_path_reproducible(self, env_b):
        p1 = run_path(env_b, 12, seed=7)
        p2 = run_path(env_b, 12, seed=7)
        assert np.array_equal(p1.sizes, p2.sizes)
        assert p1.terminal == p2.terminal
        assert p1.sizes.shape == (13,)

    def test_run_path_terminal_consistency(self, env_a):
        for seed in range(30):
            p = run_path(env_a, 8, seed=seed)
            t = p.terminal
            if t.kind == "killed":
                assert np.all(p.sizes[t.time :] == DELTA)
            elif t.kind == "extinct":
                assert np.all(p.sizes[t.time :] == 0)
            else:
                assert t.kind == "alive"
                assert p.sizes[-1] == t.value >= 1

    def test_run_path_follows_block_stream(self, env_a, env_b):
        # on the stream of block 0, a path ends where a one-path block does
        for env in (env_a, env_b):
            for mode in ("direct", "coupled"):
                for seed in range(20):
                    z = _run_block(env, 12, mode, _rng(seed, _MODE_ID[mode], 0), 1, DEFAULT_CAP, (), np.empty((0, 1)))
                    seq = np.random.SeedSequence([seed, _MODE_ID[mode], 0])
                    p = run_path(env, 12, np.random.Generator(np.random.Philox(seq)), mode=mode)
                    assert p.sizes[-1] == z[0]
                    assert p.terminal.kind == _STATE_KIND[int(_states(z, DEFAULT_CAP)[0])]

    @pytest.mark.parametrize("cap", [3, DEFAULT_CAP])
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_run_path_matches_the_earlier_loop(self, mode, cap):
        # the same sizes and terminal, and the generator left where the
        # earlier loop left it: a stopped path draws nothing more
        cases = [(Constant(LAW_A), 8), (Constant(LAW_A), 1), (Constant(LAW_B), 6),
                 (Constant(LAW_B), 0), (Constant(FiniteSupport([0.0, 0.0, 1.0])), 25)]
        kinds = set()
        for env, horizon in cases:
            for seed in range(12):
                rng, orng = _rng(seed), _rng(seed)
                p = run_path(env, horizon, rng, mode=mode, cap=cap)
                o = _oracle_run_path(env, horizon, orng, mode, cap)
                assert p.sizes.dtype == o.sizes.dtype
                assert np.array_equal(p.sizes, o.sizes)
                assert p.terminal == o.terminal
                # Philox's state holds small arrays, compared through their reprs
                assert repr(rng.bit_generator.state) == repr(orng.bit_generator.state)
                kinds.add(p.terminal.kind)
        assert kinds == {"alive", "extinct", "killed", "overflow"}

    def test_validation(self, env_a):
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 0)
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, mode="sideways")
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, snapshot_times=(5,))
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, snapshot_times=(0,))

    @pytest.mark.parametrize("t", [1.5, 2.000001, float("nan"), "3", True])
    def test_non_integral_snapshot_time(self, env_a, t):
        with pytest.raises(PreconditionError, match=f"^snapshot_times must be an integer, got {t!r}$"):
            monte_carlo(env_a, 3, 10, snapshot_times=(2, t))

    def test_integral_float_snapshot_time(self, env_a):
        # 3.0 is an integer, as it is to the CLI
        s = monte_carlo(env_a, 3, 10, 1, snapshot_times=(3.0,))
        assert list(s.snapshots) == [3]
        assert np.array_equal(s.snapshots[3], _final(env_a, 3, 10, 1)[1])

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one(self, env_a, cap):
        # a cap of 0 or less would count every path alive as overflowed
        with pytest.raises(PreconditionError, match="need cap >= 1"):
            monte_carlo(env_a, 3, 10, cap=cap)
        with pytest.raises(PreconditionError, match="need cap >= 1"):
            mode_agreement(env_a, 3, 10, cap=cap)
        assert monte_carlo(env_a, 3, 10, cap=1).n_overflow >= 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"horizon": -1}, "need horizon >= 0, got horizon=-1"),
        ({"horizon": 3.5}, "horizon must be an integer, got 3.5"),
        ({"horizon": "3"}, "horizon must be an integer, got '3'"),
        ({"horizon": 5, "cap": 0}, "need cap >= 1, got cap=0"),
        ({"horizon": 5, "cap": -1}, "need cap >= 1, got cap=-1"),
        ({"horizon": 5, "cap": 2.5}, "cap must be an integer, got 2.5"),
        ({"horizon": 5, "mode": "sideways"}, "unknown mode 'sideways'"),
    ])
    def test_run_path_checks_what_monte_carlo_checks(self, env_a, kwargs, message):
        for run in (lambda: run_path(env_a, seed=1, **kwargs),
                    lambda: monte_carlo(env_a, reps=10, **kwargs)):
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                run()

    @pytest.mark.parametrize("reps", [10.5, float("nan"), True])
    def test_non_integral_reps(self, env_a, reps):
        for run in (monte_carlo, mode_agreement):
            with pytest.raises(PreconditionError, match=f"^reps must be an integer, got {reps!r}$"):
                run(env_a, 3, reps)

    def test_numpy_and_integral_float_arguments(self, env_a):
        # a numpy integer or an integral float counts as the int it equals
        s = monte_carlo(env_a, 3, 10, 1, cap=50)
        assert monte_carlo(env_a, np.int64(3), np.int64(10), 1, cap=np.int64(50)).to_dict() == s.to_dict()
        assert monte_carlo(env_a, 3.0, 10.0, 1, cap=50.0).to_dict() == s.to_dict()
        r = mode_agreement(env_a, 3, 1000, 1)
        assert mode_agreement(env_a, np.int64(3), np.int64(1000), 1).to_dict() == r.to_dict()
        p = run_path(env_a, 8, seed=4)
        q = run_path(env_a, np.int64(8), seed=4, cap=float(DEFAULT_CAP))
        assert np.array_equal(p.sizes, q.sizes) and p.terminal == q.terminal


class TestMarginals:
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_one_step_law_a(self, env_a, mode):
        scipy_stats = pytest.importorskip("scipy.stats")
        s, z = _final(env_a, 1, 100_000, 9, mode=mode)
        state = _states(z, s.cap)
        counts = [(state == _KILLED).sum(), (state == _EXTINCT).sum(), (z == 2).sum()]
        expect = np.array([0.1, 0.45, 0.45]) * s.reps
        assert sum(counts) == s.reps
        res = scipy_stats.chisquare(counts, expect)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_one_step_law_b(self, env_b, law_b, mode):
        scipy_stats = pytest.importorskip("scipy.stats")
        s, z = _final(env_b, 1, 100_000, 10, mode=mode)
        probs = [0.1] + [law_b.weight(k) for k in range(12)]
        probs.append(1.0 - sum(probs))
        counts = [(z == DELTA).sum()]
        counts += [((z == k)).sum() for k in range(12)]
        counts.append((z >= 12).sum())
        res = scipy_stats.chisquare(counts, np.array(probs) * s.reps)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_three_step_law_a(self, env_a, mode):
        scipy_stats = pytest.importorskip("scipy.stats")
        s, z = _final(env_a, 3, 100_000, 11, mode=mode)
        dv = compose_coeffs(env_a, 3, degree=8)
        probs = [dv.delta_mass] + [dv.probs[k] for k in range(9)]
        counts = [(z == DELTA).sum()] + [(z == k).sum() for k in range(9)]
        keep = [i for i, p in enumerate(probs) if p > 0]
        # impossible outcomes must not occur at all
        for i, p in enumerate(probs):
            if p == 0.0:
                assert counts[i] == 0
        res = scipy_stats.chisquare(
            [counts[i] for i in keep], np.array([probs[i] for i in keep]) * s.reps
        )
        assert res.pvalue > 1e-3

    def test_absorption_agreement(self, env_a):
        exact = absorption_profile(env_a, 3)
        s = monte_carlo(env_a, 3, 100_000, master_seed=12)
        assert abs(s.p_survival - exact.survival) <= 4 * s.p_survival_se
        assert abs(s.p_extinct - exact.p_extinct) <= 4 * s.p_extinct_se
        assert abs(s.p_killed - exact.p_killed) <= 4 * s.p_killed_se

    def test_alive_hist_matches_paths(self, env_a):
        s, z = _final(env_a, 2, 20_000, 13)
        assert s.alive_hist[2] == int((z == 2).sum())
        assert s.alive_hist[4] == int((z == 4).sum())
        assert s.alive_hist_tail == 0

    def test_horizon_zero(self, env_a):
        s = monte_carlo(env_a, 0, 100, master_seed=1)
        assert s.n_alive == 100
        assert s.p_survival == 1.0


class TestNormalizedSizes:
    def test_w_mean_matches_exact_mean_ratio(self, env_a):
        # killing drags E[W] below one; the exact value is E[Z_n] / mu_n
        s = monte_carlo(env_a, 10, 200_000, master_seed=21)
        expected = math.exp(moments(env_a, 10).log_mean - s.log_mu)
        assert expected < 0.05
        assert abs(s.w_mean - expected) <= 5 * s.w_se

    def test_binary_doubler_w_degenerates(self, env_2b):
        # arity-2, no extinction: every surviving path holds exactly 2^n
        s, z = _final(env_2b, 22, 20_000, 22)
        assert s.n_overflow == 0
        assert s.n_extinct == 0
        alive = z[z >= 1]
        assert alive.size == s.n_alive > 0
        assert np.unique(alive).tolist() == [2**22]
        exact = absorption_profile(env_2b, 22)
        assert abs(s.p_survival - exact.survival) <= 5 * s.p_survival_se
        expected_w = math.exp(moments(env_2b, 22).log_mean - s.log_mu)
        assert abs(s.w_mean - expected_w) <= 5 * s.w_se

    def test_overflow_paths_are_set_aside(self, env_2b):
        s = monte_carlo(env_2b, 25, 5_000, master_seed=23, cap=10**7)
        # 2^24 > cap: every path still alive at generation 24 overflows
        assert s.n_overflow > 0
        assert s.n_alive == 0
        assert s.p_killed == 1.0  # conditional on not overflowing
        assert s.w_mean == 0.0
        assert s.n_overflow + s.n_killed == s.reps

    def test_every_path_overflowing_leaves_no_estimate(self):
        # two children each: 2 > cap = 1 at the first generation
        s = monte_carlo(Constant(FiniteSupport([0.0, 0.0, 1.0])), 3, 100, 1, cap=1)
        assert s.n_overflow == 100
        for x in (s.w_mean, s.w_var, s.w_se, s.p_survival):
            assert math.isnan(x)

    def test_dead_paths_have_w_zero_past_exp_overflow(self, env_a):
        # the mean product is below e^-709 here, so exp(-log_mu) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = monte_carlo(env_a, 7000, 4096, 1)
        assert s.log_mu < -709
        assert s.n_alive == 0
        assert s.w_mean == s.w_var == s.w_se == 0.0
        assert math.isnan(s.mean_alive) and math.isnan(s.mean_alive_se)

    @pytest.mark.parametrize("env, reps", [
        (Constant(LAW_A), 50),
        (Constant(FiniteSupport([0.0, 0.0, 1.0])), 1),
    ], ids=["some-alive", "one-path"])
    def test_w_past_exp_overflow_with_alive_paths(self, env, reps, monkeypatch):
        # exp(-log_mu) is inf: the values the array formula W = Z_n exp(-log_mu)
        # gives, with numpy's overflow warning (math.exp would raise)
        monkeypatch.setattr(simulate, "mu_profile", lambda env, n: SimpleNamespace(log_mu=-800.0))
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            s, z = _final(env, 1, reps, 5)
        assert s.n_alive > 0
        with np.errstate(all="ignore"):
            w = np.maximum(z, 0.0)
            w[w > 0] *= np.exp(800.0)
            var = float(w.var(ddof=1)) if w.size > 1 else 0.0
            expected = (float(w.mean()), var, float(np.sqrt(var / w.size)))
        assert repr((s.w_mean, s.w_var, s.w_se)) == repr(expected)

    def test_martingale_correlation_across_horizons(self):
        env = BinarySplitter()
        s = monte_carlo(
            env,
            40,
            8_192,
            master_seed=24,
            cap=10**12,
            snapshot_times=(20, 40),
        )
        assert s.n_overflow == 0
        w20 = np.maximum(s.snapshots[20], 0) / math.exp(mu_profile(env, 20).log_mu)
        w40 = np.maximum(s.snapshots[40], 0) / math.exp(s.log_mu)
        corr = np.corrcoef(w20, w40)[0, 1]
        assert corr > 0.9
        assert abs(s.w_mean - 1.0) <= 5 * s.w_se
        # this proper supercritical family keeps real mass alive
        assert s.p_survival > 0.5

    def test_snapshots_freeze_absorbed_paths(self, env_a):
        s = monte_carlo(env_a, 6, 5_000, master_seed=25, snapshot_times=(3, 6))
        snap6 = s.snapshots[6]
        # the horizon snapshot holds the final sizes the counts were taken of
        state = _states(snap6, s.cap)
        assert [(state == k).sum() for k in (_ACTIVE, _EXTINCT, _KILLED, _OVERFLOW)] == [
            s.n_alive, s.n_extinct, s.n_killed, s.n_overflow]
        killed_now = snap6 == DELTA
        snap3 = s.snapshots[3]
        # anyone killed by 3 is still killed at 6
        assert np.all(snap6[snap3 == DELTA] == DELTA)
        assert killed_now.sum() >= (snap3 == DELTA).sum()


def _within_ulps(got: float, exact: Fraction, ulps: int = 2) -> bool:
    return abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(got))


def _sqrt_within_ulps(got: float, square: Fraction, ulps: int = 2) -> bool:
    # got is within ulps of sqrt(square), checked on squares, in Fractions
    slack = ulps * Fraction(math.ulp(got))
    return max(Fraction(got) - slack, 0) ** 2 <= square <= (Fraction(got) + slack) ** 2


def _exact_moments(values: np.ndarray, scale: Fraction = Fraction(1)) -> tuple[Fraction, ...]:
    """Mean, variance (ddof=1) and variance / n of the values times scale,
    as Fractions, summed as deviations from the mean over distinct values."""
    distinct, counts = np.unique(values, return_counts=True)
    pairs = [(Fraction(int(x)) * scale, int(c)) for x, c in zip(distinct, counts)]
    n = values.size
    mean = sum(x * c for x, c in pairs) / n
    var = sum(c * (x - mean) ** 2 for x, c in pairs) / (n - 1)
    return mean, var, var / n


class TestExactMoments:
    @pytest.mark.parametrize("env, horizon, reps, cap", [
        (Constant(LAW_A), 6, 3 * BLOCK + 5, DEFAULT_CAP),
        (Constant(LAW_B), 5, 2 * BLOCK, DEFAULT_CAP),
        (Constant(FiniteSupport([0.2, 0.3, 0.5])), 12, BLOCK, 1000),  # some paths overflow
        # sizes past 2**32, so their squares pass int64
        (Constant(FiniteSupport([0.1, 0, 0, 0, 0, 0, 0, 0, 0.9])), 12, 300, 10**12),
    ], ids=["law-a", "law-b", "capped", "past-2-32"])
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_moments_are_exact_ones_rounded(self, env, horizon, reps, cap, mode, seed):
        s, z = _final(env, horizon, reps, seed, mode=mode, cap=cap)
        state = _states(z, cap)
        if cap == 10**12:
            assert z.max() > 2**32
        alive = z[state == _ACTIVE]
        assert alive.size > 1
        mean, var, var_n = _exact_moments(alive)
        assert _within_ulps(s.mean_alive, mean)
        assert _sqrt_within_ulps(s.mean_alive_se, var_n)
        e = Fraction(float(np.exp(-s.log_mu)))
        mean, var, var_n = _exact_moments(np.maximum(z[state != _OVERFLOW], 0), e)
        assert _within_ulps(s.w_mean, mean)
        assert _within_ulps(s.w_var, var)
        assert _sqrt_within_ulps(s.w_se, var_n)
        kept = repr(s.to_dict())
        assert repr(monte_carlo(env, horizon, reps, seed, mode=mode, cap=cap).to_dict()) == kept

    def test_one_path_has_no_spread(self):
        s = monte_carlo(Constant(FiniteSupport([0.0, 0.0, 1.0])), 3, 1, 1)
        assert (s.mean_alive, s.mean_alive_se) == (8.0, 0.0)
        assert s.w_var == s.w_se == 0.0

    def test_coupled_mode_normalizes_each_law_once(self, monkeypatch):
        law, seen = FiniteSupport([0.45, 0.0, 0.45]), []

        def spy(rng, z, lw):
            seen.append(lw)
            return _offspring_counts(rng, z, lw)

        monkeypatch.setattr(simulate, "_offspring_counts", spy)
        monte_carlo(Constant(law), 5, 2 * BLOCK, 1, mode="coupled")
        assert seen and all(lw is law.normalize() for lw in seen)


class TestModeAgreement:
    def test_small_horizons_agree(self, env_a):
        rep = mode_agreement(env_a, 3, 20_000, master_seed=31)
        assert rep.passed
        assert not rep.degenerate
        assert rep.tv <= rep.threshold
        assert len(rep.bins) == 12
        assert rep.counts_direct.sum() == rep.reps
        assert rep.counts_coupled.sum() == rep.reps

    def test_lf_horizon(self, env_b):
        rep = mode_agreement(env_b, 3, 20_000, master_seed=32)
        assert rep.passed

    def test_degenerate_single_bin(self):
        env = Constant(FiniteSupport([0.0, 1.0]))
        rep = mode_agreement(env, 5, 1_000, master_seed=33)
        assert rep.degenerate
        assert rep.passed
        assert rep.tv == 0.0
        assert rep.dof == 0

    @pytest.mark.parametrize("horizon", [0, 4])
    @pytest.mark.parametrize("cap", [1, 5, 10**7])
    @pytest.mark.parametrize("env", CAPPED_ENVS.values(), ids=CAPPED_ENVS.keys())
    def test_bins_match_the_paths(self, env, cap, horizon):
        # the bins read from the reduced counts are those of the final sizes
        for seed in (1, 2, 3):
            rep = mode_agreement(env, horizon, 3000, seed, cap=cap)
            for mode, counts in (("direct", rep.counts_direct), ("coupled", rep.counts_coupled)):
                _, z = _final(env, horizon, 3000, seed, mode=mode, cap=cap)
                expected = _bin_terminals(z, _states(z, cap))
                assert counts.dtype == expected.dtype
                assert np.array_equal(counts, expected)

    def test_small_overflow_lands_in_10_plus(self):
        # one run of test_bins_match_the_paths: paths pass cap = 5 below 10
        env, cap = CAPPED_ENVS["finite-3"], 5
        _, z = _final(env, 4, 3000, 1, cap=cap)
        small = (_states(z, cap) == _OVERFLOW) & (z < 10)
        assert small.any()
        counts = mode_agreement(env, 4, 3000, 1, cap=cap).counts_direct
        assert counts[11] == int((z >= 10).sum() + small.sum())

    def test_workers_do_not_change_report(self, env_a):
        r1 = mode_agreement(env_a, 2, 10_000, master_seed=34, workers=1)
        r4 = mode_agreement(env_a, 2, 10_000, master_seed=34, workers=4)
        assert r1.to_dict() == r4.to_dict()


@pytest.mark.parametrize("env, reps, kwargs", [
    (Constant(LAW_A), 200_000, {}),
    (Constant(LAW_A), 1_000_000, {}),
    (Constant(LAW_B), 100_000, {"mode": "coupled", "snapshot_times": (5, 10)}),
    (Constant(LAW_B), 400_000, {"mode": "coupled", "snapshot_times": (5, 10)}),
], ids=["law-a", "law-a-1e6", "law-b-coupled-snapshots", "law-b-coupled-snapshots-4e5"])
def test_monte_carlo_memory_peak(env, reps, kwargs):
    # blocks are reduced as they return: a run holds one size per replicate
    # per snapshot time and nothing else per replicate, so past the snapshot
    # columns the peak is a block's working arrays, the same at any reps
    monte_carlo(env, 20, 5_000, 1, **kwargs)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        monte_carlo(env, 20, reps, 7, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(kwargs.get("snapshot_times", ()))
    assert peak <= 8 * k * reps + 2**20


@pytest.mark.parametrize("reps", [200_000, 1_000_000], ids=["2e5", "1e6"])
def test_mode_agreement_memory_peak(reps):
    # both samplers' bins are read from the reduced block counts, so the
    # peak is a block's working arrays, the same at any reps
    env = Constant(LAW_B)
    mode_agreement(env, 4, 5_000, 1)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        mode_agreement(env, 4, reps, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("mode", ["direct", "coupled"])
def test_named_family_kills_at_its_exact_defect(mode):
    # example-2a's weights round to 1.0 past n = 48, but the 2**(n-1)
    # individuals of generation n - 1 are killed with chance d_n = 2**-n / n
    # each: of the paths alive at 45, 1 - prod_{n=46..62} (1 - d_n)**(2**(n-1))
    # are killed by 62 (40-digit mpmath)
    exact = 0.14676680454667532
    s = monte_carlo(NamedFamily("example-2a"), 62, 10**5, 1, cap=2**62,
                    snapshot_times=(45, 62), mode=mode)
    alive = s.snapshots[45] > 0
    n = int(alive.sum())
    killed = int(np.count_nonzero(s.snapshots[62][alive] == DELTA))
    assert n > 5000 and s.n_overflow == 0
    assert abs(killed / n - exact) <= 5 * math.sqrt(exact * (1 - exact) / n)


def test_run_path_memory_peak():
    # a path that stops early fills the generations left in one step: the
    # peak is its sizes and a few masks over them, not a view per generation
    env, horizon = Constant(LAW_A), 10**5
    run_path(env, 100, seed=1)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        p = run_path(env, horizon, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.terminal.time < 100
    assert peak <= 2**21


# ---------------------------------------------------------------------------
# the block kernel against the one it replaced
# ---------------------------------------------------------------------------

def _oracle_offspring_counts(rng, z, law):
    """The earlier kernel's offspring draw, kept verbatim: the same draws
    in the same order, each step in fresh arrays."""
    killed = np.zeros(z.shape, dtype=bool)
    rem = z
    if law.defect > 0.0:
        c_kill = rng.binomial(z, law.defect)
        killed = c_kill > 0
        rem = z - c_kill
    if isinstance(law, FiniteSupport):
        w = law.weights
        support = np.flatnonzero(w)
        total = np.zeros(z.shape, dtype=np.int64)
        rem_mass = law.mass
        for j, k in enumerate(support):
            if j == len(support) - 1:
                c = rem
            else:
                c = rng.binomial(rem, min(1.0, w[k] / rem_mass))
                rem = rem - c
                rem_mass -= w[k]
            if k:
                total += k * c
        return total, killed
    if isinstance(law, LinearFractional):
        p_zero = min(1.0, (law.q + law.r) / law.mass)
        c_zero = rng.binomial(rem, p_zero)
        m = rem - c_zero
        total = m.astype(np.int64).copy()
        pos = m > 0
        if np.any(pos):
            total[pos] += rng.negative_binomial(m[pos], 1.0 - law.p)
        return total, killed
    raise TypeError(type(law).__name__)


def _oracle_advance(rng, env, n, mode, z, state, cap):
    """The earlier kernel's generation step, kept verbatim."""
    act = np.flatnonzero(state == _ACTIVE)
    if act.size:
        law = env.law(n)
        za = z[act]
        if mode == "coupled":
            kill_p = 1.0 - np.power(law.mass, za.astype(np.float64))
            killed = rng.random(act.size) < kill_p
            sums, _ = _oracle_offspring_counts(rng, za, law.normalize())
        else:
            sums, killed = _oracle_offspring_counts(rng, za, law)
        z[act] = sums
        state[act[sums == 0]] = _EXTINCT
        over = act[sums > cap]
        state[over] = _OVERFLOW
        kidx = act[killed]
        state[kidx] = _KILLED
        z[kidx] = DELTA


def _oracle_run_block(env, horizon, mode, master_seed, block_index, size, cap, snapshots):
    """The earlier kernel's block, kept verbatim: sizes and states."""
    rng = _rng(master_seed, _MODE_ID[mode], block_index)
    z = np.ones(size, dtype=np.int64)
    state = np.zeros(size, dtype=np.int8)
    for n in range(1, horizon + 1):
        _oracle_advance(rng, env, n, mode, z, state, cap)
        if n in snapshots:
            snapshots[n][:] = z
    return z, state


def _oracle_run_path(env, horizon, rng, mode, cap):
    """The earlier run_path's own generation loop, kept verbatim."""
    z = np.ones(1, dtype=np.int64)
    state = np.zeros(1, dtype=np.int8)
    sizes = np.empty(horizon + 1, dtype=np.int64)
    sizes[0] = 1
    for n in range(1, horizon + 1):
        _oracle_advance(rng, env, n, mode, z, state, cap)
        if state[0] != _ACTIVE:
            sizes[n:] = z[0]  # DELTA once killed, 0 once extinct, frozen on overflow
            terminal = Terminal(_STATE_KIND[int(state[0])], n, int(z[0]))
            break
        sizes[n] = z[0]
    else:
        terminal = Terminal("alive", horizon, int(z[0]))
    return SimpleNamespace(sizes=sizes, terminal=terminal)


KERNEL_LAWS = {
    "law-a": LAW_A,
    "law-b": LAW_B,
    "finite-4": FiniteSupport([0.2, 0.3, 0.25, 0.15]),
    "proper-finite": FiniteSupport([0.3, 0.3, 0.4]),
    "proper-lf": LinearFractional(0.5, 0.2, 0.6),
}


class TestBlockKernel:
    @pytest.mark.parametrize("size", [1, 7, BLOCK])
    @pytest.mark.parametrize("cap", [1, 5, 10**7])
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    @pytest.mark.parametrize("law", KERNEL_LAWS.values(), ids=KERNEL_LAWS.keys())
    def test_same_bits_as_the_earlier_kernel(self, law, mode, cap, size):
        # the same stream gives the same block: the width is the only change
        env, horizon = Constant(law), 8
        out = np.empty((2, size), dtype=np.int64)
        cols = dict(zip((2, 8), out))
        ocols = {t: np.empty(size, dtype=np.int64) for t in (2, 8)}
        z = _run_block(env, horizon, mode, _rng(3, _MODE_ID[mode], 2), size, cap, (2, 8), out)
        oz, ostate = _oracle_run_block(env, horizon, mode, 3, 2, size, cap, ocols)
        assert z.dtype == oz.dtype
        assert np.array_equal(z, oz)
        assert np.array_equal(_states(z, cap), ostate)
        for t in cols:
            assert np.array_equal(cols[t], ocols[t])

    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_killed_and_overflowed_in_one_step_ends_killed(self, mode):
        env, cap = Constant(LAW_A), 5
        z = np.full(BLOCK, 5, dtype=np.int64)
        oz, ostate = z.copy(), np.zeros(BLOCK, dtype=np.int8)
        _oracle_advance(_rng(1, 2, 0), env, 1, mode, oz, ostate, cap)
        # the oracle's draws on the same stream show which paths did both
        rng = _rng(1, 2, 0)
        if mode == "coupled":
            killed = rng.random(BLOCK) < 1.0 - np.power(LAW_A.mass, z.astype(np.float64))
            sums, _ = _oracle_offspring_counts(rng, z.copy(), LAW_A.normalize())
        else:
            sums, killed = _oracle_offspring_counts(rng, z.copy(), LAW_A)
        both = killed & (sums > cap)
        assert both.any()
        simulate._advance(_rng(1, 2, 0), env, 1, mode, z, cap)
        assert np.all(z[both] == DELTA)
        assert np.array_equal(z, oz) and np.array_equal(_states(z, cap), ostate)


@pytest.mark.parametrize("mode", ["direct", "coupled"])
@pytest.mark.parametrize("law", KERNEL_LAWS.values(), ids=KERNEL_LAWS.keys())
def test_block_working_memory_peak(law, mode):
    # a block's working arrays fit in 1 MiB for every law and mode
    env = Constant(law)
    monte_carlo(env, 20, 5_000, 1, mode=mode)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        monte_carlo(env, 20, 2 * BLOCK, 7, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
