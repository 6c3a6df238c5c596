"""Monte Carlo samplers: determinism, marginals, normalized limits."""
from __future__ import annotations

import math
import threading
import warnings

import numpy as np
import pytest

from conftest import BinarySplitter
from defbranch import (
    DELTA,
    Constant,
    FiniteSupport,
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
from defbranch.simulate import BLOCK, DEFAULT_CAP, _MODE_ID, _STATE_KIND, _run_block

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _states_from_sizes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """killed / extinct / alive masks, assuming no overflow happened."""
    return z == DELTA, z == 0, z >= 1


class TestDeterminism:
    def test_worker_count_is_invisible(self, env_b):
        runs = [
            monte_carlo(env_b, 5, 10_000, master_seed=42, workers=w, keep_paths=True)
            for w in (1, 2, 4)
        ]
        base = runs[0]
        for other in runs[1:]:
            assert other.to_dict() == base.to_dict()
            assert np.array_equal(other.final_sizes, base.final_sizes)
            assert np.array_equal(other.final_states, base.final_states)

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
        a = monte_carlo(env_a, 4, 5000, master_seed=1, keep_paths=True)
        b = monte_carlo(env_a, 4, 5000, master_seed=2, keep_paths=True)
        c = monte_carlo(env_a, 4, 5000, master_seed=1, mode="coupled", keep_paths=True)
        assert not np.array_equal(a.final_sizes, b.final_sizes)
        assert not np.array_equal(a.final_sizes, c.final_sizes)

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
                    z, state, _ = _run_block(env, 12, mode, seed, 0, 1, DEFAULT_CAP, ())
                    seq = np.random.SeedSequence([seed, _MODE_ID[mode], 0])
                    p = run_path(env, 12, np.random.Generator(np.random.Philox(seq)), mode=mode)
                    assert p.sizes[-1] == z[0]
                    assert p.terminal.kind == _STATE_KIND[int(state[0])]

    def test_validation(self, env_a):
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 0)
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, mode="sideways")
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, snapshot_times=(5,))
        with pytest.raises(PreconditionError):
            monte_carlo(env_a, 3, 10, snapshot_times=(0,))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one(self, env_a, cap):
        # a cap of 0 or less would count every path alive as overflowed
        with pytest.raises(PreconditionError, match="need cap >= 1"):
            monte_carlo(env_a, 3, 10, cap=cap)
        with pytest.raises(PreconditionError, match="need cap >= 1"):
            mode_agreement(env_a, 3, 10, cap=cap)
        assert monte_carlo(env_a, 3, 10, cap=1).n_overflow >= 0


class TestMarginals:
    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_one_step_law_a(self, env_a, mode):
        scipy_stats = pytest.importorskip("scipy.stats")
        s = monte_carlo(env_a, 1, 100_000, master_seed=9, mode=mode, keep_paths=True)
        killed, extinct, alive = _states_from_sizes(s.final_sizes)
        counts = [killed.sum(), extinct.sum(), (s.final_sizes == 2).sum()]
        expect = np.array([0.1, 0.45, 0.45]) * s.reps
        assert sum(counts) == s.reps
        res = scipy_stats.chisquare(counts, expect)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("mode", ["direct", "coupled"])
    def test_one_step_law_b(self, env_b, law_b, mode):
        scipy_stats = pytest.importorskip("scipy.stats")
        s = monte_carlo(env_b, 1, 100_000, master_seed=10, mode=mode, keep_paths=True)
        z = s.final_sizes
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
        s = monte_carlo(env_a, 3, 100_000, master_seed=11, mode=mode, keep_paths=True)
        dv = compose_coeffs(env_a, 3, degree=8)
        z = s.final_sizes
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
        s = monte_carlo(env_a, 2, 20_000, master_seed=13, keep_paths=True)
        z = s.final_sizes
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
        s = monte_carlo(env_2b, 22, 20_000, master_seed=22, keep_paths=True)
        assert s.n_overflow == 0
        assert s.n_extinct == 0
        alive = s.final_sizes[s.final_sizes >= 1]
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

    def test_martingale_correlation_across_horizons(self):
        env = BinarySplitter()
        s = monte_carlo(
            env,
            40,
            8_192,
            master_seed=24,
            cap=10**12,
            snapshot_times=(20,),
            keep_paths=True,
        )
        assert s.n_overflow == 0
        w20 = np.maximum(s.snapshots[20], 0) / math.exp(mu_profile(env, 20).log_mu)
        w40 = np.maximum(s.final_sizes, 0) / math.exp(s.log_mu)
        corr = np.corrcoef(w20, w40)[0, 1]
        assert corr > 0.9
        assert abs(s.w_mean - 1.0) <= 5 * s.w_se
        # this proper supercritical family keeps real mass alive
        assert s.p_survival > 0.5

    def test_snapshots_freeze_absorbed_paths(self, env_a):
        s = monte_carlo(env_a, 6, 5_000, master_seed=25, snapshot_times=(3, 6), keep_paths=True)
        snap6 = s.snapshots[6]
        assert np.array_equal(snap6, s.final_sizes)
        killed_now = s.final_sizes == DELTA
        snap3 = s.snapshots[3]
        # anyone killed by 3 is still killed at 6
        assert np.all(s.final_sizes[snap3 == DELTA] == DELTA)
        assert killed_now.sum() >= (snap3 == DELTA).sum()


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

    def test_workers_do_not_change_report(self, env_a):
        r1 = mode_agreement(env_a, 2, 10_000, master_seed=34, workers=1)
        r4 = mode_agreement(env_a, 2, 10_000, master_seed=34, workers=4)
        assert r1.to_dict() == r4.to_dict()
