"""Environment composition against brute-force recursion and dict DP."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import brute_compose, brute_dist, rand_env
from defbranch import (
    BudgetError,
    Constant,
    FiniteSupport,
    InvalidLawError,
    NamedFamily,
    Prefix,
    PreconditionError,
    absorption_scan,
    compose_coeffs,
    compose_eval,
    composed_points,
    environment_from_dict,
    mu_profile,
)


class TestNamedFamilies:
    def test_family_laws(self, env_1a, env_1b, env_2a, env_2b):
        assert env_1a.law(1).weight(1) == pytest.approx(0.5)
        assert env_1a.law(5).weight(1) == pytest.approx(0.8)
        assert env_1b.law(3).weight(1) == pytest.approx(1 - 1 / 9)
        assert env_2a.law(2).weight(2) == pytest.approx(1 - 0.25 / 2)
        assert env_2b.law(3).weight(2) == pytest.approx(1 - 0.125 / 9)
        for env in (env_2a, env_2b):
            assert env.law(4).weight(0) == 0.0
            assert env.law(4).weight(1) == 0.0

    def test_power_defect_params(self):
        env = NamedFamily("power-defect", {"a": 0.5, "b": 2.0, "arity": 3})
        assert env.law(2).weight(3) == pytest.approx(1 - 0.5 / 4)
        with pytest.raises(InvalidLawError):
            NamedFamily("power-defect", {"a": 1.5, "b": 1.0})
        with pytest.raises(InvalidLawError):
            NamedFamily("no-such-family")

    @pytest.mark.parametrize("params", [
        {"a": 0.5, "b": 1.5, "arity": 2.5},
        {"a": 0.5, "b": 1.5, "arity": True},
        {"a": 0.5, "b": 1.5, "arity": "2"},
        {"a": 0.5, "b": 1.5, "arity": 0},
        {"a": "0.5", "b": 1.5},
        {"a": 0.5, "b": True},
        {"a": math.nan, "b": 1.5},
        {"a": 0.5, "b": 1.5, "zzz": 1},
        {"a": 0.5},
    ], ids=["arity-2.5", "arity-true", "arity-str", "arity-0", "a-str", "b-true", "a-nan",
            "unknown-key", "no-b"])
    def test_power_defect_rejects_what_the_config_check_rejects(self, params):
        with pytest.raises(InvalidLawError):
            NamedFamily("power-defect", params)

    def test_power_defect_integral_float_arity(self):
        env = NamedFamily("power-defect", {"a": 0.5, "b": 2, "arity": 3.0})
        assert env.law(2).weights.tobytes() == np.array([0.0, 0.0, 0.0, 1 - 0.5 / 4]).tobytes()

    def test_pickle_round_trip_after_law(self):
        import pickle

        for env in (NamedFamily("example-2a"),
                    NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": 3})):
            env.law(7)
            back = pickle.loads(pickle.dumps(env))
            assert back == env and repr(back) == repr(env)
            for n in (1, 7, 1075):
                assert back.law(n).weights.tobytes() == env.law(n).weights.tobytes()

    def test_laws_equal_validated_construction(self):
        envs = [NamedFamily(f) for f in ("example-1a", "example-1b", "example-2a", "example-2b")]
        envs += [NamedFamily("power-defect", {"a": 0.3, "b": 0.7, "arity": m}) for m in (1, 2, 5)]
        for env in envs:
            for n in (1, 2, 9, 60, 4000):
                law = env.law(n)
                ref = FiniteSupport(law.weights.tolist())
                assert law.weights.tobytes() == ref.weights.tobytes()
                for s in (0.0, 0.3, 1.0):
                    for order in (0, 1, 2):
                        assert law.pgf(s, order) == ref.pgf(s, order)
                    assert law.divided_difference(s, 0.6) == ref.divided_difference(s, 0.6)

    def test_generation_index_starts_at_one(self, env_1a):
        with pytest.raises(ValueError):
            env_1a.law(0)


class TestShiftNormalize:
    def test_shift(self, env_1a):
        sh = env_1a.shift(2)
        for n in (1, 2, 5):
            assert sh.law(n).weight(1) == env_1a.law(n + 2).weight(1)
        assert sh.shift(3).law(1).weight(1) == env_1a.law(6).weight(1)

    def test_normalized(self, env_a, law_a):
        norm = env_a.normalized()
        g = norm.law(4)
        assert g.defect == 0.0
        assert g.weight(2) == pytest.approx(0.5)
        assert law_a.defect == pytest.approx(0.1)


class TestComposition:
    def test_endpoint_is_identity(self, env_a):
        pts = composed_points(env_a, 2, 2, 0.7)
        assert pts.shape == (1,)
        assert pts[0] == 0.7

    def test_points_against_recursion(self, alt_env, env_b):
        for env in (alt_env, env_b):
            for (k, n) in ((0, 1), (0, 4), (2, 6)):
                for s in (0.0, 0.35, 1.0):
                    pts = composed_points(env, k, n, s)
                    assert pts.shape == (n - k + 1,)
                    for i in range(k, n + 1):
                        assert pts[i - k] == pytest.approx(
                            brute_compose(env, i, n, s), rel=1e-13, abs=1e-13
                        )

    def test_random_envs_against_recursion(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            env = rand_env(rng)
            n = int(rng.integers(1, 7))
            s = float(rng.uniform(0.0, 1.0))
            assert compose_eval(env, 0, n, s) == pytest.approx(
                brute_compose(env, 0, n, s), rel=1e-12, abs=1e-13
            )

    def test_derivatives_match_finite_differences(self, env_a, env_b):
        # step sizes balance truncation against roundoff per order
        h1, h2 = 1e-6, 1e-4
        for env in (env_a, env_b):
            for s in (0.3, 0.8):
                d1 = compose_eval(env, 0, 3, s, order=1)
                d2 = compose_eval(env, 0, 3, s, order=2)
                f = lambda x: compose_eval(env, 0, 3, x)
                fd1 = (f(s + h1) - f(s - h1)) / (2 * h1)
                fd2 = (f(s + h2) - 2 * f(s) + f(s - h2)) / h2**2
                assert d1 == pytest.approx(fd1, rel=1e-8)
                assert d2 == pytest.approx(fd2, rel=1e-6)

    def test_derivative_overflow_is_quiet(self):
        # the mean of example-2b passes the float range near n = 1000
        env = NamedFamily("example-2b")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compose_eval(env, 0, 3000, 1.0, 1) == math.inf
            assert compose_eval(env, 0, 3000, 1.0, 2) == math.inf
            d = compose_eval(env, 0, 3000, np.array([1.0, 0.999]), 2)
        assert d[0] == math.inf
        assert compose_eval(env, 0, 3000, 1.0) == compose_eval(env, 0, 3000, np.array([1.0]))[0]

    def test_window_validation(self, env_a):
        with pytest.raises(PreconditionError):
            composed_points(env_a, 3, 2, 0.5)
        with pytest.raises(PreconditionError):
            composed_points(env_a, -1, 2, 0.5)


class TestMuProfile:
    def test_ladder_frozen(self, env_a):
        prof = mu_profile(env_a, 2)
        assert prof.ladder == pytest.approx([1.0, 0.81, 0.729], abs=1e-15)
        assert prof.mean == pytest.approx(0.729)
        assert prof.mu == pytest.approx(0.81)

    def test_log_fields_consistent(self, env_b):
        prof = mu_profile(env_b, 6, s=0.4)
        assert prof.mu == pytest.approx(np.exp(prof.log_mu), rel=1e-14)
        assert prof.mu_at_s == pytest.approx(np.exp(prof.log_mu_at_s), rel=1e-14)
        want_nu = sum(
            1.0 / np.exp(mu_profile(env_b, i, s=0.4).log_mu_at_s)
            for i in range(1, 7)
        )
        assert prof.nu_at_s == pytest.approx(want_nu, rel=1e-12)

    def test_single_child_telescoping(self, env_1b):
        # prod (1 - 1/k^2) telescopes to (n+1)/(2n)
        prof = mu_profile(env_1b, 10)
        assert prof.mean == pytest.approx(0.5 * 11 / 20, abs=1e-15)
        assert prof.mean == pytest.approx(0.275)

    def test_deep_horizon_no_underflow(self, env_a):
        prof = mu_profile(env_a, 8000)
        assert prof.mu == 0.0  # linear scale underflows, by design
        assert prof.log_mu == pytest.approx(8000 * np.log(0.9), rel=1e-12)


class TestComposeCoeffs:
    def test_frozen_small_case(self, env_a):
        dv = compose_coeffs(env_a, 2, degree=4)
        assert dv.probs == pytest.approx(
            [0.541125, 0.0, 0.18225, 0.0, 0.091125], abs=1e-15
        )
        assert dv.delta_mass == pytest.approx(0.1855, abs=1e-12)
        assert dv.tail_mass == pytest.approx(0.0, abs=1e-15)

    def test_matches_dict_dp(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            env = rand_env(rng, allow_lf=False)
            n = int(rng.integers(1, 5))
            top = max(env.law(i).support_max for i in range(1, n + 1))
            dv = compose_coeffs(env, n, degree=top**n + 1)
            want, want_kill = brute_dist(env, n)
            assert dv.delta_mass == pytest.approx(want_kill, abs=1e-12)
            assert dv.tail_mass <= 1e-12
            for k, p in want.items():
                assert dv.probs[k] == pytest.approx(p, abs=1e-12)

    def test_probs_zero_matches_extinction(self, env_b):
        dv = compose_coeffs(env_b, 4, degree=80)
        scan = absorption_scan(env_b, 4)
        assert dv.probs[0] == pytest.approx(scan.p_extinct[4], rel=1e-12)
        assert dv.delta_mass == pytest.approx(scan.p_killed[4], rel=1e-12)

    def test_bracket_contains_pgf(self, env_b):
        dv = compose_coeffs(env_b, 3, degree=12)
        for s in (0.2, 0.6, 0.95):
            lo, hi = dv.pgf_bracket(s)
            val = compose_eval(env_b, 0, 3, s)
            assert lo - 1e-14 <= val <= hi + 1e-14

    def test_budget_guard(self, env_a):
        with pytest.raises(BudgetError):
            compose_coeffs(env_a, 100, degree=1000, budget=10)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_budget_message_prints_the_work_it_tested(self, env_a, n):
        # the guard tests (degree + 1) * max(n, 1); at n = 0 that is not 0
        with pytest.raises(BudgetError) as err:
            compose_coeffs(env_a, n, degree=10, budget=5)
        work = int(str(err.value).split(" = ")[1].split()[0])
        assert work == 11 * max(n, 1) > 5

    def test_mass_accounting(self, env_b):
        dv = compose_coeffs(env_b, 5, degree=40)
        total = dv.probs.sum() + dv.delta_mass + dv.tail_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mass_from_its_own_sweep(self, env_a, env_b, monkeypatch):
        from defbranch import environments

        pre = Prefix((FiniteSupport([0.2, 0.3, 0.3]),), env_b.law(1))
        cases = [(env, n) for env in (env_a, env_b, pre) for n in (1, 7, 40)]
        want = [1.0 - compose_eval(env, 0, n, 1.0) for env, n in cases]

        def no_second_sweep(*args, **kwargs):
            raise AssertionError("compose_coeffs swept the window twice")

        monkeypatch.setattr(environments, "compose_eval", no_second_sweep)
        monkeypatch.setattr(environments, "_sweep", no_second_sweep)
        # bit for bit the value the separate backward pass gave
        assert [compose_coeffs(env, n, degree=8).delta_mass for env, n in cases] == want


class TestSerialization:
    def test_round_trips(self, env_a, env_b, env_2a):
        pre = Prefix((FiniteSupport([0.2, 0.3, 0.3]),), FiniteSupport([0.45, 0.0, 0.45]))
        for env in (env_a, env_b, env_2a, pre):
            clone = environment_from_dict(env.to_dict())
            for n in (1, 2, 7):
                assert clone.law(n).pgf(0.6) == env.law(n).pgf(0.6)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidLawError):
            environment_from_dict({"kind": "mystery"})

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"kind": "constant"}, "law"),
            ({"kind": "prefix", "tail": {"kind": "finite", "weights": [1.0]}}, "laws"),
            ({"kind": "prefix", "laws": []}, "tail"),
            ({"kind": "named", "params": {}}, "id"),
            ({"kind": "constant", "law": {"kind": "finite"}}, "weights"),
            ({"kind": "prefix", "laws": [{"kind": "lf", "q": 0.1}], "tail": {}}, "r"),
        ],
    )
    def test_missing_key_names_it(self, obj, key):
        with pytest.raises(InvalidLawError, match=repr(key)):
            environment_from_dict(obj)

    def test_named_params_round_trip(self):
        env = NamedFamily("power-defect", {"a": 0.3, "b": 1.5, "arity": 2})
        clone = environment_from_dict(env.to_dict())
        assert clone.law(3).weight(2) == env.law(3).weight(2)
