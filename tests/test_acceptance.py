"""Acceptance suite: one test per criterion, one printed line each.

Every expected number here is either computed by an independent oracle
in conftest, derived from a closed form checkable by hand, or a frozen
regression value recorded with the tolerance it was verified at.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    Alternating,
    LAW_A,
    LAW_B,
    oracle_fixed_point,
    rand_binary,
    rand_env,
    rand_lf,
)
from defbranch import (
    CONVERGES,
    DIVERGES,
    Constant,
    FiniteSupport,
    NamedFamily,
    absorption_scan,
    compose_coeffs,
    conditioned_mean_bound,
    criteria_verdicts,
    growth_rate,
    mode_agreement,
    moments,
    monte_carlo,
    spine_dist,
    survival_bounds,
    validate_prop4,
)
from defbranch.cli import main

THETA_A = 0.6267890062732586
THETA_B = 0.7298437881283575


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"CRITERION {num:02d} {name}: FAIL")
        raise
    print(f"CRITERION {num:02d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_01_closed_form_survival():
    """Single-child family with telescoping means: survival at every
    horizon up to 10^4 equals (n+1)/(4n) to 1e-12, and a 10^5-rep
    simulation at n=100 lands within 4 standard errors of it."""
    with criterion(1, "closed_form_survival", 10.0):
        env = NamedFamily("example-1b")
        top = 10_000
        scan = absorption_scan(env, top)
        ns = np.arange(1, top + 1, dtype=np.float64)
        want = (ns + 1.0) / (4.0 * ns)
        err = np.abs(scan.survival[1:] - want)
        assert float(err.max()) <= 1e-12
        # the same quantity, by simulation
        s = monte_carlo(env, 100, 100_000, master_seed=2026)
        exact = 101.0 / 400.0
        assert s.n_overflow == 0
        assert abs(s.p_survival - exact) <= 4.0 * s.p_survival_se


def test_criterion_02_fixed_points():
    """The one fixed-point finder (convex bisection on f(s) - s) agrees
    with grid-plus-bisection to 1e-10 over 1000 random bounded laws and
    1000 random geometric-tail laws, including agreement on existence;
    the two reference laws hit their frozen values."""
    with criterion(2, "fixed_points", 15.0):
        assert LAW_A.fixed_point() == pytest.approx(THETA_A, abs=1e-6)
        assert LAW_B.fixed_point() == pytest.approx(THETA_B, abs=1e-6)
        rng = np.random.default_rng(20260815)
        mismatches = 0
        for i in range(2000):
            law = rand_binary(rng) if i < 1000 else rand_lf(rng)
            got = law.fixed_point()
            want = oracle_fixed_point(law)
            if (got is None) != (want is None):
                mismatches += 1
            elif got is not None and abs(got - want) > 1e-10:
                mismatches += 1
        assert mismatches == 0


def test_criterion_03_growth_rates():
    """At horizon 500 the constant reference environment's mean and
    survival rates both sit within 0.02 of log f'(theta); the computed
    values are frozen as regressions."""
    with criterion(3, "growth_rates", 1.0):
        g = growth_rate(Constant(LAW_A), 500)
        target = math.log(LAW_A.pgf(LAW_A.fixed_point(), 1))
        assert target == pytest.approx(-0.572505823761088, abs=1e-12)
        assert abs(g.mean_rate - target) < 0.02
        assert abs(g.survival_rate - target) < 0.02
        assert g.mean_rate == pytest.approx(-0.5694095447940655, abs=1e-12)
        assert g.survival_rate == pytest.approx(-0.5723348603190092, abs=1e-12)


def test_criterion_04_moment_recursions():
    """Derivative-ladder moments match the exact coefficient vectors
    (a fully independent route) to 1e-10 relative over 60 random
    bounded-support environments at horizons up to 8."""
    with criterion(4, "moment_recursions", 30.0):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 60:
            env = rand_env(rng, allow_lf=False)
            n_max = int(rng.integers(1, 9))
            # exact coefficients need the full support: trim the horizon
            # so the polynomial degree stays tractable
            degree, n = 1, 0
            while n < n_max:
                step = degree * max(env.law(n + 1).support_max, 1)
                if n >= 1 and step > 12_000:
                    break
                degree, n = step, n + 1
            degree = max(degree, 1)
            dv = compose_coeffs(env, n, degree)
            assert dv.tail_mass <= 1e-12
            ks = np.arange(dv.probs.size, dtype=np.float64)
            want_mean = float((ks * dv.probs).sum())
            want_second = float((ks * ks * dv.probs).sum())
            m = moments(env, n)
            assert m.mean == pytest.approx(want_mean, rel=1e-10)
            assert m.second == pytest.approx(want_second, rel=1e-10)
            checked += 1
        assert checked == 60


def test_criterion_05_survival_sandwich():
    """The survival probability sits inside both the mean-product /
    second-moment sandwich and the reciprocal bracket on 200 random
    environments, with zero violations."""
    with criterion(5, "survival_sandwich", 60.0):
        rng = np.random.default_rng(505)
        violations = 0
        for _ in range(200):
            env = rand_env(rng)
            n = int(rng.integers(1, 31))
            sb = survival_bounds(env, n)
            if not sb.holds:
                violations += 1
        assert violations == 0


def test_criterion_06_conditioned_mean():
    """The mean population among survivors never exceeds its certified
    envelope for either reference law out to horizon 100; the running
    maxima are frozen as regressions."""
    with criterion(6, "conditioned_mean", 30.0):
        for law, frozen_max in ((LAW_A, 4.317418967416452), (LAW_B, 3.701562118715015)):
            env = Constant(law)
            results = [conditioned_mean_bound(env, n) for n in range(1, 101)]
            assert all(r.holds for r in results)
            assert all(r.cond_tail < 1e-10 for r in results)
            assert max(r.exact for r in results) == pytest.approx(frozen_max, rel=1e-9)


def test_criterion_07_sampler_agreement():
    """The defect-first and kill-first samplers produce statistically
    indistinguishable terminal laws for both reference laws at horizons
    1 through 4, 10^5 replicates per mode."""
    with criterion(7, "sampler_agreement", 20.0):
        for law in (LAW_A, LAW_B):
            env = Constant(law)
            for horizon in (1, 2, 3, 4):
                rep = mode_agreement(env, horizon, 100_000, master_seed=707, workers=4)
                assert rep.passed, (law, horizon, rep.tv, rep.threshold)
                assert not rep.degenerate


def test_criterion_08_spine_normalization():
    """The joint spine law (position, brood size) integrates to one at
    every level of every window up to depth 6, across both reference
    laws, an alternating environment, and all four named families."""
    with criterion(8, "spine_normalization", 5.0):
        envs = [
            Constant(LAW_A),
            Constant(LAW_B),
            Alternating(LAW_A, LAW_B),
            NamedFamily("example-1a"),
            NamedFamily("example-1b"),
            NamedFamily("example-2a"),
            NamedFamily("example-2b"),
        ]
        worst = 0.0
        for env in envs:
            for n in range(1, 7):
                for l in range(1, n + 1):
                    worst = max(worst, abs(spine_dist(env, l, n).total - 1.0))
        assert worst <= 1e-12


def test_criterion_09_conditioned_tree_law():
    """Both conditioned samplers reproduce the exact enumerated prefix
    law: within 0.01 total variation at 10^5 samples on the bounded
    reference law, and within the size-aware threshold on a defective
    truncation of the geometric law."""
    with criterion(9, "conditioned_tree_law", 60.0):
        rep = validate_prop4(Constant(LAW_A), 2, samples=100_000, master_seed=909)
        assert rep.complete_enumeration is True
        assert rep.tv_construction_exact <= 0.01
        assert rep.tv_rejection_exact <= 0.01
        assert rep.passed

        trunc_b = FiniteSupport([LAW_B.weight(k) for k in range(4)])
        rep_b = validate_prop4(Constant(trunc_b), 2, samples=50_000, master_seed=910)
        assert rep_b.complete_enumeration is True
        assert rep_b.tv_construction_exact <= rep_b.threshold
        assert rep_b.tv_rejection_exact <= rep_b.threshold
        assert rep_b.passed


def test_criterion_10_named_family_verdicts():
    """The criterion checker reproduces the known classification of all
    four named families at the default horizons."""
    with criterion(10, "named_family_verdicts", 10.0):
        def verdicts(env):
            return {v.criterion: v.verdict for v in criteria_verdicts(env)}

        v1a = verdicts(NamedFamily("example-1a"))
        assert v1a["one_child_gap"] == DIVERGES
        assert v1a["mean_product_infimum"] == DIVERGES

        v1b = verdicts(NamedFamily("example-1b"))
        assert all(v1b[k] == CONVERGES for k in v1b)

        v2a = verdicts(NamedFamily("example-2a"))
        assert v2a["defect_mean_series"] == DIVERGES
        assert v2a["var_mean_series"] == CONVERGES
        assert v2a["tail_ratio_sup"] == CONVERGES
        assert v2a["mean_product_infimum"] == CONVERGES

        v2b = verdicts(NamedFamily("example-2b"))
        assert v2b["defect_mean_series"] == CONVERGES
        assert v2b["var_mean_series"] == CONVERGES
        assert v2b["tail_ratio_sup"] == CONVERGES
        assert v2b["mean_product_infimum"] == CONVERGES


def test_criterion_11_cli_reproducibility(tmp_path):
    """Simulation artifacts produced through the command line are byte
    identical for 1, 4 and 8 worker threads."""
    with criterion(11, "cli_reproducibility", 30.0):
        cfg = {
            "command": "simulate",
            "environment": {"kind": "constant", "law": {"kind": "lf", "q": 0.1, "r": 0.4, "p": 0.5}},
            "params": {"horizon": 5, "reps": 20_000, "snapshots": [2, 4]},
            "master_seed": 1111,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        blobs = {}
        for cmd in ("simulate", "agree"):
            cfg["command"] = cmd
            cfg["params"] = (
                {"horizon": 5, "reps": 20_000, "snapshots": [2, 4]}
                if cmd == "simulate"
                else {"horizon": 3, "reps": 20_000}
            )
            path.write_text(json.dumps(cfg))
            outs = []
            for w in ("1", "4", "8"):
                out = tmp_path / f"{cmd}-w{w}"
                assert main(["run", str(path), "--out", str(out), "--workers", w]) == 0
                outs.append((out / f"{cmd}.json").read_bytes())
            assert outs[0] == outs[1] == outs[2]
            blobs[cmd] = outs[0]
        assert json.loads(blobs["agree"])["result"]["passed"] is True
