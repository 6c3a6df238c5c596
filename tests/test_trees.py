"""Tree objects, prefix laws, spine construction, exact enumeration."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defbranch import (
    BudgetError,
    ConditionedSampler,
    Constant,
    DELTA,
    DefectiveTree,
    FiniteSupport,
    InvalidTreeError,
    PreconditionError,
    absorption_profile,
    compose_coeffs,
    enumerate_conditioned,
    parse_tree,
    prefix_key,
    prefix_prob,
    rejection_conditioned,
    sample_conditioned,
    sample_dbtve,
    serialize_tree,
    spine_dist,
    tree_stats,
    validate_prop4,
    validate_tree,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# root with three children; middle one childless; one grandchild brood
# hits the graveyard, so the generation-3 row is the defect element
FIGURE = DefectiveTree(
    {
        (): 3,
        (1,): 2,
        (2,): 0,
        (3,): 2,
        (1, 1): 1,
        (1, 2): DELTA,
        (3, 1): 0,
        (3, 2): 2,
    }
)


class TestTreeBasics:
    def test_gen_sizes_and_height(self):
        assert FIGURE.gen_sizes() == [1, 3, 4, DELTA]
        assert FIGURE.height() == 2
        assert FIGURE.defect_generation() == 3

    def test_extinct_tree(self):
        t = DefectiveTree({(): 2, (1,): 0, (2,): 0})
        assert t.gen_sizes() == [1, 2, 0]
        assert t.height() == 1
        assert t.defect_generation() is None

    def test_alive_at_frontier(self):
        t = DefectiveTree({(): 2})
        assert t.gen_sizes() == [1, 2]
        assert t.height() is None

    def test_subtree(self):
        sub = FIGURE.subtree(1)
        assert sub.child_count == {(): 2, (1,): 1, (2,): DELTA}
        assert sub.gen_sizes() == [1, 2, DELTA]

    def test_equality_ignores_cap(self):
        a = DefectiveTree({(): 0}, cap=3)
        b = DefectiveTree({(): 0}, cap=9)
        assert a == b


class TestSerialization:
    def test_exact_format(self):
        t = DefectiveTree({(): 2, (1,): 2, (2,): 0})
        assert serialize_tree(t) == ",2\n1,2\n2,0"
        killed = DefectiveTree({(): DELTA})
        assert serialize_tree(killed) == ",D"

    def test_round_trip(self):
        text = serialize_tree(FIGURE)
        clone = parse_tree(text)
        assert clone == FIGURE
        assert serialize_tree(clone) == text

    def test_deep_labels_round_trip(self):
        t = DefectiveTree({(): 1, (1,): 1, (1, 1): 2, (1, 1, 1): 0, (1, 1, 2): 0})
        assert parse_tree(serialize_tree(t)) == t
        assert "1.1.2,0" in serialize_tree(t)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidTreeError):
            parse_tree("nonsense")
        with pytest.raises(InvalidTreeError):
            parse_tree(",2\n1,2\n1,0")  # duplicate
        with pytest.raises(InvalidTreeError):
            parse_tree("1,2")  # no root
        for text in (",2\n1,-1\n2,0", ",-1", ",-2"):  # the graveyard is D, not -1
            with pytest.raises(InvalidTreeError):
                parse_tree(text)

    def test_prefix_key_cuts_depth(self):
        assert prefix_key(FIGURE, 1) == ",3"
        assert prefix_key(FIGURE, 2) == ",3\n1,2\n2,0\n3,2"
        assert prefix_key(FIGURE, 0) == ""


class TestValidation:
    def test_figure_is_valid(self):
        validate_tree(FIGURE)

    def test_orphan(self):
        with pytest.raises(InvalidTreeError, match="orphan|partially"):
            validate_tree(DefectiveTree({(): 1, (1, 1): 0}))

    def test_label_beyond_parent_count(self):
        with pytest.raises(InvalidTreeError, match="beyond"):
            validate_tree(DefectiveTree({(): 1, (1,): 0, (2,): 0}))

    def test_partial_generation(self):
        with pytest.raises(InvalidTreeError, match="partially"):
            validate_tree(DefectiveTree({(): 2, (1,): 1}))

    def test_counts_below_graveyard(self):
        bad = DefectiveTree({(): 2, (1,): DELTA, (2,): 2, (2, 1): 0, (2, 2): 0})
        with pytest.raises(InvalidTreeError, match="graveyard"):
            validate_tree(bad)

    def test_bad_count_value(self):
        with pytest.raises(InvalidTreeError, match="count"):
            validate_tree(DefectiveTree({(): -5}))

    def test_bad_label(self):
        with pytest.raises(InvalidTreeError, match="label"):
            validate_tree(DefectiveTree({(): 1, (0,): 0}))


class TestPrefixProb:
    def test_killed_root(self, env_a):
        t = DefectiveTree({(): DELTA})
        assert prefix_prob(env_a, t, 2) == pytest.approx(0.1, abs=1e-15)
        assert prefix_prob(env_a, t, 1) == pytest.approx(0.1, abs=1e-15)
        assert prefix_prob(env_a, t, 0) == 1.0

    def test_alive_shallow_prefix(self, env_a):
        t = DefectiveTree({(): 2})
        assert prefix_prob(env_a, t, 1) == pytest.approx(0.45, abs=1e-15)
        with pytest.raises(PreconditionError, match="deep"):
            prefix_prob(env_a, t, 2)

    def test_extinct_tree_any_depth(self, env_a):
        t = DefectiveTree({(): 0})
        assert prefix_prob(env_a, t, 5) == pytest.approx(0.45, abs=1e-15)

    def test_killed_later(self, env_a):
        t = DefectiveTree({(): 2, (1,): 2, (2,): DELTA})
        assert prefix_prob(env_a, t, 2) == pytest.approx(0.45 * 0.45 * 0.1, rel=1e-14)
        assert prefix_prob(env_a, t, 1) == pytest.approx(0.45, abs=1e-15)

    def test_prefix_masses_sum_to_one(self, env_a):
        # every depth-2 atom, alive or not, through the enumerator
        law = enumerate_conditioned(env_a, 2)
        assert law.unconditional_mass == pytest.approx(1.0, abs=1e-12)
        # and the alive atoms' unconditional probabilities match prefix_prob
        for key, cond_p in law.atoms.items():
            tree = parse_tree(key)
            want = cond_p * law.survival_mass
            assert prefix_prob(env_a, tree, 2) == pytest.approx(want, rel=1e-12)


class TestUnconditionedSampling:
    def test_root_marginal(self, env_a):
        rng = np.random.default_rng(201)
        scipy_stats = pytest.importorskip("scipy.stats")
        counts = {DELTA: 0, 0: 0, 2: 0}
        for _ in range(20_000):
            t = sample_dbtve(env_a, rng, depth_cap=1)
            counts[t.child_count[()]] += 1
        res = scipy_stats.chisquare(
            [counts[DELTA], counts[0], counts[2]],
            np.array([0.1, 0.45, 0.45]) * 20_000,
        )
        assert res.pvalue > 1e-3

    def test_samples_validate(self, env_b):
        rng = np.random.default_rng(202)
        for _ in range(200):
            t = sample_dbtve(env_b, rng, depth_cap=4)
            validate_tree(t)
            assert t.cap == 4

    def test_survival_frequency(self, env_a):
        rng = np.random.default_rng(203)
        n, reps = 3, 20_000
        alive = 0
        for _ in range(reps):
            z = sample_dbtve(env_a, rng, depth_cap=n).gen_sizes()
            alive += len(z) == n + 1 and z[-1] >= 1
        exact = absorption_profile(env_a, n).survival
        se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(alive / reps - exact) <= 4 * se


class TestSpine:
    def test_identity_window(self, env_a):
        sd = spine_dist(env_a, 1, 1)
        assert sd.total == pytest.approx(1.0, abs=1e-14)
        probs = {(int(d), int(c)): float(p) for d, c, p in zip(sd.d, sd.c, sd.prob)}
        assert probs[(1, 2)] == pytest.approx(1.0, abs=1e-14)
        assert probs.get((2, 2), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_two_level(self, env_a):
        sd = spine_dist(env_a, 1, 2)
        probs = {(int(d), int(c)): float(p) for d, c, p in zip(sd.d, sd.c, sd.prob)}
        assert probs[(1, 2)] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert probs[(2, 2)] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_normalization_grid(self, env_a, env_b, alt_env, env_1b, env_2a):
        for env in (env_a, env_b, alt_env, env_1b, env_2a):
            for n in range(1, 7):
                for l in range(1, n + 1):
                    sd = spine_dist(env, l, n)
                    assert abs(sd.total - 1.0) <= 1e-12, (env, l, n)

    def test_brood_marginal_identity(self, env_b):
        # summing the spine position out of the joint law must give the
        # size-biased-by-survival brood law, written with pgf values only
        l, n = 2, 5
        sd = spine_dist(env_b, l, n)
        from defbranch import compose_eval

        law = env_b.law(l)
        f0 = compose_eval(env_b, l, n, 0.0)
        f1 = compose_eval(env_b, l, n, 1.0)
        dd = law.divided_difference(f1, f0)
        for c in np.unique(sd.c):
            got = float(sd.prob[sd.c == c].sum())
            want = law.weight(int(c)) * (f1**c - f0**c) / ((f1 - f0) * dd)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_empty_window(self, env_a):
        with pytest.raises(PreconditionError):
            spine_dist(env_a, 0, 2)
        with pytest.raises(PreconditionError):
            spine_dist(env_a, 3, 2)


class TestConditionedSampling:
    def test_structural_invariants(self, env_a):
        rng = np.random.default_rng(211)
        sampler = ConditionedSampler(env_a, 3)
        for _ in range(500):
            tree, spine = sampler.sample(rng)
            validate_tree(tree)
            z = tree.gen_sizes()
            assert len(z) == 4 and z[-1] >= 1
            assert len(spine.labels) == 4
            assert spine.d[-1] == 1  # nothing below the spine can carry it
            st = tree_stats(tree, 3)
            assert st.rank == spine.d[0]
            assert st.height == math.inf
            # the spine is an actual chain of the tree
            for parent, child in zip(spine.labels, spine.labels[1:]):
                assert child[:-1] == parent
                assert 1 <= child[-1] <= tree.child_count[parent]

    def test_spine_position_marginal(self, env_a):
        rng = np.random.default_rng(212)
        sampler = ConditionedSampler(env_a, 2)
        hits = 0
        reps = 20_000
        for _ in range(reps):
            _, spine = sampler.sample(rng)
            hits += spine.d[0] == 1
        se = math.sqrt((2 / 3) * (1 / 3) / reps)
        assert abs(hits / reps - 2.0 / 3.0) <= 4 * se

    def test_extra_depth(self, env_a):
        rng = np.random.default_rng(213)
        tree, _ = sample_conditioned(env_a, 2, rng, extra_depth=2)
        assert tree.cap == 4
        validate_tree(tree)
        z = tree.gen_sizes()
        assert len(z) >= 4 and z[2] >= 1

    def test_budget_exhaustion(self, env_a):
        rng = np.random.default_rng(214)
        sampler = ConditionedSampler(env_a, 4, budget_factor=1e-9)
        with pytest.raises(BudgetError):
            for _ in range(300):
                sampler.sample(rng)

    def test_vanishing_survival_rejected(self):
        dead = Constant(FiniteSupport([0.9, 0.0, 0.05]))
        with pytest.raises(PreconditionError):
            ConditionedSampler(dead, 800)


class TestRejectionSampling:
    def test_marginal_matches_exact(self, env_a):
        rng = np.random.default_rng(221)
        dv = compose_coeffs(env_a, 2, degree=4)
        surv = absorption_profile(env_a, 2).survival
        reps, twos = 3000, 0
        for _ in range(reps):
            t = rejection_conditioned(env_a, 2, rng)
            twos += t.gen_sizes()[-1] == 2
        want = float(dv.probs[2]) / surv
        se = math.sqrt(want * (1 - want) / reps)
        assert abs(twos / reps - want) <= 4 * se

    def test_budget_preconditions(self, env_a):
        rng = np.random.default_rng(222)
        with pytest.raises(PreconditionError, match="too rare"):
            rejection_conditioned(env_a, 2, rng, max_tries=10)
        t = rejection_conditioned(env_a, 2, rng, max_tries=100)
        assert t.gen_sizes()[-1] >= 1

    def test_extra_depth(self, env_a):
        rng = np.random.default_rng(223)
        t = rejection_conditioned(env_a, 2, rng, extra_depth=1)
        assert t.cap == 3
        validate_tree(t)


class TestRejectionBudgets:
    """Both rejection loops draw through the public ``sample_dbtve`` and
    keep their own budget messages."""

    @pytest.fixture
    def always_killed(self, monkeypatch):
        from defbranch import trees

        draws = []

        def killed_tree(env, rng, depth_cap):
            draws.append(depth_cap)
            return DefectiveTree({(): DELTA}, cap=depth_cap)

        monkeypatch.setattr(trees, "sample_dbtve", killed_tree)
        return draws

    def test_rejection_message(self, env_a, always_killed):
        rng = np.random.default_rng(224)
        with pytest.raises(BudgetError) as exc:
            rejection_conditioned(env_a, 2, rng, max_tries=50)
        assert str(exc.value) == "rejection budget of 50 exhausted"
        assert always_killed == [2] * 50

    def test_subtree_message(self, env_a, always_killed):
        rng = np.random.default_rng(225)
        sampler = ConditionedSampler(env_a, 2, budget_factor=3.0)
        # the first off-spine subtree is conditioned to die or to live
        budgets = [math.ceil(3.0 / float(p[1])) for p in (sampler._die_p, sampler._live_p)]
        with pytest.raises(BudgetError) as exc:
            sampler.sample(rng)
        assert len(always_killed) in budgets
        assert str(exc.value) == f"subtree rejection budget of {len(always_killed)} exhausted"
        assert set(always_killed) == {1}


class TestEnumeration:
    def test_law_a_two_levels_exact(self, env_a):
        law = enumerate_conditioned(env_a, 2)
        assert law.complete
        assert law.atom_count == 3
        assert law.survival_mass == pytest.approx(0.273375, rel=1e-13)
        assert law.exact_survival == pytest.approx(0.273375, rel=1e-12)
        assert law.unconditional_mass == pytest.approx(1.0, abs=1e-13)
        # all three survivors carry 0.45^3, conditionally one third each
        for p in law.atoms.values():
            assert p == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_marginal_matches_coefficients(self, env_a):
        law = enumerate_conditioned(env_a, 2)
        dv = compose_coeffs(env_a, 2, degree=4)
        surv = law.survival_mass
        marg = law.marginals[2]
        assert marg[2] == pytest.approx(float(dv.probs[2]) / surv, rel=1e-12)
        assert marg[4] == pytest.approx(float(dv.probs[4]) / surv, rel=1e-12)
        assert sum(marg.values()) == pytest.approx(1.0, abs=1e-12)

    def test_lf_needs_max_count(self, env_b):
        with pytest.raises(PreconditionError, match="max_count"):
            enumerate_conditioned(env_b, 2)
        law = enumerate_conditioned(env_b, 2, max_count=4)
        assert not law.complete
        assert law.unconditional_mass < 1.0
        assert law.atom_count > 0

    def test_truncation_flag(self, env_a):
        law = enumerate_conditioned(env_a, 2, max_count=1)
        assert not law.complete
        assert law.atom_count == 0  # law A needs pairs to survive

    def test_budget(self, env_a):
        with pytest.raises(BudgetError):
            enumerate_conditioned(env_a, 6, budget=50)


class TestTreeStats:
    def test_figure(self):
        st = tree_stats(FIGURE, 3)
        assert st.height == 2.0
        assert st.gen_sizes == (1, 3, 4, DELTA)
        # the kill sits under child 1; child 3's own subtree reaches depth 2
        assert st.rank == 3.0

    def test_rank_inf_when_no_subtree_survives(self):
        t = DefectiveTree({(): 2, (1,): 0, (2,): 0})
        assert tree_stats(t, 3).rank == math.inf

    def test_rank_finds_leftmost_survivor(self):
        t = DefectiveTree(
            {
                (): 2,
                (1,): 0,
                (2,): 1,
                (2, 1): 1,
            }
        )
        st = tree_stats(t, 3)
        assert st.rank == 2.0


class TestProp4:
    def test_finite_support_agrees_with_exact(self, env_a):
        rep = validate_prop4(env_a, 2, samples=4000, master_seed=5)
        assert rep.complete_enumeration is True
        assert rep.atom_count == 3
        assert rep.passed
        assert rep.tv_construction_exact <= rep.threshold
        assert rep.tv_rejection_exact <= rep.threshold
        assert rep.tv_construction_rejection <= rep.threshold

    def test_report_independent_of_hash_seed(self):
        # prefix keys are strings, so any set iteration order follows the
        # hash seed; the TV sums must not
        code = (
            "from defbranch import Constant, LinearFractional, validate_prop4\n"
            "env = Constant(LinearFractional(0.1, 0.4, 0.5))\n"
            "print(repr(validate_prop4(env, 1, samples=300, max_count=4)))\n"
        )
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        reports = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert "Prop4Report" in reports[0]
        assert reports[0] == reports[1]

    def test_exact_skipped_when_unavailable(self, env_b):
        rep = validate_prop4(env_b, 2, samples=1500, master_seed=6)
        assert rep.tv_construction_exact is None
        assert rep.tv_rejection_exact is None
        assert rep.complete_enumeration is None
        assert rep.passed  # the two samplers must still agree
