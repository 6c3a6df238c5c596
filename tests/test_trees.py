"""Tree objects, prefix laws, spine construction, exact enumeration."""
from __future__ import annotations

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
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
    LinearFractional,
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

    def test_equality_reads_the_counts(self, env_a, monkeypatch):
        def no_labels(self):
            raise AssertionError("== built a label map")

        trees = [sample_dbtve(env_a, np.random.default_rng(s), depth_cap=4) for s in (7, 7, 5)]
        monkeypatch.setattr(DefectiveTree, "child_count", property(no_labels))
        assert trees[0] == trees[1]
        assert trees[0] != trees[2]  # they part at generation 2


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
        with pytest.raises(InvalidTreeError, match="graveyard"):
            bad = DefectiveTree({(): 2, (1,): DELTA, (2,): 2, (2, 1): 0, (2, 2): 0})
            validate_tree(bad)

    def test_bad_count_value(self):
        with pytest.raises(InvalidTreeError, match="count"):
            validate_tree(DefectiveTree({(): -5}))
        with pytest.raises(InvalidTreeError, match="count"):
            validate_tree(DefectiveTree({(): 2, (1,): 1.5, (2,): 0}))

    def test_bad_label(self):
        with pytest.raises(InvalidTreeError, match="label"):
            validate_tree(DefectiveTree({(): 1, (0,): 0}))

    @pytest.mark.parametrize(
        "cc, pattern",
        [
            ({(): 1, (1, 1): 0}, "orphan|partially"),
            ({(): 1, (1,): 0, (2,): 0}, "beyond"),
            ({(): 2, (1,): 1}, "partially"),
            ({(): 2, (1,): DELTA, (2,): 2, (2, 1): 0, (2, 2): 0}, "graveyard"),
            ({(): -5}, "count"),
            ({(): 2, (1,): 1.5, (2,): 0}, "count"),
            ({(): 1, (0,): 0}, "label"),
            ({(1,): 0}, "no root count"),
            ({(): DELTA, (1,): 0}, "beyond"),
        ],
    )
    def test_map_is_checked_when_built(self, cc, pattern):
        with pytest.raises(InvalidTreeError, match=pattern):
            DefectiveTree(cc)

    @pytest.mark.parametrize(
        "gens, pattern",
        [
            ([[3], [2, 0]], "2 counts for 3 nodes"),
            ([[3], [2, 0, 2, 1]], "4 counts for 3 nodes"),
            ([[2, 1]], "2 counts for 1 nodes"),
            ([[2], [1, DELTA], [0]], "below the graveyard"),
            ([[2], [0, 0], [1]], "below the graveyard or extinction"),
            ([[0], []], "below the graveyard or extinction"),
            ([[2], [1, 1.0]], "bad count"),
            ([[2], [1, -3]], "bad count"),
        ],
    )
    def test_edited_counts_are_caught(self, gens, pattern):
        t = DefectiveTree({(): 2, (1,): 1, (2,): 0})
        validate_tree(t)
        t.gens = gens
        with pytest.raises(InvalidTreeError, match=pattern):
            validate_tree(t)


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

    def test_label_built_tree_is_validated(self, env_a):
        # generation 1 is half counted: without the check h = 1 would read 0.45
        with pytest.raises(InvalidTreeError, match="partially"):
            prefix_prob(env_a, DefectiveTree({(): 2, (1,): 1}), 1)

    def test_sampled_tree_keeps_no_label_map(self):
        # 40391 nodes at this seed; validating the tree built their label
        # map and kept it, 81.5 MB
        env = Constant(FiniteSupport([0.25, 0.5, 0.25]))
        tree, _ = ConditionedSampler(env, 400).sample(np.random.default_rng(1))
        tracemalloc.start()
        try:
            prefix_prob(env, tree, 400)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, tree.gens)) == 40391
        assert held <= 1e6 and peak <= 1e6

    def test_parsed_tree_keeps_no_label_map(self):
        # the 40391-node tree above, whose label map takes 85.8 MB; what the
        # tree holds is summed over what it reaches, far cheaper than
        # tracing the parse's allocations
        env = Constant(FiniteSupport([0.25, 0.5, 0.25]))
        tree, _ = ConditionedSampler(env, 400).sample(np.random.default_rng(1))
        parsed = parse_tree(serialize_tree(tree))
        assert parsed == tree
        seen, todo, held = set(), [parsed], 0
        while todo:
            obj = todo.pop()
            if id(obj) not in seen and not isinstance(obj, type):
                seen.add(id(obj))
                held += sys.getsizeof(obj)
                todo += gc.get_referents(obj)
        assert held <= 1e6

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

    def test_negative_extra_depth(self, env_a):
        # as the construction sampler rejects it, before any draw
        rng = np.random.default_rng(224)
        with pytest.raises(PreconditionError, match="extra_depth must be >= 0"):
            rejection_conditioned(env_a, 2, rng, extra_depth=-1)
        with pytest.raises(PreconditionError, match="extra_depth must be >= 0"):
            ConditionedSampler(env_a, 2, extra_depth=-1)


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
        budgets = [math.ceil(3.0 / p[1]) for p in (sampler._die, sampler._live)]
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


# SHA-256 over the trees each sampler draws at a fixed seed, before the
# samplers' per-node costs were cut; any change to the random stream or
# to the order of the draws shows here
STREAM_LAWS = {
    "finite": FiniteSupport([0.45, 0.0, 0.45]),
    "lf": LinearFractional(0.1, 0.4, 0.5),
    "defective4": FiniteSupport([0.2, 0.3, 0.25, 0.15]),
}
STREAM_DIGESTS = {
    ("finite", "plain"): "39ecd21d8736472c6fe223d9edea0f767dd1c21ded0562543fafba6b1683a0b8",
    ("finite", "rejection"): "0cf8d6811976ceb8d8792cf3f6a199c4a70bc179b3e9270e61103d40a8e0807b",
    ("finite", "rejection-extra"): "15920c43fd7cd4e7a7cd184db15e5212237a9a3f54d88498fe9f6bb7bd35b8a2",
    ("finite", "construction"): "869c7c39d709bb0024c93586562a2df0be7deaaa95c82e615151bd29bde2c2c4",
    ("lf", "plain"): "e79bb49b10d8d29e53d2617d5e49e5d154fdd4904a8c8af49ec104961d0e6972",
    ("lf", "rejection"): "10206a0f343e8fe39f19383ae252a8f8e2cd9f74127f61f3251a56f07a2cb073",
    ("lf", "rejection-extra"): "8f8f2b8f49a2155f65761e53dbd63a4ccdf5548b475c0328fbae41ef47a33df4",
    ("lf", "construction"): "be9fea4fe545207a421f17b44daaf99b358ee45d6b998f029dca997199e85a03",
    ("defective4", "plain"): "dada176a54e7621e9d75c50ea4f06a63fb81aac24f4bf09ca9c984125dceaade",
    ("defective4", "rejection"): "86e596a0c616ac107095a8c116f90bed42d7d72adca6e9b4f13b18099d871cb3",
    ("defective4", "rejection-extra"): "f729b2c32f9dd2083069a24fff0f6cc61d76e015cb5d303740d748c8672e052d",
    ("defective4", "construction"): "44851a35eaef7b76d4381edf7e17c63d1f1e30caa0d00dbc5e05049ef0829788",
}
STREAM_KINDS = ("plain", "rejection", "rejection-extra", "construction")
PROP4_REPRS = {
    "finite": "Prop4Report(n=2, samples=2000, atom_count=3, threshold=0.1161895003862225, "
    "tv_construction_exact=0.014166666666666633, tv_rejection_exact=0.006833333333333358, "
    "tv_construction_rejection=0.013500000000000002, exact_survival=0.273375, "
    "complete_enumeration=True, passed=True)",
    "lf": "Prop4Report(n=2, samples=2000, atom_count=1127, threshold=2.2519991119003575, "
    "tv_construction_exact=0.1939997366977517, tv_rejection_exact=0.19815424757725358, "
    "tv_construction_rejection=0.20550000000000015, exact_survival=0.19393939393939397, "
    "complete_enumeration=False, passed=True)",
    "defective4": "Prop4Report(n=2, samples=2000, atom_count=81, threshold=0.6037383539249432, "
    "tv_construction_exact=0.05404171154411043, tv_rejection_exact=0.05931264075198276, "
    "tv_construction_rejection=0.07400000000000004, exact_survival=0.51065, "
    "complete_enumeration=True, passed=True)",
}


def _stream_trees(kind, env, rng):
    if kind == "plain":
        return [sample_dbtve(env, rng, depth_cap=4) for _ in range(150)]
    if kind == "rejection":
        return [rejection_conditioned(env, 3, rng) for _ in range(100)]
    if kind == "rejection-extra":
        return [rejection_conditioned(env, 2, rng, extra_depth=2) for _ in range(100)]
    sampler = ConditionedSampler(env, 3, extra_depth=2)
    return [sampler.sample(rng)[0] for _ in range(100)]


class TestStreamIdentity:
    @pytest.mark.parametrize("kind", STREAM_KINDS)
    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_sampled_trees_pinned(self, law, kind):
        seed = 1000 + STREAM_KINDS.index(kind)
        trees = _stream_trees(kind, Constant(STREAM_LAWS[law]), np.random.default_rng(seed))
        text = "\n\n".join(f"{t.cap}|{t.serialize()}" for t in trees)
        assert hashlib.sha256(text.encode()).hexdigest() == STREAM_DIGESTS[law, kind]

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_prop4_report_pinned(self, law):
        env = Constant(STREAM_LAWS[law])
        rep = validate_prop4(env, 2, samples=2000, master_seed=3, max_count=4)
        assert repr(rep) == PROP4_REPRS[law]


class _Uniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


class TestSamplingFastPaths:
    @pytest.mark.parametrize(
        "weights",
        [[0.45, 0.0, 0.45], [0.2, 0.3, 0.25, 0.15], [0.25, 0.5, 0.25], [0.5, 0.0, 0.5]],
        ids=["law-a", "defective4", "proper", "proper-gap"],
    )
    def test_draws_match_searchsorted(self, weights):
        law = FiniteSupport(weights)
        cum = np.cumsum(law.weights)
        # every threshold, its float neighbours, and the ends of [0, 1)
        u = [0.0, np.nextafter(1.0, 0.0)]
        for c in cum.tolist():
            u += [np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)]
        u = [x for x in u if 0.0 <= x < 1.0]
        idx = np.searchsorted(cum, u, side="right")
        want = np.where(idx >= law.weights.size, DELTA, idx).tolist()
        if law.mass < 1.0:
            assert DELTA in want

        drawn = law.sample(_Uniforms(u), size=len(u))
        assert drawn.dtype == np.int64 and drawn.tolist() == want
        assert [law.sample(_Uniforms([x])) for x in u] == want

    def test_spine_draws_match_searchsorted(self, env_a):
        sd = spine_dist(env_a, 1, 3)
        cum = np.cumsum(sd.prob)
        for c in cum.tolist():
            for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)):
                u = x / sd.total
                i = min(int(np.searchsorted(cum, u * sd.total, side="right")), sd.prob.size - 1)
                assert sd.sample(_Uniforms([u])) == (int(sd.d[i]), int(sd.c[i]))

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_recorded_sizes_match_the_walk(self, law):
        env = Constant(STREAM_LAWS[law])
        rng = np.random.default_rng(31)
        trees = [sample_dbtve(env, rng, depth_cap=cap) for cap in (0, 1, 5) for _ in range(100)]
        trees += [rejection_conditioned(env, 2, rng, extra_depth=e) for e in (0, 2) for _ in range(50)]
        sampler = ConditionedSampler(env, 2, extra_depth=1)
        trees += [sampler.sample(rng)[0] for _ in range(50)]
        for t in trees:
            walked = DefectiveTree(dict(t.child_count), cap=t.cap).gen_sizes()
            assert t.gen_sizes() == walked

    def test_recorded_sizes_are_copied(self, env_a):
        t = sample_dbtve(env_a, np.random.default_rng(32), depth_cap=3)
        t.gen_sizes().append(99)
        assert t.gen_sizes() == DefectiveTree(dict(t.child_count)).gen_sizes()
        assert t == DefectiveTree(dict(t.child_count))

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_prefix_key_matches_the_sorted_records(self, law):
        env = Constant(STREAM_LAWS[law])
        rng = np.random.default_rng(33)
        trees = [sample_dbtve(env, rng, depth_cap=cap) for cap in (0, 1, 4) for _ in range(60)]
        trees += [rejection_conditioned(env, 2, rng, extra_depth=e) for e in (0, 2) for _ in range(60)]
        for extra in (0, 1):
            sampler = ConditionedSampler(env, 3, extra_depth=extra)
            trees += [sampler.sample(rng)[0] for _ in range(60)]
        trees.append(parse_tree(FIGURE.serialize()))
        for t in trees:
            for h in range(-1, (t.cap or 3) + 2):
                cut = {lab: c for lab, c in t.child_count.items() if len(lab) < h}
                assert prefix_key(t, h) == serialize_tree(DefectiveTree(cut))


def _lf_reference(law, u):
    """LinearFractional draws from the uniforms u, by the array formula."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=np.int64)
    out[u >= law.mass] = DELTA
    geo = (u >= law.q + law.r) & (u < law.mass)
    if np.any(geo):
        y = 1.0 - (u[geo] - law.q - law.r) * (1.0 - law.p) / (law.r * law.p)
        y = np.clip(y, 1e-320, None)
        out[geo] = np.floor(np.log(y) / math.log(law.p)).astype(np.int64) + 1
    return out.tolist()


LF_LAWS = [
    LinearFractional(0.1, 0.4, 0.5),
    LinearFractional(0.0, 0.05, 0.95),
    LinearFractional(0.3, 0.0005, 0.999),
    LinearFractional(0.2, 0.7, 1e-3),
]


class TestListDraws:
    """``_draws`` takes the uniforms ``sample`` takes, in order, and maps
    them as the array formulas do."""

    @pytest.mark.parametrize("law", LF_LAWS, ids=range(len(LF_LAWS)))
    def test_lf_draws_match_the_array_formula(self, law):
        for seed in range(100):
            for z in (1, 2, 3, 8, 50):
                rng, ref = np.random.default_rng([seed, z]), np.random.default_rng([seed, z])
                got = law._draws(rng, z)
                assert got == _lf_reference(law, ref.random(z))
                assert all(type(k) is int for k in got)
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("law", LF_LAWS, ids=range(len(LF_LAWS)))
    def test_lf_draws_at_the_band_edges(self, law):
        u = [0.0, np.nextafter(1.0, 0.0)]
        for c in (law.q + law.r, law.mass):
            u += [np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)]
        u = [float(x) for x in u if 0.0 <= x < 1.0]
        want = _lf_reference(law, u)
        assert law._draws(_Uniforms(u), len(u)) == want
        assert law.sample(_Uniforms(u), size=len(u)).tolist() == want
        assert [law.sample(_Uniforms([x])) for x in u] == want

    @pytest.mark.parametrize("law", list(STREAM_LAWS.values()), ids=list(STREAM_LAWS))
    def test_one_draw_takes_the_scalar_uniform(self, law):
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            (got,) = law._draws(rng, 1)
            assert got == law.sample(ref, size=1)[0]
            assert rng.random() == ref.random()


def _labelled_trees(law, rng):
    env = Constant(STREAM_LAWS[law])
    trees = [sample_dbtve(env, rng, depth_cap=cap) for cap in (0, 1, 4) for _ in range(40)]
    for extra in (0, 2):
        trees += [rejection_conditioned(env, 2, rng, extra_depth=extra) for _ in range(40)]
        sampler = ConditionedSampler(env, 3, extra_depth=extra)
        trees += [sampler.sample(rng)[0] for _ in range(40)]
    return env, trees


class TestCountLists:
    """The derived label view and the count lists describe one tree."""

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_label_view_round_trips(self, law):
        env, trees = _labelled_trees(law, np.random.default_rng(41))
        for t in trees:
            again = DefectiveTree(t.child_count)
            assert parse_tree(t.serialize()) == t
            assert again == t
            assert again.gens == t.gens
            assert again.gen_sizes() == t.gen_sizes()
            assert again.height() == t.height()
            for h in range(len(t.gens) + 1):
                assert prefix_prob(env, again, h) == prefix_prob(env, t, h)
                assert prefix_key(again, h) == prefix_key(t, h)
            root = t.gens[0][0] if t.gens else 0
            for i in range(1, max(root, 0) + 2):
                sub = t.subtree(i)
                below = {lab[1:]: c for lab, c in t.child_count.items() if lab[:1] == (i,)}
                assert sub == again.subtree(i) == DefectiveTree(below)
                assert sub.gens == again.subtree(i).gens
                assert sub.gen_sizes() == DefectiveTree(below).gen_sizes()

    def test_figure_counts(self):
        assert FIGURE.gens == [[3], [2, 0, 2], [1, DELTA, 0, 2]]
        assert FIGURE.subtree(3).gens == [[2], [0, 2]]
        assert DefectiveTree({}).gens == []

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_rank_is_the_rank_of_the_depth_n_prefix(self, law):
        env = Constant(STREAM_LAWS[law])
        rng = np.random.default_rng(42)
        n = 3
        trees = [sample_dbtve(env, rng, depth_cap=n + 2) for _ in range(100)]
        trees += [rejection_conditioned(env, n, rng, extra_depth=2) for _ in range(50)]
        sampler = ConditionedSampler(env, n, extra_depth=3)
        drawn = [sampler.sample(rng) for _ in range(50)]
        trees += [t for t, _ in drawn]
        for t in trees:
            cut = DefectiveTree({lab: c for lab, c in t.child_count.items() if len(lab) < n})
            assert tree_stats(t, n).rank == tree_stats(cut, n).rank
        # a tree alive at n has a root child alive at n - 1: the spine's
        for t, spine in drawn:
            assert tree_stats(t, n).rank == spine.d[0]

    def test_deep_conditioned_tree_memory(self):
        # 40391 nodes at this seed; held as label tuples they took 85.5 MB
        sampler = ConditionedSampler(Constant(FiniteSupport([0.25, 0.5, 0.25])), 400)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            tree, _ = sampler.sample(rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, tree.gens)) == 40391
        assert peak <= 5.7e6


class TestTriesGoThroughTheSampler:
    """Every rejection try is one call of the module-level
    ``sample_dbtve``, which the benchmark's tracer wraps to count them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from defbranch import trees

        log = []
        draw = trees.sample_dbtve

        def counted(env, rng, depth_cap):
            t = draw(env, rng, depth_cap)
            log.append((depth_cap, t))
            return t

        monkeypatch.setattr(trees, "sample_dbtve", counted)
        return log

    @pytest.mark.parametrize("extra", [0, 2])
    def test_rejection_tries(self, env_a, calls, extra):
        rng = np.random.default_rng(43)
        n = 3
        for _ in range(30):
            del calls[:]
            t = rejection_conditioned(env_a, n, rng, extra_depth=extra)
            *rejected, (cap, last) = calls
            assert cap == n and {c for c, _ in rejected} <= {n}
            assert all(len(r.gens) < n or r.gen_sizes()[-1] < 1 for _, r in rejected)
            assert last.gens[:n] == t.gens[:n] and len(t.gens) >= n
            if not extra:
                assert t is last

    @pytest.mark.parametrize("law", STREAM_LAWS)
    def test_construction_tries(self, calls, law):
        env = Constant(STREAM_LAWS[law])
        rng = np.random.default_rng(44)
        n = 3
        sampler = ConditionedSampler(env, n)
        for _ in range(30):
            del calls[:]
            tree, spine = sampler.sample(rng)
            # the subtree requests in draw order, each a run of tries that
            # ends at the first accepted draw; the accepted ones, hung
            # under their spine labels, are the tree
            pending = iter(calls)
            want = {}
            for l, (d, c) in enumerate(zip(spine.d, spine.c), start=1):
                want[spine.labels[l - 1]] = c
                for i in range(1, c + 1):
                    if i == d:
                        continue
                    while True:
                        cap, sub = next(pending)
                        assert cap == n - l
                        z = sub.gen_sizes()
                        if (z[-1] == 0) if i < d else (z[-1] != DELTA):
                            break
                    for lab, cnt in sub.child_count.items():
                        want[spine.labels[l - 1] + (i,) + lab] = cnt
            assert next(pending, None) is None
            assert tree.child_count == want
