"""Single-generation law behaviour against term-sum oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_pgf, oracle_fixed_point, rand_binary, rand_lf
from defbranch import (
    DELTA,
    FiniteSupport,
    InvalidLawError,
    LinearFractional,
    NamedFamily,
    law_from_dict,
)

THETA_A = 0.6267890062732586
THETA_B = 0.7298437881283575


class TestConstruction:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidLawError):
            FiniteSupport([0.5, -0.1, 0.4])

    def test_rejects_excess_mass(self):
        with pytest.raises(InvalidLawError, match="sum to"):
            FiniteSupport([0.6, 0.0, 0.6])

    def test_rejects_zero_mean(self):
        with pytest.raises(InvalidLawError, match="mean"):
            FiniteSupport([0.9])
        with pytest.raises(InvalidLawError):
            FiniteSupport([0.9, 0.0, 0.0])

    def test_shaves_rounding_dust(self):
        law = FiniteSupport([0.5, 0.5 + 5e-10])
        assert law.mass == 1.0
        assert law.defect == 0.0

    def test_rejects_bad_lf_params(self):
        with pytest.raises(InvalidLawError):
            LinearFractional(0.1, 0.4, 1.0)
        with pytest.raises(InvalidLawError):
            LinearFractional(0.1, -0.2, 0.5)
        with pytest.raises(InvalidLawError):
            LinearFractional(0.7, 0.4, 0.5)  # mass 1.5

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"kind": "finite"}, "weights"),
            ({"kind": "lf", "q": 0.1, "r": 0.4}, "p"),
            ({"kind": "lf", "r": 0.4, "p": 0.5}, "q"),
        ],
    )
    def test_dict_missing_key_names_it(self, obj, key):
        with pytest.raises(InvalidLawError, match=repr(key)):
            law_from_dict(obj)

    def test_dict_round_trip(self, law_a, law_b):
        for law in (law_a, law_b):
            clone = law_from_dict(law.to_dict())
            assert type(clone) is type(law)
            assert clone.pgf(0.37) == law.pgf(0.37)

    def test_dict_keeps_the_defect(self):
        # a named law keeps its d_2 = 1/8, which its weight 7/8 gives back
        law = NamedFamily("example-2a").law(2)
        assert law_from_dict(law.to_dict()).defect == law.defect == 0.125

    def test_dict_refuses_a_defect_its_weights_round(self):
        # c_60 = 1 - 2^-60 / 60 rounds to 1.0: the literal would build a proper law
        law = NamedFamily("example-2a").law(60)
        assert law.defect == 1.4456028966473392e-20
        assert law_from_dict({"kind": "finite", "weights": law.weights.tolist()}).defect == 0.0
        with pytest.raises(NotImplementedError) as err:
            law.to_dict()
        assert str(err.value) == (
            "FiniteSupport([0., 0., 1.]) has no config literal: its weights give the defect 0.0,"
            " not its own 1.4456028966473392e-20"
        )


class TestPgf:
    def test_values_match_term_sums(self, law_a, law_b):
        for law in (law_a, law_b):
            for s in (0.0, 0.2, 0.5, 0.9, 1.0):
                for order in (0, 1, 2):
                    assert law.pgf(s, order) == pytest.approx(
                        brute_pgf(law, s, order), rel=1e-12, abs=1e-12
                    )

    def test_random_laws_match_term_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            law = rand_binary(rng) if rng.random() < 0.5 else rand_lf(rng)
            s = rng.uniform(0.0, 1.0)
            for order in (0, 1, 2):
                assert law.pgf(s, order) == pytest.approx(
                    brute_pgf(law, s, order), rel=1e-11, abs=1e-12
                )

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(deadline=None, max_examples=150)
    def test_shape_properties(self, raw, s, t):
        total = sum(raw)
        if total <= 0.0 or sum(k * w for k, w in enumerate(raw)) <= 0.0:
            return
        w = [x / total * 0.97 for x in raw]
        law = FiniteSupport(w)
        lo, hi = min(s, t), max(s, t)
        assert law.pgf(lo) <= law.pgf(hi) + 1e-15
        assert law.pgf(s, 2) >= 0.0
        assert law.pgf(1.0) == pytest.approx(law.mass, abs=1e-12)
        # symmetric up to rounding: the recurrence runs in swapped order
        assert law.divided_difference(s, t) == pytest.approx(
            law.divided_difference(t, s), rel=1e-14
        )

    def test_integral_orders_act_as_ints(self, law_a, law_b):
        for law in (law_a, law_b):
            for s in (0.3, np.array([0.2, 0.9])):
                for order in (0, 1, 2):
                    want = law.pgf(s, order)
                    for same in (float(order), np.int64(order)):
                        got = law.pgf(s, same)
                        assert type(got) is type(want) and np.array_equal(got, want)
            # False and True equal 0 and 1, but are no orders
            for bad in (3, -1, 1.5, True, False, np.True_, np.False_):
                for s in (0.3, np.array([0.2, 0.9])):
                    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
                        law.pgf(s, bad)

    def test_mass_and_moments(self, law_a, law_b):
        assert law_a.mass == pytest.approx(0.9, abs=1e-15)
        assert law_a.mean == pytest.approx(0.9, abs=1e-15)
        assert law_a.second_factorial == pytest.approx(0.9, abs=1e-15)
        assert law_b.mass == pytest.approx(0.9, abs=1e-15)
        assert law_b.mean == pytest.approx(0.8, abs=1e-15)
        assert law_b.second_factorial == pytest.approx(1.6, abs=1e-15)


class TestDividedDifference:
    def test_matches_quotient_when_separated(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            law = rand_binary(rng) if rng.random() < 0.5 else rand_lf(rng)
            a, b = sorted(rng.uniform(0.0, 1.0, size=2))
            if b - a < 0.05:
                continue
            want = (law.pgf(b) - law.pgf(a)) / (b - a)
            assert law.divided_difference(a, b) == pytest.approx(want, rel=1e-12)

    def test_coincident_arguments_give_derivative(self, law_a, law_b):
        for law in (law_a, law_b):
            for s in (0.0, 0.3, 0.9, 1.0):
                assert law.divided_difference(s, s) == law.pgf(s, 1)

    def test_stable_under_cancellation(self, law_a, law_b):
        # naive quotient loses ~8 digits here; closed form must not
        for law in (law_a, law_b):
            a = 0.614159
            b = a + 1e-13
            assert law.divided_difference(a, b) == pytest.approx(
                law.pgf(a, 1), rel=1e-9
            )


class TestScalarPath:
    """Floats and arrays share one kernel per operation.  A float or 0-d
    argument must return a Python float equal, with ==, to what a
    one-element array gives (to what a 0-d array gives for the
    linear-fractional f''), and every input kind must equal an
    independent numpy reference: ``polyval`` over ``polyder``'s
    coefficients, the linear-fractional closed forms, and the ``h_k``
    recurrence on arrays.  The linear-fractional f'' on 1-D and 2-D
    arrays must equal the float path entry by entry, with ==."""

    @staticmethod
    def _laws():
        rng = np.random.default_rng(20)
        laws = []
        for _ in range(40):
            k = int(rng.integers(1, 9))  # 1 to 8 weights past f[0]
            w = rng.random(k + 1) * (rng.random(k + 1) < 0.6)  # some zero
            w[k] += 1e-3
            mass = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 0.99)
            laws.append(FiniteSupport(w / w.sum() * mass))
        laws += [rand_lf(rng) for _ in range(20)]
        return laws

    POINTS = (0.0, 1e-300, 0.2, 0.5, 0.731, 0.999999, 1.0, -0.4, 1.7, 2.0)

    # input kinds: the scalar ones must come back as Python floats
    SCALAR_KINDS = (float, np.float64, np.asarray)
    ARRAY_KINDS = (lambda s: np.array([s]), lambda s: np.full((2, 3), s))

    @staticmethod
    def _pgf_reference(law, s, order):
        if isinstance(law, FiniteSupport):
            return npoly.polyval(s, npoly.polyder(law.weights, order))
        den = 1.0 - law.p * s
        return (law.q + law.r / den, law.r * law.p / den**2, 2.0 * law.r * law.p**2 / den**3)[order]

    @staticmethod
    def _dd_reference(law, a, b):
        if isinstance(law, LinearFractional):
            return law.r * law.p / ((1.0 - law.p * a) * (1.0 - law.p * b))
        h = np.zeros(np.broadcast(a, b).shape)
        out = np.zeros_like(h)
        apow = np.ones_like(h)
        for k in range(1, law.weights.size):
            h = apow + b * h
            apow = apow * a
            if law.weights[k] != 0.0:
                out = out + law.weights[k] * h
        return out

    def test_pgf(self):
        for law in self._laws():
            lf2 = isinstance(law, LinearFractional)
            for s in self.POINTS:
                for order in (0, 1, 2):
                    if lf2 and order == 2:
                        # numpy's vectorised power rounds den**3 differently
                        # from its scalar power on some inputs; the kernel
                        # and the reference both take the scalar power
                        want = law.pgf(np.asarray(s), order)
                        ref = self._pgf_reference(law, np.float64(s), order)
                    else:
                        want = law.pgf(np.array([s]), order)[0]
                        ref = self._pgf_reference(law, np.array([s]), order)[0]
                    for kind in self.SCALAR_KINDS:
                        got = law.pgf(kind(s), order)
                        assert type(got) is float
                        assert got == want == ref
                    for kind in self.ARRAY_KINDS:
                        x = kind(s)
                        got = law.pgf(x, order)
                        assert got.shape == x.shape
                        if lf2 and order == 2:
                            assert np.all(got == law.pgf(float(s), order))
                        else:
                            assert np.array_equal(got, self._pgf_reference(law, x, order))

    def test_divided_difference(self):
        for law in self._laws():
            for a in self.POINTS:
                for b in (a, 0.0, 0.37, 1.0):
                    want = law.divided_difference(np.array([a]), np.array([b]))[0]
                    assert want == self._dd_reference(law, np.array([a]), np.array([b]))[0]
                    for kind in self.SCALAR_KINDS:
                        got = law.divided_difference(kind(a), kind(b))
                        assert type(got) is float
                        assert got == want
                    for kind in self.ARRAY_KINDS:
                        x, y = kind(a), kind(b)
                        got = law.divided_difference(x, y)
                        assert np.array_equal(got, self._dd_reference(law, x, y))
                        # mixed shapes broadcast
                        got = law.divided_difference(x, b)
                        assert got.shape == x.shape
                        assert np.array_equal(got, self._dd_reference(law, x, np.asarray(b)))

    def test_numpy_scalars_and_pole(self):
        law = LinearFractional(0.1, 0.4, 0.5)  # pole at s = 2
        with np.errstate(divide="ignore"):
            for order in (0, 1, 2):
                assert law.pgf(2.0, order) == law.pgf(np.array([2.0]), order)[0] == math.inf
            assert law.divided_difference(2.0, 0.5) == math.inf
        fs = FiniteSupport([0.2, 0.3, 0.0, 0.4])
        assert fs.pgf(np.float64(0.3), 1) == fs.pgf(0.3, 1)
        assert type(fs.pgf(np.float64(0.3), 1)) is float


class TestFixedPoint:
    def test_frozen_examples(self, law_a, law_b):
        ta = law_a.fixed_point()
        tb = law_b.fixed_point()
        assert ta == pytest.approx(THETA_A, abs=1e-6)
        assert tb == pytest.approx(THETA_B, abs=1e-6)
        assert abs(law_a.pgf(ta) - ta) <= 1e-12
        assert abs(law_b.pgf(tb) - tb) <= 1e-12

    def test_no_mass_at_zero_means_none(self):
        assert FiniteSupport([0.0, 0.5, 0.4]).fixed_point() is None

    def test_proper_subcritical_means_none(self):
        assert FiniteSupport([0.5, 0.5]).fixed_point() is None
        assert FiniteSupport([0.25, 0.5, 0.25]).fixed_point() is None

    def test_proper_subcritical_lf_means_none(self):
        # mass 1.0 and mean 0.4: the process dies out almost surely
        law = LinearFractional(0.6, 0.2, 0.5)
        assert law.mass == 1.0
        assert law.fixed_point() is None

    def test_normalized_subcritical_binary_laws_mean_none(self):
        rng = np.random.default_rng(3)
        laws = [FiniteSupport(w / w.sum()) for w in rng.random((600, 3))]
        sub = [law for law in laws if law.mean <= 1.0]
        assert len(sub) > 250
        assert [law for law in sub if law.fixed_point() is not None] == []

    def test_proper_supercritical_has_root(self):
        law = FiniteSupport([0.25, 0.0, 0.75])
        root = law.fixed_point()
        assert root == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_random_laws_match_bisection(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            law = rand_binary(rng) if rng.random() < 0.5 else rand_lf(rng)
            got = law.fixed_point()
            want = oracle_fixed_point(law)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-10)

    def test_wider_support_uses_bisection_fallback(self):
        for weights in (
            [0.3, 0.1, 0.1, 0.2, 0.25],  # defective
            [0.2, 0.1, 0.3, 0.4],  # proper, f(0.25) = 0.25 exactly
            [0.3, 0.4, 0.2, 0.1],  # proper, root near 0.79129
        ):
            law = FiniteSupport(weights)
            want = oracle_fixed_point(law)
            assert want is not None
            assert law.fixed_point() == pytest.approx(want, abs=1e-10), weights
        assert FiniteSupport([0.2, 0.1, 0.3, 0.4]).fixed_point() == pytest.approx(0.25, abs=1e-12)
        # proper and supercritical with f[0] = 0: no fixed point inside (0, 1)
        assert FiniteSupport([0.0, 0.2, 0.3, 0.5]).fixed_point() is None


class TestNormalizeAndCoeffs:
    def test_normalize_scales_weights(self, law_a):
        g = law_a.normalize()
        assert g.defect == 0.0
        assert g.weight(0) == pytest.approx(0.5, abs=1e-15)
        assert g.weight(2) == pytest.approx(0.5, abs=1e-15)

    def test_normalize_proper_is_identity_shape(self):
        law = FiniteSupport([0.5, 0.5])
        g = law.normalize()
        assert g.weight(1) == pytest.approx(0.5)
        assert g.mass == 1.0

    def test_lf_normalize(self, law_b):
        g = law_b.normalize()
        assert g.mass == pytest.approx(1.0, abs=1e-12)
        assert g.pgf(0.5) == pytest.approx(law_b.pgf(0.5) / 0.9, rel=1e-14)

    def test_coeff_vector_tail(self, law_b):
        v = law_b.coeff_vector()
        assert v.sum() == pytest.approx(law_b.mass, rel=1e-12)
        for k in range(5):
            assert v[k] == pytest.approx(law_b.weight(k), rel=1e-13)
        loose = law_b.coeff_vector(rel_tail=1e-4)
        assert loose.size < v.size
        assert law_b.mass - loose.sum() <= 1e-4 * law_b.mass

    def test_weight_matches_series(self, law_b):
        assert law_b.weight(0) == pytest.approx(0.5, abs=1e-15)
        assert law_b.weight(3) == pytest.approx(0.4 * 0.5**3, rel=1e-14)


class TestRegularity:
    def test_law_a_exact(self, law_a):
        rep = law_a.regularity()
        # all child mass of law A sits at 2, so the tails are the moments
        assert rep.m1_tail == pytest.approx(0.9, abs=1e-14)
        assert rep.m2_tail == pytest.approx(1.8, abs=1e-14)
        assert rep.cond_mean == pytest.approx(2.0, abs=1e-14)
        assert rep.c8 == pytest.approx(1.0, abs=1e-14)
        assert rep.c12 == pytest.approx(2.0, abs=1e-14)
        assert rep.c8_finite and rep.c12_finite

    def test_law_b_closed_forms(self, law_b):
        rep = law_b.regularity()
        # term sums from the geometric tail: E[X; X>=2] and E[X^2; X>=2]
        ws = {k: 0.4 * 0.5**k for k in range(1, 220)}
        m1t = sum(k * w for k, w in ws.items() if k >= 2)
        m2t = sum(k * k * w for k, w in ws.items() if k >= 2)
        mean = sum(k * w for k, w in ws.items())
        p_ge1 = sum(ws.values())
        assert rep.m1_tail == pytest.approx(m1t, rel=1e-12)
        assert rep.m2_tail == pytest.approx(m2t, rel=1e-12)
        assert rep.cond_mean == pytest.approx(mean / p_ge1, rel=1e-12)
        assert rep.c8 == pytest.approx((m2t / m1t) / (mean / p_ge1), rel=1e-12)
        assert rep.c12 == pytest.approx(m2t / m1t, rel=1e-12)

    @pytest.mark.parametrize(
        "law", [FiniteSupport([0.5, 1e-20]), LinearFractional(0.1, 0.4, 1e-17)], ids=["finite", "lf"]
    )
    def test_tiny_mass_above_zero(self, law):
        # f(1) - f[0] cancels to 0.0 here: P[X >= 1] is summed on its own
        rep = law.regularity()
        assert rep.cond_mean == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("p", [1e-17, 1e-6, 0.3, 0.9])
    def test_lf_tails_match_term_sums(self, p):
        # r (p / (1-p)^2 - p) cancels as p -> 0; the closed forms do not
        r = 0.4 * (1.0 - p)
        ks = range(2, 2000)
        m1t = math.fsum(k * r * p**k for k in ks)
        m2t = math.fsum(k * k * r * p**k for k in ks)
        rep = LinearFractional(0.0, r, p).regularity()
        assert rep.m1_tail == pytest.approx(m1t, rel=4e-15, abs=0.0)
        assert rep.m2_tail == pytest.approx(m2t, rel=4e-15, abs=0.0)

    def test_no_tail_mass_is_vacuous(self):
        rep = FiniteSupport([0.4, 0.5]).regularity()
        assert rep.m1_tail == 0.0
        assert rep.c8 == 0.0
        assert rep.c12 == 0.0


class TestSampling:
    def test_finite_support_frequencies(self, law_a):
        rng = np.random.default_rng(101)
        draws = law_a.sample(rng, size=200_000)
        scipy_stats = pytest.importorskip("scipy.stats")
        counts = [
            int((draws == DELTA).sum()),
            int((draws == 0).sum()),
            int((draws == 2).sum()),
        ]
        expect = np.array([0.1, 0.45, 0.45]) * draws.size
        res = scipy_stats.chisquare(counts, expect)
        assert res.pvalue > 1e-3

    def test_lf_frequencies(self, law_b):
        rng = np.random.default_rng(103)
        draws = law_b.sample(rng, size=200_000)
        scipy_stats = pytest.importorskip("scipy.stats")
        probs = [0.1] + [law_b.weight(k) for k in range(9)]
        probs.append(1.0 - sum(probs))  # 9+
        counts = [int((draws == DELTA).sum())]
        counts += [int((draws == k).sum()) for k in range(9)]
        counts.append(int((draws >= 9).sum()))
        res = scipy_stats.chisquare(counts, np.array(probs) * draws.size)
        assert res.pvalue > 1e-3

    def test_sample_values_legal(self, law_a):
        rng = np.random.default_rng(5)
        draws = law_a.sample(rng, size=1000)
        assert set(np.unique(draws)) <= {DELTA, 0, 2}
