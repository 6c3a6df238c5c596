"""The count contract: every public function takes its generation counts,
sizes and seeds through one check, ``environments._whole``.

A count is an int, a numpy integer or an integral float such as 3.0, and
each of them gives the result that 3 gives, field for field and type for
type.  10.5, True, "3" and NaN are refused with PreconditionError naming
the argument, and so is a count below the argument's least value.
"""
from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

import defbranch
from conftest import LAW_A
from defbranch import (
    DELTA,
    ConditionedSampler,
    Constant,
    DefectiveTree,
    PreconditionError,
    absorption_profile,
    absorption_scan,
    compose_coeffs,
    compose_eval,
    composed_points,
    conditioned_mean_bound,
    criteria_verdicts,
    enumerate_conditioned,
    envelope_ratios,
    fixed_point_bracket,
    growth_rate,
    late_extinction_bounds,
    mode_agreement,
    moments,
    monte_carlo,
    mu_profile,
    prefix_key,
    prefix_prob,
    rejection_conditioned,
    run_path,
    sample_conditioned,
    sample_dbtve,
    spine_dist,
    survival_bounds,
    tree_stats,
    validate_prop4,
)

ENV = Constant(LAW_A)  # f(s) = 0.45 + 0.45 s^2: f(0) > 0, f(1) < 1, fixed point 0.627
FIGURE = DefectiveTree([[3], [2, 0, 2], [1, DELTA, 0, 2]])  # three root children
ALIVE = DefectiveTree([[2], [0, 2], [2, 0]])  # counted, and alive, through depth 3


def _rng() -> np.random.Generator:
    return np.random.default_rng(17)


def _sampled(sampler: ConditionedSampler):
    return sampler.n, sampler.extra_depth, sampler.sample(_rng())


# (qualified name, argument) -> (its least value, a call with the count v there)
COUNTS = {
    ("composed_points", "k"): (0, lambda v: composed_points(ENV, v, 5, 0.5)),
    ("composed_points", "n"): (0, lambda v: composed_points(ENV, 0, v, 0.5)),
    ("compose_eval", "k"): (0, lambda v: compose_eval(ENV, v, 5, 0.5, 2)),
    ("compose_eval", "n"): (0, lambda v: compose_eval(ENV, 0, v, 0.5, 2)),
    ("mu_profile", "n"): (0, lambda v: mu_profile(ENV, v, 0.5)),
    ("compose_coeffs", "n"): (0, lambda v: compose_coeffs(ENV, v, 8)),
    ("compose_coeffs", "degree"): (1, lambda v: compose_coeffs(ENV, 2, v)),
    ("Environment.shift", "by"): (0, lambda v: repr(ENV.shift(v))),
    ("absorption_profile", "n"): (0, lambda v: absorption_profile(ENV, v)),
    ("absorption_scan", "n"): (0, lambda v: absorption_scan(ENV, v)),
    ("AbsorptionScan.profile", "n"): (0, lambda v: absorption_scan(ENV, 5).profile(v)),
    ("moments", "n"): (0, lambda v: moments(ENV, v)),
    ("survival_bounds", "n"): (1, lambda v: survival_bounds(ENV, v)),
    ("criteria_verdicts", "horizons"): (2, lambda v: criteria_verdicts(ENV, (v, 10))),
    ("fixed_point_bracket", "n0"): (1, lambda v: fixed_point_bracket(ENV, v, 5)),
    ("fixed_point_bracket", "upto"): (0, lambda v: fixed_point_bracket(ENV, 1, v)),
    ("envelope_ratios", "n"): (0, lambda v: envelope_ratios(ENV, 0.6, 0.7, 0.05, v)),
    ("growth_rate", "n"): (1, lambda v: growth_rate(ENV, v)),
    ("late_extinction_bounds", "n"): (1, lambda v: late_extinction_bounds(ENV, 0.8, v)),
    ("late_extinction_bounds", "proxy_horizon"):
        (0, lambda v: late_extinction_bounds(ENV, 0.8, 2, v)),
    ("conditioned_mean_bound", "n"): (1, lambda v: conditioned_mean_bound(ENV, v)),
    ("run_path", "horizon"): (0, lambda v: run_path(ENV, v, seed=1)),
    ("run_path", "cap"): (1, lambda v: run_path(ENV, 6, seed=1, cap=v)),
    ("run_path", "seed"): (0, lambda v: run_path(ENV, 6, seed=v)),
    ("monte_carlo", "horizon"): (0, lambda v: monte_carlo(ENV, v, 40, 1)),
    ("monte_carlo", "reps"): (1, lambda v: monte_carlo(ENV, 4, v, 1)),
    ("monte_carlo", "cap"): (1, lambda v: monte_carlo(ENV, 6, 40, 1, cap=v)),
    ("monte_carlo", "snapshot_times"):
        (1, lambda v: monte_carlo(ENV, 4, 40, 1, snapshot_times=(v, 4))),
    ("monte_carlo", "master_seed"): (0, lambda v: monte_carlo(ENV, 4, 40, v)),
    ("mode_agreement", "horizon"): (0, lambda v: mode_agreement(ENV, v, 40, 1)),
    ("mode_agreement", "reps"): (1, lambda v: mode_agreement(ENV, 4, v, 1)),
    ("mode_agreement", "cap"): (1, lambda v: mode_agreement(ENV, 6, 40, 1, cap=v)),
    ("mode_agreement", "master_seed"): (0, lambda v: mode_agreement(ENV, 4, 40, v)),
    ("DefectiveTree.subtree", "child"): (-math.inf, lambda v: FIGURE.subtree(v)),
    ("prefix_key", "h"): (-math.inf, lambda v: prefix_key(FIGURE, v)),
    ("prefix_prob", "h"): (0, lambda v: prefix_prob(ENV, ALIVE, v)),
    ("sample_dbtve", "depth_cap"): (0, lambda v: sample_dbtve(ENV, _rng(), v)),
    ("spine_dist", "l"): (1, lambda v: spine_dist(ENV, v, 5)),
    ("spine_dist", "n"): (0, lambda v: spine_dist(ENV, 1, v)),
    ("ConditionedSampler", "n"): (1, lambda v: _sampled(ConditionedSampler(ENV, v))),
    ("ConditionedSampler", "extra_depth"):
        (0, lambda v: _sampled(ConditionedSampler(ENV, 2, extra_depth=v))),
    ("sample_conditioned", "n"): (1, lambda v: sample_conditioned(ENV, v, _rng())),
    ("sample_conditioned", "extra_depth"):
        (0, lambda v: sample_conditioned(ENV, 2, _rng(), extra_depth=v)),
    ("rejection_conditioned", "n"): (1, lambda v: rejection_conditioned(ENV, v, _rng())),
    ("rejection_conditioned", "extra_depth"):
        (0, lambda v: rejection_conditioned(ENV, 2, _rng(), extra_depth=v)),
    ("enumerate_conditioned", "n"): (1, lambda v: enumerate_conditioned(ENV, v)),
    ("enumerate_conditioned", "max_count"):
        (0, lambda v: enumerate_conditioned(ENV, 2, max_count=v)),
    ("tree_stats", "n"): (0, lambda v: tree_stats(FIGURE, v)),
    ("validate_prop4", "n"): (1, lambda v: validate_prop4(ENV, v, 20)),
    ("validate_prop4", "samples"): (1, lambda v: validate_prop4(ENV, 2, v)),
    ("validate_prop4", "max_count"): (0, lambda v: validate_prop4(ENV, 2, 20, max_count=v)),
    ("validate_prop4", "master_seed"): (0, lambda v: validate_prop4(ENV, 2, 20, v)),
}

# count-named parameters that are not a reader's counts: per-step lookups a
# checked reader makes with ints it checked, and a tree's unread metadata
NOT_COUNTS = {
    ("Environment.law", "n"),
    ("Constant.law", "n"),
    ("Prefix.law", "n"),
    ("NamedFamily.law", "n"),
    ("OffspringLaw.weight", "k"),
    ("FiniteSupport.weight", "k"),
    ("LinearFractional.weight", "k"),
    ("DefectiveTree", "cap"),
}

COUNT_NAMES = {arg for _, arg in COUNTS}
IDS = [f"{fn}-{arg}" for fn, arg in COUNTS]


def _same(x, y) -> bool:
    """x and y equal in every field, each of the same type, NaN equal to NaN."""
    if type(x) is not type(y):
        return False
    if dataclasses.is_dataclass(x):
        return all(_same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, DefectiveTree):
        return _same(x.gens, y.gens) and _same(x.cap, y.cap)
    if isinstance(x, np.ndarray):
        nan = x.dtype.kind in "fc"
        return x.dtype == y.dtype and np.array_equal(x, y, equal_nan=nan)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, dict):
        return _same(list(x), list(y)) and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, float) and math.isnan(x):
        return math.isnan(y)
    return x == y


@pytest.mark.parametrize("key", COUNTS, ids=IDS)
@pytest.mark.parametrize("three", [3.0, np.int64(3)], ids=["float", "int64"])
def test_integral_counts_act_as_ints(key, three):
    call = COUNTS[key][1]
    assert _same(call(three), call(3))


@pytest.mark.parametrize("key", COUNTS, ids=IDS)
@pytest.mark.parametrize("bad", [10.5, True, "3", math.nan], ids=["10.5", "True", "str", "nan"])
def test_other_values_are_refused(key, bad):
    arg = key[1]
    with pytest.raises(PreconditionError) as err:
        COUNTS[key][1](bad)
    assert str(err.value) == f"{arg} must be an integer, got {bad!r}"


@pytest.mark.parametrize("key", [k for k in COUNTS if COUNTS[k][0] > -math.inf],
                         ids=[i for k, i in zip(COUNTS, IDS) if COUNTS[k][0] > -math.inf])
def test_counts_below_the_least_are_refused(key):
    arg, (least, call) = key[1], COUNTS[key]
    with pytest.raises(PreconditionError) as err:
        call(least - 1)
    assert str(err.value) == f"need {arg} >= {least}, got {arg}={least - 1}"


def _public_signatures():
    """(qualified name, signature) of each public function, each public
    method and each constructor of a class that is not a record under
    ``defbranch.__all__``."""
    for name in defbranch.__all__:
        obj = getattr(defbranch, name)
        if inspect.isfunction(obj):
            yield obj.__qualname__, inspect.signature(obj)
        elif inspect.isclass(obj) and not issubclass(obj, Exception):
            if not dataclasses.is_dataclass(obj):  # a record's fields are not arguments
                yield obj.__qualname__, inspect.signature(obj)
            for attr, fn in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_"):
                    yield fn.__qualname__, inspect.signature(fn)


def test_every_count_named_parameter_is_in_the_table():
    found = {(qual, arg) for qual, sig in _public_signatures() for arg in sig.parameters
             if arg in COUNT_NAMES}
    assert found - NOT_COUNTS == set(COUNTS)
