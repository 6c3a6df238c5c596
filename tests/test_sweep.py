"""The one backward generation pass behind every exact reader.

``environments._sweep`` forms the points, the log gap and the log ladder
in one loop, and carries the chain rule for ``compose_eval``.  These
tests hold every reader built on it to the two-pass algorithm it
replaced (a backward sweep for the points, then a forward ladder over
them), bit for bit, and count its law lookups.  They also hold the split
at a repeated-law tail, where generations past the orbit's float fixed
point are filled in, to the plain loop (conftest's
``plain_compose_eval``), bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter

import numpy as np
import pytest

from conftest import LAW_A, LAW_B, plain_compose_eval
from defbranch import (
    ConditionedSampler,
    Constant,
    Environment,
    FiniteSupport,
    LinearFractional,
    NamedFamily,
    OffspringLaw,
    PreconditionError,
    Prefix,
    absorption_profile,
    absorption_scan,
    compose_eval,
    composed_points,
    conditioned_mean_bound,
    envelope_ratios,
    growth_rate,
    late_extinction_bounds,
    moments,
    mu_profile,
    spine_dist,
    survival_bounds,
    validate_prop4,
)
from defbranch import analysis, environments, trees
from defbranch.environments import _log, _running, _sweep

PREFIX = Prefix(
    tuple(FiniteSupport([0.1 + 0.02 * i, 0.3, 0.5 - 0.03 * i]) for i in range(10)), LAW_A
)
ENVS = {
    "law-a": Constant(LAW_A),
    "law-b": Constant(LAW_B),
    "example-2b": NamedFamily("example-2b"),
    "power-defect-3": NamedFamily("power-defect", {"a": 0.5, "b": 1.5, "arity": 3}),
    "prefix-10": PREFIX,
}
SIGMA = 0.8  # f_i(0.8) <= 0.8 for every law of every environment above

READERS = {
    "moments": moments,
    "bounds": survival_bounds,
    "bounds-c": lambda env, n: survival_bounds(env, n, c=2.5),
    "rates": growth_rate,
    "envelope": lambda env, n: envelope_ratios(env, 0.3, 0.6, 0.05, n),
    "mu": lambda env, n: mu_profile(env, n, s=0.4),
    "late": lambda env, n: late_extinction_bounds(env, SIGMA, n),
}


def two_pass(env, k, n, hi, lo=None, *, ladder=False, log0=0.0, second=False, at=(),
             regularity=False, order=None):
    """Reference: the backward sweep for the points and the gap (and the
    chain rule, passed through), then the forward ladder loop over the
    stored points, generation 1 first."""
    sw = _sweep(env, k, n, hi, lo, order=order)
    if not ladder:
        return sw
    assert k == 0
    d1, d2 = np.empty(n), np.empty(n if second else 0)
    ats, c12 = np.empty((len(at), n)), 0.0
    for j, tj in enumerate(sw.points[1:].tolist(), 1):
        law = env.law(j)
        d1[j - 1] = _log(law.pgf(tj, 1))
        if second:
            d2[j - 1] = _log(law.pgf(tj, 2))
        for m, s in enumerate(at):
            ats[m, j - 1] = _log(law.pgf(s, 1))
        if regularity:
            c12 = max(c12, law.regularity().c12)
    log_ladder = _running(d1, log0)
    log_var = d2 - d1 - log_ladder[1:] if second else None
    return sw._replace(log_ladder=log_ladder, log_var=log_var, at=tuple(ats), c12=c12)


def _outcome(reader, env, n):
    """The reader's fields, or the error it raised."""
    try:
        res = reader(env, n)
    except Exception as exc:  # both paths must fail alike
        return (type(exc), str(exc))
    return {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@pytest.mark.parametrize("n", [1, 2, 50, 2000])
@pytest.mark.parametrize("env", ENVS.values(), ids=ENVS.keys())
def test_fused_sweep_matches_two_passes(env, n, monkeypatch):
    with np.errstate(invalid="ignore"):  # power-defect-3 at 2000: nan, on both paths
        fused = {name: _outcome(r, env, n) for name, r in READERS.items()}
        monkeypatch.setattr(analysis, "_sweep", two_pass)
        monkeypatch.setattr(environments, "_sweep", two_pass)
        ref = {name: _outcome(r, env, n) for name, r in READERS.items()}
    for name in READERS:
        got, want = fused[name], ref[name]
        assert isinstance(got, dict) == isinstance(want, dict), name
        if not isinstance(got, dict):
            assert got == want, name
            continue
        bad = [k for k in want if not _same(got[k], want[k])]
        assert not bad, (name, bad)


class Counting(Environment):
    """An environment that counts its law lookups per generation."""

    def __init__(self, base: Environment):
        self.base = base
        self.calls: Counter[int] = Counter()

    def law(self, n: int):
        self.calls[n] += 1
        return self.base.law(n)


@pytest.mark.parametrize("name", [k for k in READERS if k != "late"])
def test_one_lookup_per_generation(name):
    env = Counting(PREFIX)
    READERS[name](env, 50)
    assert env.calls == Counter(range(1, 51))


def test_late_extinction_sigma_ladder_reads_each_generation_once():
    env = Counting(Constant(LAW_A))
    late_extinction_bounds(env, SIGMA, 50, proxy_horizon=100)
    # generations 1..50: the invariance check, the proxy points, the sigma
    # ladder and the two exact tails; 51..100: the check and two tail points
    assert env.calls == Counter({j: 5 if j <= 50 else 3 for j in range(1, 101)})


def test_spine_dist_sweeps_once():
    env = Counting(PREFIX)
    spine_dist(env, 3, 50)
    # generations 4..50 for f_{3,50}(0) and f_{3,50}(1), generation 3 for its law
    assert env.calls == Counter(range(3, 51))


def test_validate_prop4_reuses_the_samplers_survival(monkeypatch):
    real = trees.absorption_profile
    calls = []

    def counting(env, n):
        calls.append(n)
        return real(env, n)

    monkeypatch.setattr(trees, "absorption_profile", counting)
    env = Constant(LAW_A)
    rep = validate_prop4(env, 2, samples=30)
    assert calls == [2]  # the enumeration's; the rejection draws reuse the sampler's
    assert rep.exact_survival == real(env, 2).survival


@pytest.mark.parametrize(
    "env, reports", [(Constant(LAW_B), 1), (PREFIX, 11)], ids=["law-b", "prefix-10"]
)
def test_regularity_report_once_per_law_run(env, reports, monkeypatch):
    real = OffspringLaw.regularity
    calls = []

    def counting(law):
        calls.append(law)
        return real(law)

    monkeypatch.setattr(OffspringLaw, "regularity", counting)
    survival_bounds(env, 50)
    # generations 11..50 of the prefix share the tail's law object
    assert len(calls) == reports


# ---------------------------------------------------------------------------
# the split at a repeated-law tail
# ---------------------------------------------------------------------------

FINITE_4 = FiniteSupport([0.3, 0.25, 0.2, 0.15])  # defective, f(0.8) <= 0.8
SPLIT_ENVS = {
    "law-a": Constant(LAW_A),
    "law-b": Constant(LAW_B),
    "finite-4": Constant(FINITE_4),
    "prefix-10-law-b": Prefix(PREFIX.laws, LAW_B),
    "prefix-finite-4": Prefix(PREFIX.laws[:4], FINITE_4),
    # f(0) = 0: the orbit of 0 is a fixed point from the start
    "no-extinction": Constant(FiniteSupport([0.0, 0.5, 0.4])),
    # proper and critical: the orbit of 0 creeps up and never settles
    "critical": Constant(FiniteSupport([0.25, 0.5, 0.25])),
}
SPLIT_HORIZONS = [0, 1, 2, 11, 2000]


class Unsplit(Environment):
    """The same laws, the same objects, with no tail to split off:
    ``_fixed_from`` is None, so ``_sweep`` runs every generation."""

    def __init__(self, base: Environment):
        self.base = base

    def law(self, n: int):
        return self.base.law(n)


def _spine_sampler(env, n):
    cs = ConditionedSampler(env, n, extra_depth=1)
    rng = np.random.default_rng(5)
    # a tree alive at depth 2000 can hold millions of nodes: draw shallow ones
    draws = [cs.sample(rng) for _ in range(3)] if n <= 11 else []
    return {
        "live": cs._live, "die": cs._die, "log_surv": cs._log_surv,
        "spines": [dataclasses.astuple(sp) for sp in cs._spines],
        "trees": [t.serialize() for t, _ in draws],
        "records": [(r.d, r.c, r.labels) for _, r in draws],
    }


SPLIT_READERS = {
    # the proxy search of "late" runs to its 2^20-generation cap on the
    # critical law, so the split is checked at an explicit proxy horizon
    **{name: r for name, r in READERS.items() if name != "late"},
    "late-explicit": lambda env, n: late_extinction_bounds(env, SIGMA, n, proxy_horizon=2 * n),
    "absorption": absorption_profile,
    "scan": absorption_scan,
    "points-1": lambda env, n: composed_points(env, 0, n, 1.0),
    "points-0": lambda env, n: composed_points(env, 0, n, 0.0),
    "points-neg-zero": lambda env, n: composed_points(env, 0, n, -0.0),
    "points-window": lambda env, n: composed_points(env, n // 3, n, 0.3),
    "points-array": lambda env, n: composed_points(env, 0, n, np.array([0.0, 0.5, 1.0])),
    # its degree search composes coefficients; its sweep is the one of "rates"
    "cond-mean": lambda env, n: conditioned_mean_bound(env, min(n, 60)),
    "spine-first": lambda env, n: spine_dist(env, 1, n),
    "spine-middle": lambda env, n: spine_dist(env, max(1, n // 2), n),
    "spine-last": lambda env, n: spine_dist(env, n, n),
    "sampler": _spine_sampler,
}


def _bits(x):
    """x with every float as its bytes, so 0.0 and -0.0 differ and nan
    matches nan."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


def _fields(reader, env, n):
    """Every field of the reader's result, or the error it raised."""
    try:
        res = reader(env, n)
    except Exception as exc:  # both paths must fail alike
        return (type(exc), str(exc))
    if dataclasses.is_dataclass(res):
        res = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    return _bits(res)


@pytest.mark.parametrize("n", SPLIT_HORIZONS)
@pytest.mark.parametrize("env", SPLIT_ENVS.values(), ids=SPLIT_ENVS.keys())
def test_split_tail_matches_the_loop(env, n):
    with np.errstate(all="ignore"):
        for name, reader in SPLIT_READERS.items():
            got, want = _fields(reader, env, n), _fields(reader, Unsplit(env), n)
            assert got == want, name


# windows (k, n), the last ones long enough for every settling orbit to
# settle and be filled in
SPLIT_WINDOWS = [(0, 0), (0, 1), (1, 2), (0, 11), (3, 11), (0, 2000), (666, 2000),
                 (2000, 2000), (1000, 8000)]


@pytest.mark.parametrize("k, n", SPLIT_WINDOWS)
@pytest.mark.parametrize("env", SPLIT_ENVS.values(), ids=SPLIT_ENVS.keys())
def test_split_points_match_compose_eval(env, k, n):
    # the reference runs the plain loop, one law lookup per generation
    xs = (0.0, 1.0, 0.3, -0.0)
    for x in xs:
        got = _sweep(env, k, n, x).points[0]
        assert _bits(float(got)) == _bits(plain_compose_eval(env, k, n, x)), x
    for order in (0, 1, 2):
        for x in xs:
            got = compose_eval(env, k, n, x, order)
            assert type(got) is float, (x, order)
            assert _bits(got) == _bits(plain_compose_eval(env, k, n, x, order)), (x, order)
        arr = np.array(xs)
        got = compose_eval(env, k, n, arr, order)
        assert _bits(got) == _bits(plain_compose_eval(env, k, n, arr, order)), order


class CountingSplit(Counting):
    """A counting environment that keeps its base's repeated tail."""

    def _fixed_from(self):
        return self.base._fixed_from()


@pytest.mark.parametrize("name", [k for k in READERS if k != "late"])
def test_tail_law_looked_up_once(name):
    env = CountingSplit(Prefix(PREFIX.laws, LAW_B))
    READERS[name](env, 2000)
    # the ten head generations once each, the tail's law once in all
    assert env.calls == Counter(range(1, 12))


def test_compose_eval_looks_the_tail_law_up_once():
    env = CountingSplit(Prefix(PREFIX.laws, LAW_B))
    compose_eval(env, 0, 2000, 0.5, order=2)
    assert env.calls == Counter(range(1, 12))


def test_invariance_check_reads_the_tail_law_once():
    env = CountingSplit(Prefix(PREFIX.laws, LAW_B))
    analysis._check_upper(env, SIGMA, 0, 2000)
    # the ten head generations once each, the tail's law at generation 11
    assert env.calls == Counter(range(1, 12))
    bad = Prefix(PREFIX.laws, FiniteSupport([0.3, 0.7]))  # f(0.8) = 0.86 > 0.8
    for k, first in ((0, 11), (10, 11), (20, 21)):
        with pytest.raises(PreconditionError, match=f"at generation {first}$"):
            analysis._check_upper(bad, SIGMA, k, 2000)
    analysis._check_upper(bad, SIGMA, 0, 10)  # the window ends before the tail


def test_settled_tail_is_filled_in(monkeypatch):
    real = LinearFractional.pgf
    calls = []

    def counting(law, s, order=0):
        calls.append(order)
        return real(law, s, order)

    monkeypatch.setattr(LinearFractional, "pgf", counting)
    for n in (200, 20_000):
        calls.clear()
        moments(Constant(LAW_B), n)
        # the orbit of 1 under LAW_B reaches its float fixed point within
        # 200 generations; past it no generation calls the kernel
        assert len(calls) < 3 * 200
    calls.clear()
    moments(Unsplit(Constant(LAW_B)), 2000)
    assert len(calls) == 3 * 2000
