"""Monte Carlo simulation of populations under killing environments.

Two samplers of the same process:

* ``direct`` draws every individual's fate from the raw law, killing the
  whole path as soon as any individual draws the graveyard.
* ``coupled`` first decides whether the path dies this generation (one
  Bernoulli with the exact path-kill probability given the current
  size), then advances the size by the normalized law.

A path's int64 size is its whole state: DELTA once killed, 0 once
extinct, above the cap once overflowed, alive in 1..cap; only alive
paths are drawn.  Both samplers use one vectorized pass per generation
over blocks of ``BLOCK`` = 16384 replicates, run one after another on
the calling thread; ``run_path`` is a block of one path.  A block's
working arrays (its sizes, the index of its alive paths and one
generation's draws, formed in place) take under 44 bytes per path, so a
block works in under 1 MiB.  Each block is reduced as it returns, to
the four counts read off the sizes, the alive histogram and the exact
integer sums of the alive sizes and of their squares; a run keeps
per-replicate columns only for snapshot times, its one per-path output,
which each block writes into its slice.  Each block owns a
counter-based bit stream keyed by (master_seed, mode, block index), and
reductions run in block order, so results depend on neither the order
nor the place the blocks ran in; the width decides which paths share a
stream, so a run of more than one block changes with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .environments import Environment, _whole, mu_profile
from .laws import (
    DELTA,
    FiniteSupport,
    LinearFractional,
    OffspringLaw,
    PreconditionError,
    _plain,
    _rng,
)

__all__ = [
    "BLOCK",
    "DEFAULT_CAP",
    "Terminal",
    "PathSample",
    "run_path",
    "McSummary",
    "monte_carlo",
    "AgreementReport",
    "mode_agreement",
]

BLOCK = 16384
DEFAULT_CAP = 10**7

EXTINCT = "extinct"
KILLED = "killed"
ALIVE = "alive"
OVERFLOW = "overflow"

_MODE_ID = {"direct": 1, "coupled": 2}


@dataclass(frozen=True)
class Terminal:
    """How a path ended: kind is one of extinct/killed/alive/overflow,
    time the generation it happened (horizon for alive paths), value the
    population size then (0, -1 for killed, or the surviving count)."""

    kind: str
    time: int
    value: int


@dataclass(frozen=True)
class PathSample:
    """One trajectory: sizes[g] is the population at generation g, with
    -1 once killed and the last value frozen after overflow."""

    sizes: np.ndarray
    terminal: Terminal
    mode: str


def _offspring_counts(
    rng: np.random.Generator, z: np.ndarray, law: OffspringLaw
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance populations one generation under the raw law.

    z must be positive, and is used up: the counts are formed in its
    buffer and those of the draws.  Returns (sums, killed): total
    offspring per path and whether any individual on the path drew the
    graveyard, None for a law with no defect.  The multinomial split is
    realised as sequential conditional binomials in fixed support order,
    which keeps the draw count small and the stream layout deterministic.
    """
    killed = None
    rem = z
    if law.defect > 0.0:
        c_kill = rng.binomial(z, law.defect)
        killed = c_kill > 0
        rem = np.subtract(z, c_kill, out=c_kill)
        del z  # the caller keeps no reference, so the sizes' buffer goes
    if isinstance(law, FiniteSupport):
        w = law.weights
        support = np.flatnonzero(w)
        total = None  # the sum of k c over the counts c drawn so far
        rem_mass = law.mass
        for k in support[:-1]:
            c = rng.binomial(rem, min(1.0, w[k] / rem_mass))
            rem -= c
            rem_mass -= w[k]
            if k:
                c *= k
                total = c if total is None else np.add(total, c, out=total)
            del c  # before the next draw
        rem *= support[-1]
        if total is not None:
            rem += total
        return rem, killed
    if isinstance(law, LinearFractional):
        rem -= rng.binomial(rem, min(1.0, (law.q + law.r) / law.mass))
        pos = rem > 0
        if np.any(pos):
            # each positive individual contributes 1 + geometric(p) extra
            m = rem[pos]
            m += rng.negative_binomial(m, 1.0 - law.p)
            rem[pos] = m
        return rem, killed
    raise TypeError(f"no sampler for law type {type(law).__name__}")


def _active(z: np.ndarray, cap: int) -> np.ndarray:
    """Which paths of sizes z are alive, still drawn: those in 1..cap."""
    return (z >= 1) & (z <= cap)


def _advance(rng: np.random.Generator, env: Environment, n: int, mode: str,
             z: np.ndarray, cap: int) -> int:
    """Draw generation n for the alive paths, updating their sizes z in
    place: a killed path's size becomes DELTA, also when it passed cap.
    Returns the number of paths drawn for, 0 once every path stopped."""
    act = np.flatnonzero(_active(z, cap))
    if act.size:
        law = env.law(n)
        if mode == "coupled":
            # 1 - (1 - defect)**z, the chance one of z individuals is killed
            kill_p = z[act].astype(np.float64)
            kill_p *= math.log1p(-law.defect)
            np.expm1(kill_p, out=kill_p)
            killed = rng.random(act.size) < np.negative(kill_p, out=kill_p)
            del kill_p  # before the offspring draws
            sums, _ = _offspring_counts(rng, z[act], law.normalize())
        else:
            sums, killed = _offspring_counts(rng, z[act], law)
        z[act] = sums
        if killed is not None:
            z[act[killed]] = DELTA
    return act.size


def _run_block(env: Environment, horizon: int, mode: str, rng: np.random.Generator,
               size: int, cap: int, times: Sequence[int], out: np.ndarray) -> np.ndarray:
    """One block of ``size`` paths drawn from ``rng``: their sizes at the
    horizon.  Row i of ``out`` gets the sizes at ``times[i]`` (increasing,
    in 1..horizon): the block's columns of the run's snapshot rows.  Once
    a generation finds no path to draw for, the sizes stand, and fill the
    rows left in one step."""
    z = np.ones(size, dtype=np.int64)
    i = 0
    for n in range(1, horizon + 1):
        if not _advance(rng, env, n, mode, z, cap):
            break
        if i < len(times) and times[i] == n:
            out[i] = z
            i += 1
    out[i:] = z
    return z


def _check_run(mode: str, horizon: int, cap: int) -> tuple[int, int]:
    """The preconditions of a simulated run, one path or many: horizon
    and cap, as Python ints."""
    if mode not in _MODE_ID:
        raise PreconditionError(f"unknown mode {mode!r}")
    return _whole(horizon, "horizon"), _whole(cap, "cap", 1)


def run_path(
    env: Environment,
    horizon: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int = 0,
    mode: str = "direct",
    cap: int = DEFAULT_CAP,
) -> PathSample:
    """Simulate a single trajectory, recording every generation: a block
    of one path, with every generation a snapshot."""
    horizon, cap = _check_run(mode, horizon, cap)
    seed = _whole(seed, "seed")
    if rng is None:
        rng = _rng(seed)
    sizes = np.ones(horizon + 1, dtype=np.int64)
    _run_block(env, horizon, mode, rng, 1, cap, range(1, horizon + 1), sizes[1:, None])
    stopped = np.flatnonzero(~_active(sizes, cap))
    end = int(sizes[-1])
    kind = {DELTA: KILLED, 0: EXTINCT}.get(end, OVERFLOW if end > cap else ALIVE)
    time = int(stopped[0]) if stopped.size else horizon
    return PathSample(sizes=sizes, terminal=Terminal(kind, time, end), mode=mode)


@dataclass(frozen=True)
class McSummary:
    """Aggregate of a Monte Carlo run.

    Probability estimates condition on the path not overflowing the
    population cap (overflown paths stopped being simulated early, so
    their terminal state at the horizon is unknown); n_overflow reports
    how many were set aside.  w_mean/w_var describe W = Z_n / mu_n where
    mu_n is the product of per-generation means taken at full mass, over
    all non-overflow paths with absorbed paths contributing zero.  When
    any law is defective E[W] sits below one: killing removes mass that
    the mean product does not account for.

    The sizes at the horizon are ``snapshots[horizon]`` for a run asked
    for that snapshot; the four counts are read off the sizes: DELTA
    killed, 0 extinct, above cap overflowed, alive otherwise.
    """

    horizon: int
    reps: int
    mode: str
    master_seed: int
    cap: int
    n_extinct: int
    n_killed: int
    n_alive: int
    n_overflow: int
    p_survival: float
    p_survival_se: float
    p_extinct: float
    p_extinct_se: float
    p_killed: float
    p_killed_se: float
    mean_alive: float
    mean_alive_se: float
    alive_hist: np.ndarray
    alive_hist_tail: int
    w_mean: float
    w_var: float
    w_se: float
    log_mu: float
    snapshots: Mapping[int, np.ndarray] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _plain(self, skip=("snapshots",))


def monte_carlo(
    env: Environment,
    horizon: int,
    reps: int,
    master_seed: int = 0,
    *,
    mode: str = "direct",
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    snapshot_times: Iterable[int] = (),
) -> McSummary:
    """Run replicated paths and aggregate.

    Replicates are processed in blocks of ``BLOCK`` (16384) paths, the
    last one partial; each block's randomness depends only on
    (master_seed, mode, block index) and the reduction runs in block
    order.  ``workers`` caps the threads the blocks run on, and one
    thread, the caller's, meets any cap: numpy's binomial draws hold
    the GIL, so more threads only add switching.  A
    path whose population passes ``cap`` (at least 1) stops and counts
    as overflowed.  horizon, reps, cap, master_seed and the snapshot
    times are counts (3.0 is one, a numpy integer too; see
    ``environments._whole``), and snapshot times lie in 1..horizon.

    Each block is reduced as it returns, so the only memory per
    replicate is one int64 per snapshot time: the one per-path output,
    with the final sizes at ``snapshot_times=(horizon,)``.  Beyond it a
    run holds one block's working arrays, under 44 bytes a path and so
    under 1 MiB, at any ``reps``.  The means, variances and standard
    errors are formed from exact integer sums of the alive sizes and
    their squares, each rounded once from its exact value (W's taking
    exp(-log_mu) as the float it rounds to), so the summary does not
    depend on the snapshot times.
    """
    horizon, cap = _check_run(mode, horizon, cap)
    reps, master_seed = _whole(reps, "reps", 1), _whole(master_seed, "master_seed")
    snaps_at = sorted({_whole(t, "snapshot_times", 1) for t in snapshot_times})
    if snaps_at and snaps_at[-1] > horizon:
        raise PreconditionError("snapshot times must lie in 1..horizon")
    snap = np.empty((len(snaps_at), reps), dtype=np.int64)
    hist = np.zeros(21, dtype=np.int64)
    n_ext = n_kill = n_over = 0
    s1 = s2 = 0  # sums of the alive sizes and of their squares
    for b, lo in enumerate(range(0, reps, BLOCK)):
        hi = min(lo + BLOCK, reps)
        rng = _rng(master_seed, _MODE_ID[mode], b)
        bz = _run_block(env, horizon, mode, rng, hi - lo, cap, snaps_at, snap[:, lo:hi])
        n_ext += int(np.count_nonzero(bz == 0))
        n_kill += int(np.count_nonzero(bz == DELTA))
        n_over += int(np.count_nonzero(bz > cap))
        alive = bz[_active(bz, cap)]
        b1, b2 = _sums(alive)
        hist += np.bincount(np.minimum(alive, 20, out=alive), minlength=21)
        s1 += b1
        s2 += b2
        del bz, alive  # before the next block

    n_alive = reps - n_ext - n_kill - n_over
    n_eff = reps - n_over
    p_surv, se_surv = _prop(n_alive, n_eff)
    p_ext, se_ext = _prop(n_ext, n_eff)
    p_kill, se_kill = _prop(n_kill, n_eff)
    mean_alive, _, mean_alive_se = _moments(n_alive, s1, s2)
    log_mu = mu_profile(env, horizon).log_mu
    w_mean, w_var, w_se = _w_moments(n_eff, s1, s2, log_mu)

    return McSummary(
        horizon=horizon,
        reps=reps,
        mode=mode,
        master_seed=master_seed,
        cap=cap,
        n_extinct=n_ext,
        n_killed=n_kill,
        n_alive=n_alive,
        n_overflow=n_over,
        p_survival=p_surv,
        p_survival_se=se_surv,
        p_extinct=p_ext,
        p_extinct_se=se_ext,
        p_killed=p_kill,
        p_killed_se=se_kill,
        mean_alive=mean_alive,
        mean_alive_se=mean_alive_se,
        alive_hist=hist,
        alive_hist_tail=int(hist[20]),
        w_mean=w_mean,
        w_var=w_var,
        w_se=w_se,
        log_mu=log_mu,
        snapshots=dict(zip(snaps_at, snap)),
    )


def _prop(k: int, n: int) -> tuple[float, float]:
    if n <= 0:
        return float("nan"), float("nan")
    p = k / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


def _sums(z: np.ndarray) -> tuple[int, int]:
    """The exact sums of the sizes z >= 1 and of their squares: in int64
    where neither can wrap, in Python ints otherwise (cap is any int)."""
    if not z.size:
        return 0, 0
    top = int(z.max())
    if top * top * z.size < 2**63:
        return int(z.sum()), int(z @ z)
    zs = z.tolist()
    return sum(zs), sum(x * x for x in zs)


def _quotient(num: int, den: int) -> float:
    """num / den for ints num >= 0 and den > 0, rounded once; inf past
    the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _sqrt_quotient(num: int, den: int) -> float:
    """sqrt(num / den) for ints num >= 0 and den > 0, rounded once."""
    # r = floor(sqrt(num / den) 2**k) has at least 56 bits, where every
    # float and every tie between two is an even integer, so setting r's
    # low bit when the root is inexact keeps float(r) from a false tie
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * k
    r = math.isqrt(scaled // den)
    if r * r * den != scaled:
        r |= 1
    try:
        return math.ldexp(float(r), -k)
    except OverflowError:
        return math.inf


def _moments(n: int, s1: int, s2: int, p: int = 1, q: int = 1) -> tuple[float, float, float]:
    """Mean, variance (ddof=1) and standard error sqrt(variance / n) of n
    values x p / q, from the sums s1 of the x and s2 of their squares,
    each rounded once from its exact value: nan for no value, spread 0.0
    for one."""
    if n == 0:
        return math.nan, math.nan, math.nan
    mean = _quotient(s1 * p, n * q)
    if n == 1:
        return mean, 0.0, 0.0
    ss = (n * s2 - s1 * s1) * p * p  # n (n - 1) q**2 times the variance
    den = n * (n - 1) * q * q
    return mean, _quotient(ss, den), _sqrt_quotient(ss, den * n)


def _w_moments(n: int, s1: int, s2: int, log_mu: float) -> tuple[float, float, float]:
    """``_moments`` of W = Z_n exp(-log_mu) over n paths whose alive sizes
    sum to s1, squares to s2: absorbed paths have W = 0 exactly, also
    where exp(-log_mu) overflows."""
    if s1 == 0:
        return _moments(n, 0, 0)
    e = float(np.exp(-log_mu))  # numpy's inf and overflow warning, where math.exp raises
    if not math.isfinite(e):  # the array formula's inf (or nan) mean, and nan spread
        spread = math.nan if n > 1 else 0.0
        return e, spread, spread
    return _moments(n, s1, s2, *e.as_integer_ratio())


# ---------------------------------------------------------------------------
# two-mode agreement
# ---------------------------------------------------------------------------

_BIN_LABELS = ("killed", "0") + tuple(str(k) for k in range(1, 10)) + ("10+",)


@dataclass(frozen=True)
class AgreementReport:
    """Distributional comparison of the two samplers at one horizon.

    Terminal states are binned as {killed, 0, 1..9, 10+} (overflow
    lands in 10+).  tv is the total variation distance between the two
    empirical laws, passed requires tv <= 3 sqrt(B / reps) with B the
    number of bins either sampler hit.  chi2 is the two-sample statistic
    over those bins.  degenerate flags a single-bin comparison, which is
    vacuous rather than wrong.
    """

    horizon: int
    reps: int
    master_seed: int
    bins: tuple[str, ...]
    counts_direct: np.ndarray
    counts_coupled: np.ndarray
    tv: float
    threshold: float
    chi2: float
    dof: int
    passed: bool
    degenerate: bool

    def to_dict(self) -> dict:
        return _plain(self)


def mode_agreement(
    env: Environment,
    horizon: int,
    reps: int,
    master_seed: int = 0,
    *,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> AgreementReport:
    """Run both samplers on disjoint streams and compare terminal laws.
    ``workers`` is a thread cap, met as ``monte_carlo`` meets it."""
    out = {}
    for mode in ("direct", "coupled"):
        s = monte_carlo(env, horizon, reps, master_seed, mode=mode, cap=cap)
        h = s.alive_hist
        out[mode] = np.array(
            [s.n_killed, s.n_extinct, *h[1:10], int(h[10:].sum()) + s.n_overflow], dtype=np.int64
        )
    horizon, reps, master_seed = s.horizon, s.reps, s.master_seed  # as monte_carlo checked them
    c1, c2 = out["direct"], out["coupled"]
    occupied = (c1 + c2) > 0
    b = int(np.sum(occupied))
    # with one occupied bin both samplers agree exactly: tv = chi2 = 0
    tv = 0.5 * float(np.abs(c1 / reps - c2 / reps).sum())
    threshold = 3.0 * float(np.sqrt(b / reps)) if b > 1 else 0.0
    tot = c1 + c2
    chi2 = 0.0
    for counts in (c1, c2):
        exp = tot[occupied] * (counts.sum() / tot.sum())
        chi2 += float(np.sum((counts[occupied] - exp) ** 2 / exp))
    return AgreementReport(
        horizon=horizon,
        reps=reps,
        master_seed=master_seed,
        bins=_BIN_LABELS,
        counts_direct=c1,
        counts_coupled=c2,
        tv=tv,
        threshold=threshold,
        chi2=chi2,
        dof=b - 1,
        passed=tv <= threshold,
        degenerate=b <= 1,
    )
