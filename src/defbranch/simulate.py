"""Monte Carlo simulation of populations under killing environments.

Two samplers of the same process:

* ``direct`` draws every individual's fate from the raw law, killing the
  whole path as soon as any individual draws the graveyard.
* ``coupled`` first decides whether the path dies this generation (one
  Bernoulli with the exact path-kill probability given the current
  size), then advances the size by the normalized law.

Both use one vectorized pass per generation over fixed-size blocks of
replicates, run one after another on the calling thread.  Each block
owns a counter-based bit stream keyed by (master_seed, mode, block
index), and reductions run in block order, so results depend on neither
the order nor the place the blocks ran in.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .environments import Environment, mu_profile
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

BLOCK = 4096
DEFAULT_CAP = 10**7

EXTINCT = "extinct"
KILLED = "killed"
ALIVE = "alive"
OVERFLOW = "overflow"

_MODE_ID = {"direct": 1, "coupled": 2}

# path states; kept small so blocks stay int8
_ACTIVE, _EXTINCT, _KILLED, _OVERFLOW = 0, 1, 2, 3

_STATE_KIND = {_ACTIVE: ALIVE, _EXTINCT: EXTINCT, _KILLED: KILLED, _OVERFLOW: OVERFLOW}


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
) -> tuple[np.ndarray, np.ndarray]:
    """Advance populations one generation under the raw law.

    z must be positive.  Returns (sums, killed): total offspring per
    path and whether any individual on the path drew the graveyard.
    The multinomial split is realised as sequential conditional
    binomials in fixed support order, which keeps the draw count small
    and the stream layout deterministic.
    """
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
            # each positive individual contributes 1 + geometric(p) extra
            total[pos] += rng.negative_binomial(m[pos], 1.0 - law.p)
        return total, killed
    raise TypeError(f"no sampler for law type {type(law).__name__}")


def _advance(
    rng: np.random.Generator,
    env: Environment,
    n: int,
    mode: str,
    z: np.ndarray,
    state: np.ndarray,
    cap: int,
) -> None:
    """Draw generation n for the active paths, updating sizes z and
    states in place: a killed path's size becomes DELTA, an overflowed
    path keeps its size."""
    act = np.flatnonzero(state == _ACTIVE)
    if act.size:
        law = env.law(n)
        za = z[act]
        if mode == "coupled":
            kill_p = 1.0 - np.power(law.mass, za.astype(np.float64))
            killed = rng.random(act.size) < kill_p
            sums, _ = _offspring_counts(rng, za, law.normalize())
        else:
            sums, killed = _offspring_counts(rng, za, law)
        z[act] = sums
        state[act[sums == 0]] = _EXTINCT
        over = act[sums > cap]
        state[over] = _OVERFLOW
        kidx = act[killed]
        state[kidx] = _KILLED
        z[kidx] = DELTA


def _run_block(
    env: Environment,
    horizon: int,
    mode: str,
    master_seed: int,
    block_index: int,
    size: int,
    cap: int,
    snapshot_times: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    rng = _rng(master_seed, _MODE_ID[mode], block_index)
    z = np.ones(size, dtype=np.int64)
    state = np.zeros(size, dtype=np.int8)
    snaps: dict[int, np.ndarray] = {}
    for n in range(1, horizon + 1):
        _advance(rng, env, n, mode, z, state, cap)
        if n in snapshot_times:
            snaps[n] = z.copy()
    return z, state, snaps


def run_path(
    env: Environment,
    horizon: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int = 0,
    mode: str = "direct",
    cap: int = DEFAULT_CAP,
) -> PathSample:
    """Simulate a single trajectory, recording every generation."""
    if mode not in _MODE_ID:
        raise PreconditionError(f"unknown mode {mode!r}")
    if rng is None:
        rng = _rng(seed)
    z = np.ones(1, dtype=np.int64)
    state = np.zeros(1, dtype=np.int8)
    sizes = np.empty(horizon + 1, dtype=np.int64)
    sizes[0] = 1
    for n in range(1, horizon + 1):
        _advance(rng, env, n, mode, z, state, cap)
        if state[0] != _ACTIVE:
            sizes[n:] = z[0]  # DELTA once killed, 0 once extinct, frozen on overflow
            terminal = Terminal(_STATE_KIND[int(state[0])], n, int(z[0]))
            break
        sizes[n] = z[0]
    else:
        terminal = Terminal(ALIVE, horizon, int(z[0]))
    return PathSample(sizes=sizes, terminal=terminal, mode=mode)


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
    final_sizes: np.ndarray | None = None
    final_states: np.ndarray | None = None

    def to_dict(self) -> dict:
        return _plain(self, skip=("snapshots", "final_sizes", "final_states"))


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
    keep_paths: bool = False,
) -> McSummary:
    """Run replicated paths and aggregate.

    Replicates are processed in fixed blocks of ``BLOCK``; each block's
    randomness depends only on (master_seed, mode, block index) and the
    reduction runs in block order.  ``workers`` caps the threads the
    blocks run on, and one thread, the caller's, meets any cap: numpy's
    binomial draws hold the GIL, so more threads only add switching.  A
    path whose population passes ``cap`` (at least 1) stops and counts
    as overflowed.
    """
    if mode not in _MODE_ID:
        raise PreconditionError(f"unknown mode {mode!r}")
    if reps < 1 or horizon < 0:
        raise PreconditionError("need reps >= 1 and horizon >= 0")
    if cap < 1:
        raise PreconditionError(f"need cap >= 1, got cap={cap}")
    snaps_at = tuple(sorted(set(int(t) for t in snapshot_times)))
    if any(t < 1 or t > horizon for t in snaps_at):
        raise PreconditionError("snapshot times must lie in 1..horizon")
    n_blocks = -(-reps // BLOCK)
    sizes = [BLOCK] * n_blocks
    if reps % BLOCK:
        sizes[-1] = reps % BLOCK
    parts = [
        _run_block(env, horizon, mode, master_seed, b, sizes[b], cap, snaps_at)
        for b in range(n_blocks)
    ]
    z = np.concatenate([p[0] for p in parts])
    state = np.concatenate([p[1] for p in parts])
    snapshots = {
        t: np.concatenate([p[2][t] for p in parts]) for t in snaps_at
    }

    n_ext = int(np.sum(state == _EXTINCT))
    n_kill = int(np.sum(state == _KILLED))
    n_alive = int(np.sum(state == _ACTIVE))
    n_over = int(np.sum(state == _OVERFLOW))
    n_eff = reps - n_over
    p_surv, se_surv = _prop(n_alive, n_eff)
    p_ext, se_ext = _prop(n_ext, n_eff)
    p_kill, se_kill = _prop(n_kill, n_eff)

    alive = z[state == _ACTIVE]
    if alive.size:
        mean_alive = float(alive.mean())
        mean_alive_se = (
            float(alive.std(ddof=1) / np.sqrt(alive.size)) if alive.size > 1 else 0.0
        )
    else:
        mean_alive, mean_alive_se = float("nan"), float("nan")
    clipped = np.minimum(alive, 20)
    hist = np.bincount(clipped, minlength=21)[:21]
    tail = int(np.sum(alive >= 20))

    log_mu = mu_profile(env, horizon).log_mu
    keep = state != _OVERFLOW
    w = np.maximum(z[keep], 0).astype(np.float64)
    # dead paths keep W = 0 exactly, also where exp(-log_mu) overflows
    pos = w > 0
    if pos.any():
        w[pos] *= np.exp(-log_mu)
    if w.size:
        w_mean = float(w.mean())
        w_var = float(w.var(ddof=1)) if w.size > 1 else 0.0
        w_se = float(np.sqrt(w_var / w.size))
    else:
        w_mean = w_var = w_se = float("nan")

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
        alive_hist_tail=tail,
        w_mean=w_mean,
        w_var=w_var,
        w_se=w_se,
        log_mu=log_mu,
        snapshots=snapshots,
        final_sizes=z if keep_paths else None,
        final_states=state if keep_paths else None,
    )


def _prop(k: int, n: int) -> tuple[float, float]:
    if n <= 0:
        return float("nan"), float("nan")
    p = k / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


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


def _bin_terminals(z: np.ndarray, state: np.ndarray) -> np.ndarray:
    idx = np.empty(z.shape, dtype=np.int64)
    idx[state == _KILLED] = 0
    small = (state != _KILLED) & (z >= 0) & (z < 10)
    idx[small] = z[small] + 1
    idx[(state != _KILLED) & (z >= 10)] = 11
    idx[state == _OVERFLOW] = 11
    return np.bincount(idx, minlength=12)[:12]


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
        s = monte_carlo(
            env,
            horizon,
            reps,
            master_seed,
            mode=mode,
            cap=cap,
            keep_paths=True,
        )
        out[mode] = _bin_terminals(s.final_sizes, s.final_states)
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
