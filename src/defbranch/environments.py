"""Environments: one offspring law per generation, plus composition.

An environment assigns a law f_n to each generation n >= 1.  The
distribution of the population started from one individual is governed
by the composed generating functions

    f_{k,n} = f_{k+1} o f_{k+2} o ... o f_n,      f_{n,n}(s) = s,

evaluated innermost first.  This module provides the environment
containers (constant, explicit prefix, named families), composition of
values and first two derivatives, mean-product profiles in linear and
log scale, and exact truncated population distributions obtained by
composing power-series coefficients.  There each run of
linear-fractional generations composes in closed form, as one Moebius
map, so no geometric tail is cut and ``DistVector.dropped`` is 0.

Exact readers rest on one private backward pass, ``_sweep``: at each
generation it looks the law up once and forms the points (for the
readers that return them), the log gap, the log ladder terms or the
chain-rule derivatives its reader asks for; where one law repeats, the
generations past the orbit's float fixed point are filled in.  Each
reader makes one such pass per horizon and starting point, and never
re-sweeps.  Logs turn linear only through ``_exp``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .laws import (
    BudgetError,
    FiniteSupport,
    InvalidLawError,
    LinearFractional,
    OffspringLaw,
    PreconditionError,
    law_from_dict,
)

__all__ = [
    "Environment",
    "Constant",
    "Prefix",
    "NamedFamily",
    "environment_from_dict",
    "composed_points",
    "compose_eval",
    "MuProfile",
    "mu_profile",
    "DistVector",
    "compose_coeffs",
]


class Environment:
    """Base class: a map from generation index n >= 1 to an offspring law."""

    def law(self, n: int) -> OffspringLaw:
        raise NotImplementedError

    def _fixed_from(self) -> int | None:
        """The first generation from which ``law`` returns one and the
        same object, or None when the environment has no such tail."""
        return None

    def _criteria_columns(self, n: int) -> tuple[np.ndarray, ...]:
        """(f[1], defect, f'(1), f''(1), c8) of generations 1..n, one
        array each, with defect = 1 - f(1) unclipped.  The arrays are the
        caller's to overwrite.  Built from ``law(i)``; each distinct law
        object is evaluated once per call."""
        seen: dict[int, tuple[OffspringLaw, tuple[float, ...]]] = {}
        rows = []
        for i in range(1, n + 1):
            law = self.law(i)
            hit = seen.get(id(law))
            if hit is None:  # the law is kept, so its id is not reused
                hit = seen[id(law)] = (law, _series_stats(law))
            rows.append(hit[1])
        return tuple(np.array(rows, dtype=float).T)

    @property
    def series_meta(self) -> dict[str, str]:
        """Analytic convergence tags for criterion series, when known.

        Maps criterion id -> "converges" | "diverges".  For infimum /
        supremum criteria "converges" means the condition holds (infimum
        positive, supremum finite).  Empty when nothing is known; the
        numeric slope heuristic then decides.
        """
        return {}

    def shift(self, by: int) -> "Environment":
        """Environment seen from generation ``by``: law(n) = self.law(n + by)."""
        if by == 0:
            return self
        return _Shifted(self, by)

    def normalized(self) -> "Environment":
        """Environment of survival-conditioned laws f_n(s)/f_n(1)."""
        return _Normalized(self)

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Environment):
    """The same law at every generation."""

    base: OffspringLaw

    def law(self, n: int) -> OffspringLaw:
        if n < 1:
            raise ValueError("generation index starts at 1")
        return self.base

    def _fixed_from(self) -> int:
        return 1

    def to_dict(self) -> dict:
        return {"kind": "constant", "law": self.base.to_dict()}


@dataclass(frozen=True)
class Prefix(Environment):
    """Explicit laws for the first generations, one tail law afterwards."""

    laws: tuple[OffspringLaw, ...]
    tail: OffspringLaw

    def __post_init__(self) -> None:
        object.__setattr__(self, "laws", tuple(self.laws))

    def law(self, n: int) -> OffspringLaw:
        if n < 1:
            raise ValueError("generation index starts at 1")
        return self.laws[n - 1] if n <= len(self.laws) else self.tail

    def _fixed_from(self) -> int:
        return len(self.laws) + 1

    def to_dict(self) -> dict:
        return {
            "kind": "prefix",
            "laws": [lw.to_dict() for lw in self.laws],
            "tail": self.tail.to_dict(),
        }


def _series_stats(law: OffspringLaw) -> tuple[float, float, float, float, float]:
    """(f[1], 1 - f(1), f'(1), f''(1), c8) of one law, by direct sums."""
    if isinstance(law, FiniteSupport):
        wl = law.weights.tolist()
        mass = mean = second = m1t = m2t = 0.0
        for k, wk in enumerate(wl):
            if wk == 0.0:
                continue
            mass += wk
            kw = k * wk
            mean += kw
            second += k * (k - 1) * wk
            if k >= 2:
                m1t += kw
                m2t += k * kw
        w0 = wl[0]
        w1 = wl[1] if len(wl) > 1 else 0.0
    else:
        mean = law.mean
        second = law.second_factorial
        mass = law.mass
        w0 = law.weight(0)
        w1 = law.weight(1)
        rep = law.regularity()
        m1t, m2t = rep.m1_tail, rep.m2_tail
    p_ge1 = mass - w0
    c8 = (m2t / m1t) / (mean / p_ge1) if m1t > 0.0 else 0.0
    return w1, 1.0 - mass, mean, second, c8


_META_SINGLE_CHILD = {
    # single-child families: no mass at {2,3,...}, so the second-moment
    # series and the tail-ratio supremum are trivially fine
    "var_mean_series": "converges",
    "tail_ratio_sup": "converges",
}


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integral(x) -> bool:
    # 3.0 counts, as in JSON Schema; True does not
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# every named-family param and the values it takes, as the CLI's config
# check has them (NaN fails here; the config check leaves it to this one)
_PARAM_OK: dict[str, Callable[[object], bool]] = {
    "a": lambda a: _real(a) and 0.0 < a < 1.0,
    "b": lambda b: _real(b) and b > 0.0,
    "arity": lambda m: _integral(m) and m >= 1,
}


def _check_params(params: dict) -> None:
    if not isinstance(params, dict):
        raise InvalidLawError(f"named-family params must be an object, got {params!r}")
    for k, v in params.items():
        if k not in _PARAM_OK or not _PARAM_OK[k](v):
            raise InvalidLawError(
                f"named-family params are a in (0, 1), b > 0 and an integral arity >= 1;"
                f" got {k!r}: {v!r}"
            )


def _check_power_defect(params: dict) -> None:
    if "a" not in params or "b" not in params:
        raise InvalidLawError("power-defect needs params a and b")


def _power_defect(a: float, neg_b: float, n: int) -> float:
    return 1.0 - a * float(n) ** neg_b


def _c_1a(n: int) -> float:
    return 0.5 if n == 1 else 1.0 - 1.0 / n


def _c_1b(n: int) -> float:
    return 0.5 if n == 1 else 1.0 - 1.0 / n**2


def _c_2a(n: int) -> float:
    return 1.0 - 0.5**n / n


def _c_2b(n: int) -> float:
    return 1.0 - 0.5**n / n**2


class _Family(NamedTuple):
    """A family whose law f_n puts weight c_n in (0, 1] on m children:
    f_n(s) = c_n s^m.  ``coeff`` builds the map n -> c_n from the params
    once; it must be picklable (a module-level function or a
    ``functools.partial`` of one), since ``NamedFamily`` keeps it.
    ``check`` must reject every params for which c_n leaves (0, 1],
    because ``NamedFamily.law`` builds the laws unvalidated."""

    coeff: Callable[[dict], Callable[[int], float]]  # params -> (n -> c_n)
    arity: Callable[[dict], int]  # params -> m
    meta: dict[str, str]  # analytic series tags, see Environment.series_meta
    check: Callable[[dict], None] = lambda params: None  # raises on bad params


# The one list of named families (NamedFamily documents each law).
_FAMILIES: dict[str, _Family] = {
    "example-1a": _Family(
        lambda _: _c_1a,
        lambda _: 1,
        {
            **_META_SINGLE_CHILD,
            "one_child_gap": "diverges",
            "mean_product_infimum": "diverges",
            "defect_mean_series": "converges",
        },
    ),
    "example-1b": _Family(
        lambda _: _c_1b,
        lambda _: 1,
        {
            **_META_SINGLE_CHILD,
            "one_child_gap": "converges",
            "mean_product_infimum": "converges",
            "defect_mean_series": "converges",
        },
    ),
    "example-2a": _Family(
        lambda _: _c_2a,
        lambda _: 2,
        {
            "one_child_gap": "diverges",
            "mean_product_infimum": "converges",
            "defect_mean_series": "diverges",
            "var_mean_series": "converges",
            "tail_ratio_sup": "converges",
        },
    ),
    "example-2b": _Family(
        lambda _: _c_2b,
        lambda _: 2,
        {
            "one_child_gap": "diverges",
            "mean_product_infimum": "converges",
            "defect_mean_series": "converges",
            "var_mean_series": "converges",
            "tail_ratio_sup": "converges",
        },
    ),
    "power-defect": _Family(
        lambda params: partial(_power_defect, float(params["a"]), -float(params["b"])),
        lambda params: int(params.get("arity", 1)),
        {},
        _check_power_defect,
    ),
}


@dataclass(frozen=True)
class NamedFamily(Environment):
    """Built-in law families.

    Every family puts weight c_n on m children and kills with the rest,
    f_n(s) = c_n s^m; ``_FAMILIES`` holds c_n and m per id.

    Ids:
        example-1a: f_1(s) = s/2, f_n(s) = (1 - 1/n) s for n >= 2.
        example-1b: f_1(s) = s/2, f_n(s) = (1 - 1/n^2) s for n >= 2.
        example-2a: f_n(s) = (1 - 1/(n 2^n)) s^2.
        example-2b: f_n(s) = (1 - 1/(n^2 2^n)) s^2.
        power-defect: f_n(s) = (1 - a n^(-b)) s^m with params a in (0,1),
            b > 0, arity m >= 1 (default 1).

    Params take no other keys, and are checked as the CLI's config check
    checks them (non-bool reals, an integral arity) for every id; the
    example ids ignore them.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        fam = _FAMILIES.get(self.family)
        if fam is None:
            raise InvalidLawError(f"unknown family {self.family!r}")
        _check_params(self.params)
        fam.check(self.params)
        # built once and kept outside the fields, so equality, repr and
        # to_dict still read (family, params) alone
        object.__setattr__(self, "_coeff", fam.coeff(self.params))
        object.__setattr__(self, "_zeros", [0.0] * fam.arity(self.params))

    def law(self, n: int) -> OffspringLaw:
        if n < 1:
            raise ValueError("generation index starts at 1")
        return FiniteSupport._trusted(self._zeros + [self._coeff(n)])

    def _criteria_columns(self, n: int) -> tuple[np.ndarray, ...]:
        # _series_stats of c s^m in closed form, with its operations
        c = np.fromiter(map(self._coeff, range(1, n + 1)), float, n)
        m = len(self._zeros)
        mean = m * c
        if m == 1:
            return c, 1.0 - c, mean, np.zeros(n), np.zeros(n)
        second = (m * (m - 1)) * c
        c8 = m * mean  # (m2_tail / m1_tail) / (mean / p_ge1)
        c8 /= mean
        c8 /= mean / c
        return np.zeros(n), np.subtract(1.0, c, out=c), mean, second, c8

    @property
    def series_meta(self) -> dict[str, str]:
        return dict(_FAMILIES[self.family].meta)

    def to_dict(self) -> dict:
        out: dict = {"kind": "named", "id": self.family}
        if self.params:
            out["params"] = dict(self.params)
        return out


class _Shifted(Environment):
    def __init__(self, base: Environment, by: int) -> None:
        self._base = base
        self._by = by

    def law(self, n: int) -> OffspringLaw:
        return self._base.law(n + self._by)

    def shift(self, by: int) -> Environment:
        return self._base.shift(self._by + by)

    def __repr__(self) -> str:
        return f"{self._base!r}.shift({self._by})"


class _Normalized(Environment):
    def __init__(self, base: Environment) -> None:
        self._base = base

    def law(self, n: int) -> OffspringLaw:
        return self._base.law(n).normalize()

    def __repr__(self) -> str:
        return f"{self._base!r}.normalized()"


def environment_from_dict(obj: dict) -> Environment:
    """Build an environment from its JSON literal form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidLawError("environment literal must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(law_from_dict(obj["law"]))
        if kind == "prefix":
            laws = tuple(law_from_dict(o) for o in obj["laws"])
            return Prefix(laws, law_from_dict(obj["tail"]))
        if kind == "named":
            return NamedFamily(obj["id"], dict(obj.get("params", {})))
    except KeyError as exc:
        raise InvalidLawError(f"{kind!r} environment literal has no {exc.args[0]!r}") from exc
    raise InvalidLawError(f"unknown environment kind {kind!r}")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _check_window(k: int, n: int) -> None:
    if not (0 <= k <= n):
        raise PreconditionError(f"need 0 <= k <= n, got k={k}, n={n}")


def composed_points(env: Environment, k: int, n: int, s) -> np.ndarray:
    """Intermediate values t_i = f_{i,n}(s) for i = k..n.

    Computed innermost first: t_n = s, t_{i-1} = f_i(t_i).  Index j of
    the returned array holds t_{k+j}; in particular out[0] = f_{k,n}(s)
    and out[-1] = s.  Vectorized over s.
    """
    return _sweep(env, k, n, s).points


class _Sweep(NamedTuple):
    points: np.ndarray | None  # f_{k+j,n}(hi), j = 0..n-k; None with ladder or order
    lo_points: np.ndarray | None  # f_{k+j,n}(lo), j = 0..n-k
    log_gap: float | None  # log(f_{k,n}(hi) - f_{k,n}(lo))
    log_ladder: np.ndarray | None  # log0 + running sums of log f_j'(t_j), j = k..n
    log_var: np.ndarray | None  # log f_j''(t_j) - log f_j'(t_j) - log_ladder[j], j = k+1..n
    at: tuple[np.ndarray, ...]  # per fixed s: log f_j'(s), j = k+1..n
    c12: float  # max(0, max_j c12 of f_j)
    chain: tuple | None  # (f_{k,n}(hi), f_{k,n}'(hi), f_{k,n}''(hi)) with order


def _sweep(env: Environment, k: int, n: int, hi, lo: float | None = None, *,
           ladder: bool = False, log0: float = 0.0, second: bool = False,
           at: Sequence[float] = (), regularity: bool = False, order: int | None = None) -> _Sweep:
    """The one backward pass: generations n down to k+1, one law lookup and
    one pgf call each for the points of hi (an array only without lo and
    ladder).  lo adds one divided difference and one pgf call for the
    points of lo and log_gap = log(hi - lo) + the log divided differences,
    i.e. log(f_{k,n}(hi) - f_{k,n}(lo)) free of cancellation.  ``ladder``
    adds one pgf call for log f_j'(t_j), t_j = f_{j,n}(hi), ``second`` one
    for log f_j''(t_j), ``at`` one per s for log f_j'(s) and ``regularity``
    one report for c12 per run of generations sharing one law object.
    ``order`` (0, 1 or 2) adds one pgf call per derivative for ``chain``,
    the value and first ``order`` derivatives by the chain rule.  Fields
    not asked for are None, () or 0, and so are the points with ladder or
    order: only the readers that return them get a column of points.

    A scalar hi splits the window at ``env._fixed_from()``: the tail's law
    is looked up once, and once a tail generation maps its points to
    themselves, bit for bit, the tail generations below it repeat its
    points and terms, which are filled in; log_gap and chain still step
    once per generation, from n down, so the split keeps the loop's bits."""
    _check_window(k, n)
    h = np.array(hi, dtype=float)  # a copy: an array hi may come back as f_{n,n}(hi)
    his = None if ladder or order is not None else np.full((n - k + 1,) + h.shape, h)
    top = None if h.ndim else env._fixed_from()  # a tail to split off, for scalar hi
    g1, g2 = (np.ones_like(h), np.zeros_like(h)) if h.ndim else (1.0, 0.0)
    if h.ndim == 0:
        h = float(h)  # the laws' plain-float path
    los = l = log_gap = log_ladder = log_var = None
    if lo is not None:
        los = np.empty(n - k + 1)
        los[-1] = l = lo
        log_gap = _log(hi - lo)
    d1, d2, c12 = np.empty(n - k if ladder else 0), np.empty(n - k if second else 0), 0.0
    ats = np.empty((len(at) if ladder else 0, n - k))
    head = n - k if top is None else min(max(top - k - 1, 0), n - k)  # steps j >= head: the tail
    tail = env.law(k + head + 1) if head < n - k else None
    prev = None
    j = n - k - 1
    while j >= 0:
        law = tail if j >= head else env.law(k + j + 1)
        if ladder:
            d1[j] = _log(law.pgf(h, 1))
            if second:
                d2[j] = _log(law.pgf(h, 2))
            for i, s in enumerate(at):
                ats[i, j] = _log(law.pgf(s, 1))
            if regularity and law is not prev:  # a repeated law cannot raise the max
                c12 = max(c12, law.regularity().c12)
                prev = law
        if order:  # f'(t) and f''(t) before t moves on
            fp, f2 = law.pgf(h, 1), law.pgf(h, 2) if order == 2 else None
            g1, g2 = fp * g1, f2 * g1 * g1 + fp * g2 if order == 2 else g2
        x, y = h, l
        if los is not None:
            log_gap += (gap := _log(law.divided_difference(h, l)))
            los[j] = l = law.pgf(l)
        h = law.pgf(h)
        if his is not None:
            his[j] = h
        if j > head and h == x and _same(h, x) and (los is None or _same(l, y)):
            # a fixed point of the tail: steps head..j-1 repeat step j
            for col in (his, los, d1, d2, *ats):
                if col is not None and col.size:
                    col[head:j] = col[j]
            for _ in range(j - head if los is not None else 0):
                log_gap += gap
            for _ in range(j - head if order else 0):
                g1, g2 = fp * g1, f2 * g1 * g1 + fp * g2 if order == 2 else g2
            j = head
        j -= 1
    if ladder:
        log_ladder = _running(d1, log0)
        log_var = d2 - d1 - log_ladder[1:] if second else None
    return _Sweep(his, los, log_gap, log_ladder, log_var, tuple(ats), c12,
                  None if order is None else (h, g1, g2))


def _same(x: float, y: float) -> bool:
    """x and y are the same float, bit for bit (so 0.0 is not -0.0)."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def compose_eval(env: Environment, k: int, n: int, s, order: int = 0):
    """Evaluate f_{k,n}(s) or its first or second derivative.

    Derivatives follow the chain rule along the innermost-first sweep
    (``_sweep``): with v = f_{i,n}(s),

        (f_{i-1,n})'(s)  = f_i'(v) v'
        (f_{i-1,n})''(s) = f_i''(v) (v')^2 + f_i'(v) v''.

    Vectorized over s; scalar s gives a float.  Derivatives that
    overflow go quietly to inf.  An entry of an array s equals, bit for
    bit, the result for that entry alone.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    with np.errstate(over="ignore"):
        out = _sweep(env, k, n, s, order=order).chain[order]
    return out if isinstance(out, np.ndarray) else float(out)


@dataclass(frozen=True)
class MuProfile:
    """Mean products along a horizon, in linear and log scale.

    Attributes:
        n: horizon.
        s: evaluation point for the ``_at_s`` fields.
        log_mu: log prod_{i<=n} f_i'(1); ``mu`` is its exp (may overflow
            to inf / underflow to 0; the log field is authoritative).
        log_mu_at_s / mu_at_s: same with derivatives taken at s.
        log_nu_at_s / nu_at_s: nu_n(s) = sum_{i<=n} 1 / mu_i(s).
        ladder: mu_{j,n} = prod_{i<=j} f_i'(f_{i,n}(1)) for j = 0..n,
            the mean of generation j inside an n-horizon composition;
            ladder[n] = E[Z_n].  ``log_ladder`` is the log version.
    """

    n: int
    s: float
    log_mu: float
    log_mu_at_s: float
    log_nu_at_s: float
    ladder: np.ndarray
    log_ladder: np.ndarray

    @property
    def mu(self) -> float:
        return _exp(self.log_mu)

    @property
    def mu_at_s(self) -> float:
        return _exp(self.log_mu_at_s)

    @property
    def nu_at_s(self) -> float:
        return _exp(self.log_nu_at_s)

    @property
    def mean(self) -> float:
        """E[Z_n] = ladder[n]."""
        return float(self.ladder[-1])


def mu_profile(env: Environment, n: int, s: float = 1.0) -> MuProfile:
    """Mean products mu_n, mu_n(s), nu_n(s) and the ladder mu_{j,n}.

    All products are accumulated as sums of logs; linear values are
    exposed as exp of those sums so that overflow degrades to inf
    rather than corrupting neighbours.
    """
    sw = _sweep(env, 0, n, 1.0, ladder=True, at=(1.0, s))
    log_mu_s, log_nu = _mu_at(sw.at[1])
    return MuProfile(
        n=n,
        s=float(s),
        log_mu=_mu_at(sw.at[0])[0],
        log_mu_at_s=log_mu_s,
        log_nu_at_s=log_nu,
        ladder=_exp(sw.log_ladder),
        log_ladder=sw.log_ladder,
    )


def _running(terms: np.ndarray, log0: float = 0.0) -> np.ndarray:
    """log0 followed by its running sums with ``terms``, in order."""
    out = np.concatenate(([log0], terms))
    return np.cumsum(out, out=out)


def _mu_at(terms: np.ndarray) -> tuple[float, float]:
    """(log mu_n(s), log nu_n(s)) from the terms log f_i'(s), i = 1..n."""
    log_mu = _running(terms)
    return float(log_mu[-1]), _logsumexp(-log_mu[1:])


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v)) if v.size else -math.inf
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(v - m))))


def _exp(x):
    """Linear value of a log field; overflow goes quietly to inf."""
    with np.errstate(over="ignore"):
        return np.exp(x) if np.ndim(x) else float(np.exp(x))


@dataclass(frozen=True)
class DistVector:
    """Truncated distribution of the population at a horizon.

    probs[k] = P[Z_n = k] for k = 0..degree (the power-series
    coefficients of the composed pgf, no step truncated), delta_mass =
    P[killed by n], tail_mass = P[Z_n > degree].  ``dropped``, the mass
    a step's truncation shaved off, is 0.0: no step is truncated.
    """

    horizon: int
    degree: int
    probs: np.ndarray
    delta_mass: float
    tail_mass: float
    dropped: float  # mass shaved off by step truncation; always 0.0

    def __post_init__(self) -> None:
        total = float(self.probs.sum()) + self.delta_mass + self.tail_mass
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise PreconditionError(f"distribution mass {total} != 1")

    def pgf_bracket(self, s: float) -> tuple[float, float]:
        """Bounds on f_{0,n}(s) from the truncated coefficients."""
        lo = float(np.polynomial.polynomial.polyval(s, self.probs))
        return lo, lo + self.tail_mass * s ** (self.degree + 1)


def compose_coeffs(
    env: Environment,
    n: int,
    degree: int,
    rel_tail: float = 1e-14,
    budget: int = 1 << 24,
) -> DistVector:
    """Exact coefficients of f_{0,n} up to ``degree``.

    Works innermost first on the series Q carrying f_{i,n}'s
    coefficients, truncated at ``degree``; that is exact for the kept
    coefficients, since the low coefficients of a composition never
    involve the discarded high ones.  A finite law is substituted into
    Q by Horner's scheme, one convolution per support point.  A maximal
    run of linear-fractional generations is one Moebius map (see
    ``_mobius``), applied to Q in closed form: exact geometric
    coefficients when the run is innermost (Q(s) = s), a power-series
    division otherwise.  No step is truncated, so ``dropped`` is 0.0 and
    ``rel_tail`` no longer changes the result.  probs[0] and the killed
    mass are f_{0,n}(0) and 1 - f_{0,n}(1), carried along the same sweep.
    """
    _check_window(0, n)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if (work := (degree + 1) * max(n, 1)) > budget:
        raise BudgetError(
            f"compose_coeffs work (degree+1)*max(n,1) = {work} exceeds budget {budget}"
        )
    q = None  # coefficients of f_{i,n} below the pending run; None while f_{i,n}(s) = s
    run: list[LinearFractional] = []  # the pending run, innermost first
    mass, zero = 1.0, 0.0  # f_{i,n}(1) and f_{i,n}(0)
    for i in range(n, 0, -1):
        law = env.law(i)
        if isinstance(law, LinearFractional):
            run.append(law)
        else:
            q = _substitute(law.coeff_vector(), _apply_run(run, q, zero, degree), degree)
            run = []
        mass = law.pgf(mass)
        zero = law.pgf(zero)
    q = _apply_run(run, q, zero, degree)
    tail = max(0.0, mass - float(q.sum()))
    return DistVector(
        horizon=n,
        degree=degree,
        probs=q,
        delta_mass=1.0 - mass,
        tail_mass=tail,
        dropped=0.0,
    )


def _mobius(run: Sequence[LinearFractional]) -> tuple[float, float]:
    """(P, R) with f(s) = f(0) + R s / (1 - P s), for f the composition
    of the linear-fractional laws in ``run`` (innermost first).

    s -> q + r/(1 - p s) is the Moebius map of [[-pq, q + r], [-p, 1]],
    with determinant pr, and composing maps multiplies their matrices.
    So f is the map of the product [[A, B], [C, D]], and P = -C/D, R =
    det/D^2.  Only the bottom row is formed: f(0) = B/D comes from the
    caller's sweep.  It is formed outermost first, as [C, D] times the
    next matrix, a row power iteration whose ratio C/D damps its own
    rounding errors (innermost first it does not), and rescaled to D = 1
    after each step.  The determinant is carried as a log, the correctly
    rounded sum of log(p r) - 2 log(scale): AD - BC would cancel."""
    c, log_det = 0.0, []
    for law in reversed(run):
        p, q, r = law.p, law.q, law.r
        d = 1.0 + (q + r) * c  # [c, 1] M = [-p (q c + 1), d]
        c = -p * (q * c + 1.0) / d
        log_det += (math.log(p * r), -2.0 * math.log(d))
    return -c, math.exp(math.fsum(log_det))


def _apply_run(run: Sequence[LinearFractional], q: np.ndarray | None, zero: float,
               degree: int) -> np.ndarray:
    """Coefficients of f(Q) up to ``degree``, f the composition of
    ``run`` and Q the series q (None for Q(s) = s), constant term
    ``zero``, the caller's f(Q(0)).

    f(Q) = f(0) + R Q / (1 - P Q) (see ``_mobius``): for Q(s) = s the
    geometric coefficients R P^(k-1) at k >= 1, otherwise a power-series
    division."""
    if run:
        p, r = _mobius(run)
        if q is None:
            out = np.empty(degree + 1)
            out[1:] = r * p ** np.arange(degree, dtype=float)
        else:
            out = r * _over_one_minus(q, p, degree)
    elif q is None:
        out = np.zeros(degree + 1)
        out[1] = 1.0
    else:
        out = q
    out[0] = zero
    return out


def _over_one_minus(q: np.ndarray, p: float, degree: int) -> np.ndarray:
    """Coefficients of Q / (1 - p Q) up to ``degree``, for p > 0, Q >= 0
    and p Q(0) < 1: y[k] = (Q[k] + p sum_{1<=i<=k} Q[i] y[k-i]) / (1 - p Q[0]),
    a sum of non-negative terms, O(degree) per coefficient at most."""
    nz = np.flatnonzero(q[1:])
    m = int(nz[-1]) + 1 if nz.size else 0  # the last nonzero Q[i], i >= 1
    tail = p * q[m:0:-1]  # p Q[m], ..., p Q[1]
    den = 1.0 - p * q[0]
    y = np.empty(degree + 1)
    for k in range(degree + 1):
        j = min(k, m)
        y[k] = (q[k] + float(np.dot(tail[m - j:], y[k - j:k]))) / den
    return y


def _substitute(w: np.ndarray, q: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of s -> sum_k w[k] Q(s)^k, truncated at ``degree``."""
    out = np.array([w[-1]])
    for k in range(w.size - 2, -1, -1):
        out = np.convolve(out, q)[: degree + 1]
        out[0] += w[k]
    if out.size < degree + 1:
        out = np.pad(out, (0, degree + 1 - out.size))
    return out
