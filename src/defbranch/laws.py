"""Offspring laws for branching processes with killing.

A law assigns probabilities to child counts 0, 1, 2, ... and may reserve
part of its mass for a graveyard outcome: a draw that kills the whole
process rather than contributing individuals.  The generating function
f(s) = sum_k f[k] s^k then satisfies f(1) <= 1, and the missing mass
1 - f(1) is the per-individual killing probability.

Two families are supported: laws with finite support, and geometric-tail
laws f(s) = q + r / (1 - p s).  Both expose evaluation of f and its first
two derivatives, exact first/second moments, the smallest fixed point of
f on (0, 1), tail-regularity constants, and sampling.  Graveyard draws
are encoded by the integer sentinel ``DELTA``.

``pgf`` and ``divided_difference`` are written once per law class: the
Horner scheme over the coefficients of f, f' and f'' (formed as
``polyder`` forms them), the ``h_k`` recurrence that skips zero weights,
and the linear-fractional closed forms with ``den**2`` written as
``den*den``.  The same lines serve Python floats and numpy arrays.  The
argument's type decides only how it is converted (a float, numpy float
scalars included, becomes a Python float; anything else a float array)
and whether a Python float comes back (for every scalar or 0-d
argument).  Where Python float arithmetic raises instead of returning
inf or nan (division by zero, ``**`` overflow), the linear-fractional
kernels run their lines again on a numpy float.  The linear-fractional
f'' cubes ``den`` with C ``pow`` entry by entry (``_cube``), as a float
does, since numpy's vectorised power can round it differently.  So a
float argument gives, bit for bit, the value a 0-d or any array gives
in each entry.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "DELTA",
    "BudgetError",
    "InvalidLawError",
    "PreconditionError",
    "OffspringLaw",
    "FiniteSupport",
    "LinearFractional",
    "RegularityReport",
    "law_from_dict",
]

# Graveyard sentinel. Offspring draws are ints >= 0, or DELTA for a
# killing draw. Kept negative so it can live in integer arrays.
DELTA = -1

# Slack for "sums to at most one" style mass checks on user input.
MASS_TOL = 1e-9

_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 200


class InvalidLawError(ValueError):
    """Raised when proposed weights do not form a valid offspring law."""


class PreconditionError(RuntimeError):
    """An operation's mathematical precondition does not hold."""


class BudgetError(RuntimeError):
    """A configured work budget (tries, memory, atoms) was exhausted."""


ArrayLike = Union[float, np.ndarray]


def _rng(*key: int) -> np.random.Generator:
    """The counter-based stream keyed by ``key``; every random stream
    of the package is built here.  ``_rng(k)`` is the stream of
    ``SeedSequence(k)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(k) for k in key])))


def _plain(obj, skip: tuple[str, ...] = ()):
    """A result in plain Python values, ready for ``json.dumps``: a
    dataclass becomes a dict of its fields (less ``skip``), arrays and
    tuples become lists, numpy scalars Python scalars."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)
                if f.name not in skip}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [_plain(x) for x in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


@dataclass(frozen=True)
class RegularityReport:
    """Tail-regularity constants of an offspring law.

    Attributes:
        m1_tail: E[X; X >= 2].
        m2_tail: E[X^2; X >= 2].
        cond_mean: E[X | X >= 1] (killing mass excluded throughout).
        c8: smallest c with m2_tail <= c * m1_tail * cond_mean.
        c12: smallest c with m2_tail <= c * m1_tail.
        c8_finite: True when c8 is finite (always, for valid laws).
        c12_finite: True when c12 is finite.
    """

    m1_tail: float
    m2_tail: float
    cond_mean: float
    c8: float
    c12: float
    c8_finite: bool = True
    c12_finite: bool = True


class OffspringLaw:
    """Common interface of finite-support and geometric-tail laws."""

    # -- generating function -------------------------------------------------

    def pgf(self, s: ArrayLike, order: int = 0) -> ArrayLike:
        """Evaluate f(s) or one of its first two derivatives.

        Args:
            s: point(s) in [0, 1] (values slightly outside are accepted;
               the formulas are analytic).
            order: 0, 1 or 2.
        """
        raise NotImplementedError

    def divided_difference(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """(f(a) - f(b)) / (a - b), computed without cancellation.

        Coincides with f'(a) when a == b.  This is the multiplier by
        which one composition step shrinks the gap between two points,
        and is the backbone of stable log-survival computations.
        """
        raise NotImplementedError

    # -- mass bookkeeping ----------------------------------------------------

    @property
    def mass(self) -> float:
        """Total non-graveyard mass f(1)."""
        raise NotImplementedError

    @property
    def defect(self) -> float:
        """Killing probability 1 - f(1), clipped of float dust."""
        d = 1.0 - self.mass
        return d if d > 1e-15 else 0.0

    @property
    def mean(self) -> float:
        """f'(1) = E[X; X not killed]."""
        return float(self.pgf(1.0, 1))

    @property
    def second_factorial(self) -> float:
        """f''(1) = E[X(X-1); X not killed]."""
        return float(self.pgf(1.0, 2))

    def weight(self, k: int) -> float:
        """Probability of exactly k children, f[k]."""
        raise NotImplementedError

    def coeff_vector(self, rel_tail: float = 1e-14) -> np.ndarray:
        """Weights f[0..K] as an array, K chosen so the dropped
        geometric tail is below ``rel_tail`` relative to f(1) (exact for
        finite support)."""
        raise NotImplementedError

    # -- derived laws ----------------------------------------------------------

    def normalize(self) -> "OffspringLaw":
        """The proper law f(s)/f(1) obtained by conditioning on survival
        of the draw."""
        raise NotImplementedError

    def fixed_point(self) -> float | None:
        """Smallest root of f(s) = s in the open interval (0, 1).

        Returns None when no such root exists (in particular for the
        identity law and for proper laws with mean <= 1).
        """
        raise NotImplementedError

    # -- statistics --------------------------------------------------------------

    def regularity(self) -> RegularityReport:
        """Tail-regularity constants, from exact moment sums; see
        RegularityReport."""
        m1_tail, m2_tail = self._tail_moments()
        p_ge1 = self.mass - self.weight(0)
        if p_ge1 <= 0.0:
            raise PreconditionError("law has no mass on {1, 2, ...}")
        cond_mean = self.mean / p_ge1
        if m1_tail > 0.0:
            c12 = m2_tail / m1_tail
            c8 = c12 / cond_mean
        else:
            c8 = c12 = 0.0  # no mass at {2, 3, ...}: conditions hold vacuously
        return RegularityReport(
            m1_tail=m1_tail,
            m2_tail=m2_tail,
            cond_mean=cond_mean,
            c8=c8,
            c12=c12,
            c8_finite=math.isfinite(c8),
            c12_finite=math.isfinite(c12),
        )

    def _tail_moments(self) -> tuple[float, float]:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw offspring counts; killing draws come back as DELTA.

        Args:
            rng: numpy Generator.
            size: None for a scalar int, else an int array of that length.
        """
        raise NotImplementedError

    def _draws(self, rng: np.random.Generator, z: int) -> list[int]:
        """``z`` draws as a list of ints, from the uniforms ``sample``
        would take, in the same order."""
        return self.sample(rng, size=z).tolist()

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class FiniteSupport(OffspringLaw):
    """Law with weights on {0, ..., K}; leftover mass kills.

    weights[k] = P[k children]; sum(weights) <= 1 and the mean
    sum_k k*weights[k] must be positive and finite.
    """

    weights: np.ndarray

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidLawError("weights must be a non-empty 1-d sequence")
        if np.any(w < -1e-15) or not np.all(np.isfinite(w)):
            raise InvalidLawError("weights must be finite and non-negative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if total > 1.0 + MASS_TOL:
            raise InvalidLawError(f"weights sum to {total:.6g} > 1")
        if total > 1.0:
            w = w / total  # shave float dust only; real excess was rejected above
        mean = float(np.arange(w.size) @ w)
        if mean <= 0.0:
            raise InvalidLawError("law must put positive mean on children")
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, wl: list[float]) -> "FiniteSupport":
        """The law with weights ``wl``, which the caller has already
        checked: what ``__init__`` would build, without its validation."""
        law = object.__new__(cls)
        law.__dict__.update(weights=np.array(wl), _horner=_horner_lists(wl))
        return law

    @cached_property
    def _horner(self) -> tuple[list[float], list[float], list[float]]:
        return _horner_lists(self.weights.tolist())

    @cached_property
    def _draw_table(self) -> tuple[list[float], list[int]]:
        # sampling thresholds over {0..K, DELTA} as plain floats, and the
        # draw each index past them stands for
        return np.cumsum(self.weights).tolist(), list(range(self.weights.size)) + [DELTA]

    def pgf(self, s: ArrayLike, order: int = 0) -> ArrayLike:
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        x = float(s) if isinstance(s, float) else np.asarray(s, dtype=float)
        c = iter(self._horner[order])
        out = next(c) + x * 0
        for ck in c:
            out = ck + out * x
        return out if type(out) is float or out.ndim else float(out)

    def divided_difference(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, float) and isinstance(b, float):
            a, b = float(a), float(b)
        else:
            a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        # h_k = (a^k - b^k)/(a - b) via h_k = a^(k-1) + b*h_(k-1)
        h = out = 0.0
        apow = 1.0
        for wk in self._horner[0][-2::-1]:  # f[1], f[2], ...
            h = apow + b * h
            apow = apow * a
            if wk != 0.0:
                out = out + wk * h
        return out if type(out) is float or out.ndim else float(out)

    @cached_property
    def mass(self) -> float:  # type: ignore[override]
        return float(self.weights.sum())

    def weight(self, k: int) -> float:
        return float(self.weights[k]) if 0 <= k < self.weights.size else 0.0

    @property
    def support_max(self) -> int:
        nz = np.nonzero(self.weights)[0]
        return int(nz[-1]) if nz.size else 0

    def coeff_vector(self, rel_tail: float = 1e-14) -> np.ndarray:
        return self.weights.copy()

    def normalize(self) -> "FiniteSupport":
        return FiniteSupport(self.weights / self.mass)

    def fixed_point(self) -> float | None:
        w = self.weights
        if self.support_max <= 2:
            p2 = self.weight(2)
            if p2 > 0.0:
                disc = (1.0 - self.weight(1)) ** 2 - 4.0 * p2 * self.weight(0)
                if disc < 0.0:
                    return None
                theta = ((1.0 - self.weight(1)) - math.sqrt(disc)) / (2.0 * p2)
            else:
                p1 = self.weight(1)
                if p1 >= 1.0:
                    return None  # identity law
                theta = self.weight(0) / (1.0 - p1)
            return theta if 0.0 < theta < 1.0 else None
        return _smallest_root_convex(self)

    def _tail_moments(self) -> tuple[float, float]:
        w = self.weights
        k = np.arange(w.size)
        m1 = float((k * w)[2:].sum())
        m2 = float((k * k * w)[2:].sum())
        return m1, m2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self._draws(rng, 1)[0]
        return np.array(self._draws(rng, size), dtype=np.int64)

    def _draws(self, rng: np.random.Generator, z: int) -> list[int]:
        # bisect_right on the float thresholds finds the index that
        # searchsorted(side="right") would find; one draw takes the scalar
        # uniform, which is the one rng.random(1) holds
        cum, draw = self._draw_table
        if z == 1:
            return [draw[bisect_right(cum, rng.random())]]
        return [draw[bisect_right(cum, x)] for x in rng.random(z).tolist()]

    def to_dict(self) -> dict:
        return {"kind": "finite", "weights": [float(x) for x in self.weights]}

    def __repr__(self) -> str:
        return f"FiniteSupport({np.array2string(self.weights, separator=', ')})"


@dataclass(frozen=True, eq=False)
class LinearFractional(OffspringLaw):
    """Geometric-tail law f(s) = q + r / (1 - p s).

    Weights are f[0] = q + r and f[k] = r p^k for k >= 1; the killing
    mass is 1 - q - r/(1-p).  Requires 0 < p < 1 (p = 0 would give mean
    zero) and q + r/(1-p) <= 1.
    """

    q: float
    r: float
    p: float

    def __post_init__(self) -> None:
        q, r, p = self.q, self.r, self.p
        if not all(map(math.isfinite, (q, r, p))):
            raise InvalidLawError("parameters must be finite")
        if q < 0.0 or r <= 0.0:
            raise InvalidLawError("need q >= 0 and r > 0")
        if not 0.0 < p < 1.0:
            raise InvalidLawError("need 0 < p < 1")
        if q + r / (1.0 - p) > 1.0 + MASS_TOL:
            raise InvalidLawError("total mass q + r/(1-p) exceeds 1")

    def pgf(self, s: ArrayLike, order: int = 0) -> ArrayLike:
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        x = float(s) if isinstance(s, float) else np.asarray(s, dtype=float)
        while True:
            den = 1.0 - self.p * x
            try:
                if order == 0:
                    out = self.q + self.r / den
                elif order == 1:
                    out = self.r * self.p / (den * den)
                else:
                    out = 2.0 * self.r * self.p**2 / _cube(den)
                break
            except (ZeroDivisionError, OverflowError):
                x = np.float64(x)  # numpy's inf or nan where Python floats raise
        return out if type(out) is float or out.ndim else float(out)

    def divided_difference(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        if isinstance(a, float) and isinstance(b, float):
            a, b = float(a), float(b)
        else:
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        while True:
            try:
                out = self.r * self.p / ((1.0 - self.p * a) * (1.0 - self.p * b))
                break
            except ZeroDivisionError:
                a, b = np.float64(a), np.float64(b)  # numpy's inf
        return out if type(out) is float or out.ndim else float(out)

    @property
    def mass(self) -> float:
        return self.q + self.r / (1.0 - self.p)

    def weight(self, k: int) -> float:
        if k < 0:
            return 0.0
        if k == 0:
            return self.q + self.r
        return self.r * self.p**k

    def support_cap(self, rel_tail: float = 1e-14) -> int:
        """Smallest K with geometric tail beyond K under rel_tail * f(1)."""
        # tail mass past K is r p^(K+1) / (1-p)
        target = rel_tail * self.mass * (1.0 - self.p) / self.r
        k = math.ceil(math.log(target) / math.log(self.p)) - 1
        return max(1, k)

    def coeff_vector(self, rel_tail: float = 1e-14) -> np.ndarray:
        cap = self.support_cap(rel_tail)
        out = self.r * self.p ** np.arange(cap + 1, dtype=float)
        out[0] = self.q + self.r
        return out

    def normalize(self) -> "LinearFractional":
        m = self.mass
        return LinearFractional(self.q / m, self.r / m, self.p)

    def fixed_point(self) -> float | None:
        # p s^2 - (1 + p q) s + (q + r) = 0
        p, q, r = self.p, self.q, self.r
        half = (1.0 + p * q) / (2.0 * p)
        disc = half * half - (q + r) / p
        if disc < 0.0:
            return None
        theta = half - math.sqrt(disc)
        return theta if 0.0 < theta < 1.0 else None

    def _tail_moments(self) -> tuple[float, float]:
        p, r = self.p, self.r
        s1 = p / (1.0 - p) ** 2          # sum k p^k
        s2 = p * (1.0 + p) / (1.0 - p) ** 3  # sum k^2 p^k
        return r * (s1 - p), r * (s2 - p)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self._draws(rng, 1)[0]
        return np.array(self._draws(rng, size), dtype=np.int64)

    def _draws(self, rng: np.random.Generator, z: int) -> list[int]:
        # u < q + r gives 0 children, u >= f(1) the graveyard, and the band
        # between inverts the geometric tail; only that band's logs are
        # taken, with np.log as an array, since math.log can round them
        # differently
        q, r, p = self.q, self.r, self.p
        u = [rng.random()] if z == 1 else rng.random(z).tolist()
        low, top = q + r, self.mass
        out = [DELTA if x >= top else 0 for x in u]
        geo = [i for i, x in enumerate(u) if low <= x < top]
        if geo:
            y = [max(1.0 - (u[i] - q - r) * (1.0 - p) / (r * p), 1e-320) for i in geo]
            k = np.floor(np.log(y) / math.log(p)).astype(np.int64) + 1
            for i, ki in zip(geo, k.tolist()):
                out[i] = ki
        return out

    def to_dict(self) -> dict:
        return {"kind": "lf", "q": self.q, "r": self.r, "p": self.p}


def _cube(x: ArrayLike) -> ArrayLike:
    """x**3 as a float or a numpy float rounds it (C ``pow``), entry by
    entry on an array: numpy's vectorised power does not always give
    those bits."""
    if not isinstance(x, np.ndarray):
        return x**3
    return np.array([np.float64(c) ** 3 for c in x.ravel().tolist()]).reshape(x.shape)


def _horner_lists(wl: list[float]) -> tuple[list[float], list[float], list[float]]:
    """Coefficients of f, f' and f'' as plain floats, highest power
    first, formed with the operations ``polyder`` uses ([0.0] once a
    derivative vanishes)."""
    d1 = [j * wl[j] for j in range(1, len(wl))]
    d2 = [j * d1[j] for j in range(1, len(d1))] or [wl[0] * 0]
    return wl[::-1], d1[::-1], d2[::-1]


def _smallest_root_convex(law: OffspringLaw) -> float | None:
    """Smallest root of f(s) - s on (0, 1) for a convex pgf.

    Uses the structure of g(s) = f(s) - s: g is convex, g(0) = f[0] >= 0
    and g(1) = -defect <= 0, so {g <= 0} meets [0, 1] in an interval and
    bisection on a sign change finds the smallest root.
    """
    g = lambda s: law.pgf(s) - s
    if law.weight(0) <= 0.0:
        # g(0) = 0: by convexity g < 0 on (0, b) for any b with g(b) < 0,
        # and g >= 0 everywhere otherwise; either way no root in (0, 1).
        return None
    if law.defect > 0.0:
        hi = 1.0
    else:
        # proper law: need an interior point with g < 0
        if law.mean <= 1.0:
            return None
        # g is smallest where f' = 1: f'(0) = f[1] < 1 < f'(1)
        hi = _bisect(lambda s: 1.0 - law.pgf(s, 1), 0.0, 1.0)
        if g(hi) >= 0.0:
            return hi if abs(g(hi)) <= _FIXED_POINT_TOL else None
    theta = _bisect(g, 0.0, hi)
    return theta if abs(g(theta)) <= _FIXED_POINT_TOL and 0.0 < theta < 1.0 else None


def _bisect(fn, lo: float, hi: float) -> float:
    """Root of a function positive at lo and negative at hi."""
    for _ in range(_FIXED_POINT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def law_from_dict(obj: dict) -> OffspringLaw:
    """Build a law from its JSON literal form.

    Accepts {"kind": "finite", "weights": [...]} and
    {"kind": "lf", "q": ..., "r": ..., "p": ...}.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidLawError("law literal must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "finite":
            return FiniteSupport(obj["weights"])
        if kind == "lf":
            return LinearFractional(float(obj["q"]), float(obj["r"]), float(obj["p"]))
    except KeyError as exc:
        raise InvalidLawError(f"{kind!r} law literal has no {exc.args[0]!r}") from exc
    raise InvalidLawError(f"unknown law kind {kind!r}")
