"""Family trees of populations with a graveyard state.

A tree is its child counts in breadth-first order, one list per
generation: ``gens[g]`` holds the number of children of each node of
generation g, in label order, with DELTA standing for the draw that sent
the whole population to the graveyard.  The children of the last counted
generation carry no count: they are the frontier.  This is the
Ulam-Harris-Neveu coding of a plane tree taken generation by generation
(Neveu, Ann. IHP 1986): the labels, tuples of 1-based child indices with
the root as the empty tuple, are a function of the counts, and no tree
holds them.  They appear only in what the module hands out: the
``label,count`` records of ``serialize_tree`` and ``prefix_key``, the
keys of ``EnumeratedLaw.atoms`` and ``SpineRecord.labels``.  The text
format is defined by its writer: ``parse_tree`` reads each record's
count by position and accepts exactly the text ``serialize_tree`` writes
for those counts, give or take blank lines and the spaces around a
record.  ``validate_tree`` is the one check of count lists, which
``DefectiveTree(gens)`` and ``parse_tree`` build through; the samplers
skip it for the counts they draw.  The samplers' prefixes are counted
by their count tuples.

Absorption shows up structurally: an extinct tree ends in a generation
of zero counts, a killed tree ends in a generation whose counts are
recorded and include at least one DELTA, and nothing below that
generation exists.

The conditioned sampler builds a tree that is alive at depth n directly,
without rejection: a spine of ancestors chosen by size-biased-like
two-point marginals, subtrees left of the spine conditioned to die in
time, subtrees right of the spine conditioned to dodge the graveyard.
This is the spine decomposition of a tree conditioned to survive
(Geiger, J. Appl. Probab. 1999).  Given the spine, every off-spine node
draws its brood from an exact conditioned law, f(t s)/f(t) with t the
probability of its side's event for one child, so the sampler draws one
generation at a time and never retries.  Its output law on depth-n
prefixes matches the unconditioned law given survival, which
``validate_prop4`` checks against exact enumeration and plain rejection.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Mapping

import numpy as np

from .analysis import absorption_profile
from .environments import Environment, _exp, _sweep, _whole
from .laws import (
    BudgetError,
    DELTA,
    LinearFractional,
    PreconditionError,
    _rng,
)

__all__ = [
    "InvalidTreeError",
    "DefectiveTree",
    "serialize_tree",
    "parse_tree",
    "prefix_key",
    "validate_tree",
    "sample_dbtve",
    "prefix_prob",
    "SpineDist",
    "spine_dist",
    "SpineRecord",
    "ConditionedSampler",
    "sample_conditioned",
    "rejection_conditioned",
    "EnumeratedLaw",
    "enumerate_conditioned",
    "TreeStats",
    "tree_stats",
    "Prop4Report",
    "validate_prop4",
]

Label = tuple[int, ...]

# the random stream key, after the master seed, of each tree sampler
_TREE_STREAM = {"plain": 10, "construction": 11, "rejection": 12}

# the rejection sampler gives up, with BudgetError, after this many times
# the number of tries it expects to need, and at once when that is over
# _MAX_TRIES (about 4 s of n = 2 trees)
_BUDGET_FACTOR = 20.0
_MAX_TRIES = 10**6


class InvalidTreeError(ValueError):
    """Structurally impossible tree."""


class DefectiveTree:
    """A sampled (possibly infinite, hence capped) family tree.

    gens[g] lists the child counts of the generation-g nodes in label
    order, DELTA for a brood that drew the graveyard; a generation is
    counted whole or not at all.  cap is the sampling depth the tree was
    cut at (None when unknown, e.g. after parsing); it is metadata, not
    part of equality.

    ``DefectiveTree(gens)`` takes count lists in the form of ``tree.gens``,
    a list of one list per generation, copies them and checks the copy
    with ``validate_tree``; anything else, or counts that are not a
    possible tree, raise InvalidTreeError.
    """

    __slots__ = ("gens", "cap")

    def __init__(self, gens: list[list[int]], cap: int | None = None):
        if not isinstance(gens, list) or not all(isinstance(counts, list) for counts in gens):
            raise InvalidTreeError(
                "DefectiveTree takes count lists: a list of one list per generation"
            )
        self.gens, self.cap = [counts[:] for counts in gens], cap
        validate_tree(self)

    @classmethod
    def _of(cls, gens: list[list[int]], cap: int | None) -> "DefectiveTree":
        """The tree with the counts ``gens``, which it takes over unchecked:
        for counts the samplers drew or cut from a tree."""
        tree = object.__new__(cls)
        tree.gens, tree.cap = gens, cap
        return tree

    def gen_sizes(self) -> list[int]:
        """Population per generation; ends with DELTA if killed, 0 if
        extinct, a positive count if the tree is alive at its last
        counted generation."""
        return [1] + [DELTA if DELTA in counts else sum(counts) for counts in self.gens]

    def height(self) -> int | None:
        """Generation of the last individual, None when the tree is
        still alive at its cap (height not determined)."""
        z = self.gen_sizes()
        if z[-1] == DELTA or z[-1] == 0:
            return len(z) - 2
        return None

    def defect_generation(self) -> int | None:
        """Generation the graveyard element sits at, None if none."""
        z = self.gen_sizes()
        return len(z) - 1 if z[-1] == DELTA else None

    def subtree(self, child: int) -> "DefectiveTree":
        """The subtree rooted at the root's child ``child`` (1-based)."""
        child = _whole(child, "child", -math.inf)  # its range is checked here, with both ends
        z1 = self.gens[0][0] if self.gens else 0  # an uncounted or killed root has no children
        if not 1 <= child <= z1:
            raise PreconditionError(f"need 1 <= child <= {max(z1, 0)}, got child={child}")
        gens: list[list[int]] = []
        lo, hi = child - 1, child  # its nodes' positions in the generation read
        for counts in self.gens[1:]:
            part = counts[lo:hi]
            if not part:
                break
            gens.append(part)
            lo = sum(c for c in counts[:lo] if c > 0)
            hi = lo + sum(c for c in part if c > 0)
        return DefectiveTree._of(gens, None if self.cap is None else self.cap - 1)

    def serialize(self) -> str:
        return serialize_tree(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefectiveTree):
            return NotImplemented
        return self.gens == other.gens

    __hash__ = None

    def __repr__(self) -> str:
        return f"DefectiveTree({sum(map(len, self.gens))} counted nodes, cap={self.cap})"


def _records(gens) -> str:
    """``label,count`` lines of the counts ``gens``, breadth-first; this
    writer is the definition of the tree text format."""
    lines: list[str] = []
    frontier = [""]
    for g, counts in enumerate(gens):
        lines += [f"{lab},{'D' if c == DELTA else c}" for lab, c in zip(frontier, counts)]
        if g + 1 < len(gens):  # no labels past the last counted generation
            frontier = [
                f"{lab}.{j}" if lab else str(j)
                for lab, c in zip(frontier, counts)
                for j in range(1, c + 1)
            ]
    return "\n".join(lines)


def serialize_tree(tree: DefectiveTree) -> str:
    """Newline-delimited ``label,count`` records, breadth-first, with the
    root as the empty label and the graveyard count written as ``D``.
    Labels are dotted 1-based child indices without leading zeros or
    signs, and counts are plain decimal numbers; ``parse_tree`` accepts
    exactly this text."""
    return _records(tree.gens)


def parse_tree(text: str) -> DefectiveTree:
    """The tree whose ``serialize_tree`` text is ``text``, where blank
    lines and the spaces around a record are allowed.

    Each record's count, the field after its last comma, is read by
    position: generation g is the next records, as many as generation
    g-1's counts sum to, and reading stops at a DELTA or an extinction.
    The counts must make a ``DefectiveTree``, and the records must then
    be the lines ``serialize_tree`` writes for them, one by one; anything
    else raises InvalidTreeError.
    """
    records = [line.strip() for line in text.splitlines() if line.strip()]
    counts: list[int] = []
    for line in records:
        tail = line.rpartition(",")[2]
        try:
            counts.append(DELTA if tail == "D" else int(tail))
        except ValueError:
            raise InvalidTreeError(f"bad count field in {line!r}") from None
    gens, start, width = [], 0, 1  # width: the nodes of the next generation
    while width > 0 and start < len(counts):
        gens.append(counts[start : start + width])
        start += width
        width = DELTA if DELTA in gens[-1] else sum(gens[-1])
    tree = DefectiveTree(gens)
    for line, want in zip_longest(records, _records(gens).splitlines(), fillvalue="nothing"):
        if line != want:
            raise InvalidTreeError(f"record {line!r}, where serialize_tree writes {want}")
    return tree


def _prefix(tree: DefectiveTree, h: int) -> tuple[tuple[int, ...], ...]:
    """The prefix key of depth h: the count tuples of generations 0..h-1."""
    return tuple(map(tuple, tree.gens[: max(h, 0)]))


def prefix_key(tree: DefectiveTree, h: int) -> str:
    """Canonical identity of the depth-h prefix, for comparing laws: the
    records of ``serialize_tree`` for the nodes above depth h, none for h <= 0."""
    return _records(_prefix(tree, _whole(h, "h", -math.inf)))


@functools.cache
def _least_unwritable(digits: int) -> int | float:
    """The least int ``str`` refuses to write under a limit of ``digits``
    digits, inf for 0 (no limit)."""
    return 10**digits if digits else math.inf


def validate_tree(tree: DefectiveTree) -> None:
    """Raise InvalidTreeError unless ``tree.gens`` is a possible tree that
    ``serialize_tree`` can write: one count per node of each generation,
    and none below a DELTA or an extinction, as every tree built here has.
    A count is DELTA or an int >= 0, not a bool, with no more digits than
    the interpreter's ``str`` writes (``sys.get_int_max_str_digits``,
    which builds before 3.10.7 lack: they have no limit)."""
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    too_long = _least_unwritable(digits)
    width = 1  # the nodes of generation g
    for g, counts in enumerate(tree.gens):
        if width < 1:
            raise InvalidTreeError(f"generation {g} counted below the graveyard or extinction")
        if len(counts) != width:
            raise InvalidTreeError(f"generation {g} has {len(counts)} counts for {width} nodes")
        for c in counts:
            is_int = isinstance(c, (int, np.integer)) and not isinstance(c, bool)
            if not is_int or (c < 0 and c != DELTA):
                raise InvalidTreeError(f"bad count {c!r} in generation {g}")
            if c >= too_long:  # not in the message: repr would raise
                raise InvalidTreeError(f"a count in generation {g} has more than {digits} digits")
        width = DELTA if DELTA in counts else sum(counts)


# ---------------------------------------------------------------------------
# sampling the unconditioned tree
# ---------------------------------------------------------------------------


def sample_dbtve(
    env: Environment, rng: np.random.Generator, depth_cap: int
) -> DefectiveTree:
    """Sample a tree generation by generation up to depth_cap.

    The whole current generation draws before the graveyard check, so a
    generation containing a DELTA is still fully recorded.
    """
    depth_cap = _whole(depth_cap, "depth_cap")
    gens: list[list[int]] = []
    _grow_frontier(gens, env, depth_cap, rng)
    return DefectiveTree._of(gens, depth_cap)


def _grow_frontier(
    gens: list[list[int]], env: Environment, extra: int, rng: np.random.Generator
) -> None:
    """Extend the counts ``gens`` of a tree alive at depth len(gens) by
    ``extra`` more generations, drawing whole generations at a time (in
    label order) and stopping at extinction or at the first generation
    that holds a DELTA."""
    depth = len(gens)
    z = sum(gens[-1]) if gens else 1
    for g in range(depth + 1, depth + extra + 1):
        if not z:
            break
        counts = env.law(g)._draws(rng, z)
        gens.append(counts)
        if DELTA in counts:
            break
        z = sum(counts)


# ---------------------------------------------------------------------------
# prefix probabilities
# ---------------------------------------------------------------------------


def prefix_prob(env: Environment, tree: DefectiveTree, h: int) -> float:
    """Probability that the process grows exactly this tree's depth-h
    prefix.

    For a tree with no graveyard element this is the product of the
    per-node child-count weights over nodes above depth h; the tree must
    therefore be counted through depth h-1 wherever it is alive.  For a
    killed tree observed in full, every counted node contributes, the
    DELTA draws through their defect weight.
    """
    h = _whole(h, "h")
    z = tree.gen_sizes()
    if z[-1] > 0 and len(z) - 1 < h:
        raise PreconditionError("tree not counted deep enough for this prefix")
    # a DELTA sits at depth (kill generation - 1), so it counts once h
    # reaches the kill generation, and then every counted node does
    p = 1.0
    for g, counts in enumerate(tree.gens[:h]):
        law = env.law(g + 1)
        for c in counts:
            p *= law.defect if c == DELTA else law.weight(c)
    return p


# ---------------------------------------------------------------------------
# the spine construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpineDist:
    """Joint law of (spine child index D, brood size C) at one level.

    For the tree conditioned to be alive at depth n, the ancestor at
    generation l-1 has C children with the child at position D the next
    ancestor; children left of D must die within n-l generations,
    children right of D must dodge the graveyard for that long.
    """

    l: int
    n: int
    d: np.ndarray
    c: np.ndarray
    prob: np.ndarray
    _cum: list[float] = field(repr=False, compare=False, default=None)
    _pairs: list[tuple[int, int]] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_cum", np.cumsum(self.prob).tolist())
        object.__setattr__(self, "_pairs", list(zip(self.d.tolist(), self.c.tolist())))

    @property
    def total(self) -> float:
        return self._cum[-1] if self._cum else 0.0

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        # bisect_right on the float sums is searchsorted(side="right")
        u = rng.random() * self.total
        return self._pairs[min(bisect_right(self._cum, u), len(self._pairs) - 1)]


def spine_dist(env: Environment, l: int, n: int) -> SpineDist:
    """Exact (D, C) distribution at spine level l for horizon n."""
    l, n = _whole(l, "l", 1), _whole(n, "n")
    if l > n:
        raise PreconditionError(f"need l <= n, got l={l}, n={n}")
    sw = _sweep(env, l, n, 1.0, 0.0)
    return _spine_dist(env, l, n, float(sw.lo_points[0]), float(sw.points[0]))


def _spine_dist(env: Environment, l: int, n: int, f0: float, f1: float) -> SpineDist:
    """spine_dist at level l from f0 = f_{l,n}(0) and f1 = f_{l,n}(1)."""
    law = env.law(l)
    dd = law.divided_difference(f1, f0)
    if dd <= 0.0:
        raise PreconditionError(f"no surviving path through generation {l}")
    w = law.coeff_vector()
    ds, cs, ps = [], [], []
    for c in range(1, w.size):
        if w[c] <= 0.0:
            continue
        for d in range(1, c + 1):
            ds.append(d)
            cs.append(c)
            ps.append(w[c] * f0 ** (d - 1) * f1 ** (c - d) / dd)
    return SpineDist(
        l=l,
        n=n,
        d=np.array(ds, dtype=np.int64),
        c=np.array(cs, dtype=np.int64),
        prob=np.array(ps),
    )


@dataclass(frozen=True)
class SpineRecord:
    """The sampled spine: d[i], c[i] at level i+1 and the ancestor labels
    (labels[0] is the root, labels[l] the generation-l ancestor)."""

    d: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(self.d[:l] for l in range(len(self.d) + 1))


def _check_conditioning(n: int, extra_depth: int) -> tuple[int, int]:
    """Both conditioned samplers' counts, checked before any sweep: n >= 1, extra_depth >= 0."""
    return _whole(n, "n", 1), _whole(extra_depth, "extra_depth")


class ConditionedSampler:
    """Draws trees distributed as the process conditioned to be alive at
    depth n, without rejection.

    Given the spine, the off-spine nodes are independent, and each draws
    its brood from an exact conditioned law: f_{g+1}(t s)/f_{g+1}(t) for
    a node of generation g, with t = f_{g+1,n}(0) left of the spine (its
    line dies out by n) and t = f_{g+1,n}(1) right of it (its line does
    not reach the graveyard by n).  A generation is one spine draw and
    one draw of each side's nodes, in label order.
    """

    def __init__(
        self,
        env: Environment,
        n: int,
        *,
        extra_depth: int = 0,
    ):
        n, extra_depth = _check_conditioning(n, extra_depth)
        # f_{l,n}(1), f_{l,n}(0) and the survival from one backward sweep
        live, die, self._log_surv = _sweep(env, 0, n, 1.0, 0.0)[:3]
        self._live, self._die = live.tolist(), die.tolist()
        if _exp(self._log_surv) <= 0.0:
            raise PreconditionError("survival probability vanishes at this horizon")
        self.env = env
        self.n = n
        self.extra_depth = extra_depth
        self._spines = [
            _spine_dist(env, l, n, self._die[l], self._live[l]) for l in range(1, n + 1)
        ]
        # the brood laws of the off-spine nodes of generation l - 1, left
        # and right of the spine; None draws nothing: such a node has no
        # children
        self._broods = [
            (env.law(l)._conditioned(self._die[l]), env.law(l)._conditioned(self._live[l]))
            for l in range(1, n + 1)
        ]

    def sample(self, rng: np.random.Generator) -> tuple[DefectiveTree, SpineRecord]:
        ds, cs = [], []
        gens: list[list[int]] = []
        left = right = 0  # off-spine nodes in the generation drawn next
        for spine, (dies, lives) in zip(self._spines, self._broods):
            d, c = spine.sample(rng)
            lo = dies._draws(rng, left) if left and dies else [0] * left
            hi = lives._draws(rng, right) if right and lives else [0] * right
            gens.append(lo + [c] + hi)
            left, right = sum(lo) + d - 1, c - d + sum(hi)
            ds.append(d)
            cs.append(c)
        if self.extra_depth:
            _grow_frontier(gens, self.env, self.extra_depth, rng)
        tree = DefectiveTree._of(gens, self.n + self.extra_depth)
        return tree, SpineRecord(d=tuple(ds), c=tuple(cs))


def sample_conditioned(
    env: Environment,
    n: int,
    rng: np.random.Generator,
    *,
    extra_depth: int = 0,
) -> tuple[DefectiveTree, SpineRecord]:
    """One tree conditioned to be alive at depth n (see ConditionedSampler)."""
    return ConditionedSampler(env, n, extra_depth=extra_depth).sample(rng)


def rejection_conditioned(
    env: Environment,
    n: int,
    rng: np.random.Generator,
    *,
    extra_depth: int = 0,
    survival: float | None = None,
) -> DefectiveTree:
    """Conditioned tree by plain rejection: resample until alive at n,
    within a budget of 20x the expected tries, up to 10^6 (BudgetError).

    ``survival`` is P[alive at n] for this ``env`` at this horizon
    ``n``, as ``absorption_profile(env, n).survival`` gives it; a caller
    drawing many trees passes it to skip that sweep on every call.  It
    sets the budget only, and a value for another environment or
    horizon gives a wrong budget; one outside (0, 1] is refused.  None
    computes it here.
    """
    n, extra_depth = _check_conditioning(n, extra_depth)
    if survival is not None and not 0.0 < survival <= 1.0:  # NaN too
        raise PreconditionError(f"need 0 < survival <= 1, got survival={survival!r}")
    surv = absorption_profile(env, n).survival if survival is None else survival
    if surv <= 0.0:
        raise PreconditionError("survival probability vanishes at this horizon")
    tries = _BUDGET_FACTOR / surv
    if tries > _MAX_TRIES:
        raise BudgetError(f"rejection budget of {tries:.3g} tries is over the cap of {_MAX_TRIES}")
    for _ in range(math.ceil(tries)):
        t = sample_dbtve(env, rng, n)
        if len(t.gens) == n and DELTA not in t.gens[-1] and any(t.gens[-1]):
            break
    else:
        raise BudgetError(f"rejection budget of {math.ceil(tries)} exhausted")
    if extra_depth:
        _grow_frontier(t.gens, env, extra_depth, rng)
        t = DefectiveTree._of(t.gens, n + extra_depth)
    return t


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumeratedLaw:
    """Exact law of the depth-n prefix, conditioned on being alive at n.

    atoms maps prefix keys to conditional probabilities.  complete is
    True when every law in the window had its full support enumerated,
    in which case unconditional_mass is 1 up to float dust and
    survival_mass agrees with exact_survival.
    """

    n: int
    atoms: Mapping[str, float]
    unconditional_mass: float
    survival_mass: float
    exact_survival: float
    complete: bool
    atom_count: int
    marginals: tuple[Mapping[int, float], ...]


def enumerate_conditioned(
    env: Environment,
    n: int,
    *,
    max_count: int | None = None,
    budget: int = 10**6,
) -> EnumeratedLaw:
    """Enumerate every depth-n prefix and its probability.

    max_count truncates each generation's support (required for laws
    with unbounded support); the completeness flag records whether
    anything was cut.
    """
    n = _whole(n, "n", 1)
    max_count = None if max_count is None else _whole(max_count, "max_count")
    options: list[list[tuple[int, float]]] = []
    complete = True
    for g in range(1, n + 1):
        law = env.law(g)
        if isinstance(law, LinearFractional) and max_count is None:
            raise PreconditionError("unbounded support: max_count is required")
        w = law.coeff_vector()
        ks = [k for k in range(w.size) if w[k] > 0.0]
        if max_count is not None:
            if any(k > max_count for k in ks):
                complete = False
            ks = [k for k in ks if k <= max_count]
        opts = [(k, float(w[k])) for k in ks]
        if law.defect > 0.0:
            opts.append((DELTA, law.defect))
        if isinstance(law, LinearFractional):
            complete = False
        options.append(opts)

    alive: dict[tuple, float] = {}  # by prefix key
    total_mass = 0.0
    survival_mass = 0.0
    marg: list[dict[int, float]] = [dict() for _ in range(n + 1)]
    count = 0
    sizes: list[int] = [1]
    rows: list[tuple[int, ...]] = []

    def record(p: float, alive_at_n: bool) -> None:
        nonlocal total_mass, survival_mass, count
        count += 1
        if count > budget:
            raise BudgetError(f"atom budget of {budget} exhausted")
        total_mass += p
        if alive_at_n:
            key = tuple(rows)
            alive[key] = alive.get(key, 0.0) + p
            survival_mass += p
            for g, z in enumerate(sizes):
                marg[g][z] = marg[g].get(z, 0.0) + p

    def rec(g: int, z: int, p: float) -> None:
        if g == n:
            record(p, alive_at_n=True)
            return
        # every assignment of options to the z nodes of generation g, the
        # first node's option changing fastest
        for choice in itertools.product(options[g], repeat=z):
            choice = choice[::-1]
            q = p
            for _, wk in choice:
                q *= wk
            if q <= 0.0:
                continue
            counts = tuple(k for k, _ in choice)
            if DELTA in counts:
                record(q, alive_at_n=False)
                continue
            nz = sum(counts)
            if nz:
                rows.append(counts)
                sizes.append(nz)
                rec(g + 1, nz, q)
                rows.pop()
                sizes.pop()
            else:
                record(q, alive_at_n=False)

    rec(0, 1, 1.0)
    exact_surv = absorption_profile(env, n).survival
    norm = survival_mass
    atoms = {_records(k): v / norm for k, v in alive.items()} if norm > 0.0 else {}
    marginals = tuple(
        {z: v / norm for z, v in d.items()} if norm > 0.0 else {} for d in marg
    )
    return EnumeratedLaw(
        n=n,
        atoms=atoms,
        unconditional_mass=total_mass,
        survival_mass=survival_mass,
        exact_survival=exact_surv,
        complete=complete,
        atom_count=len(alive),
        marginals=marginals,
    )


# ---------------------------------------------------------------------------
# statistics and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeStats:
    """Summary of one tree against a reference depth n: its height
    (math.inf when still alive at the cap), generation sizes, and the
    rank of the leftmost root-child whose subtree is alive at n-1
    (math.inf when none is)."""

    n: int
    height: float
    gen_sizes: tuple[int, ...]
    rank: float


def tree_stats(tree: DefectiveTree, n: int) -> TreeStats:
    n = _whole(n, "n")
    z = tree.gen_sizes()
    h = tree.height()
    height = float(h) if h is not None else math.inf
    rank = math.inf
    # alive at generation n - 1 of its own, however deep the tree is counted
    z1 = tree.gens[0][0] if tree.gens else 0
    for i in range(1, z1 + 1):
        zs = tree.subtree(i).gen_sizes()
        if len(zs) >= n >= 1 and zs[n - 1] >= 1:
            rank = float(i)
            break
    return TreeStats(n=n, height=height, gen_sizes=tuple(z), rank=rank)


@dataclass(frozen=True)
class Prop4Report:
    """Agreement between the two conditioned samplers and, when
    enumeration is feasible, the exact conditional prefix law."""

    n: int
    samples: int
    atom_count: int
    threshold: float
    tv_construction_exact: float | None
    tv_rejection_exact: float | None
    tv_construction_rejection: float
    exact_survival: float
    complete_enumeration: bool | None
    passed: bool


def validate_prop4(
    env: Environment,
    n: int,
    samples: int = 10**5,
    master_seed: int = 0,
    *,
    max_count: int | None = None,
    budget: int = 10**6,
    tol_floor: float = 0.01,
) -> Prop4Report:
    """Sample both conditioned samplers and compare prefix laws.

    The pass threshold is max(tol_floor, 3 sqrt(B / samples)) with B the
    number of distinct prefixes seen; exact comparisons are skipped (not
    failed) when enumeration is infeasible for this environment.
    """
    n, samples = _whole(n, "n", 1), _whole(samples, "samples", 1)
    master_seed = _whole(master_seed, "master_seed")
    # here, since enumerate_conditioned's refusal would read as infeasible
    max_count = None if max_count is None else _whole(max_count, "max_count")
    exact: EnumeratedLaw | None
    try:
        exact = enumerate_conditioned(env, n, max_count=max_count, budget=budget)
    except (BudgetError, PreconditionError):
        exact = None

    cons = ConditionedSampler(env, n)
    rng_c = _rng(master_seed, _TREE_STREAM["construction"])
    rng_r = _rng(master_seed, _TREE_STREAM["rejection"])
    surv = _exp(cons._log_surv)  # the survival absorption_profile(env, n) gives
    # count prefixes by their count tuples, and write each distinct one as
    # its prefix_key once
    keys_c: Counter[tuple] = Counter()
    keys_r: Counter[tuple] = Counter()
    for _ in range(samples):
        keys_c[_prefix(cons.sample(rng_c)[0], n)] += 1
        keys_r[_prefix(rejection_conditioned(env, n, rng_r, survival=surv), n)] += 1
    counts_c = {_records(k): v for k, v in keys_c.items()}
    counts_r = {_records(k): v for k, v in keys_r.items()}

    keys = set(counts_c) | set(counts_r)
    if exact is not None:
        keys |= set(exact.atoms)
    b = len(keys)
    keys = sorted(keys)  # a fixed summation order: set order follows the hash seed
    threshold = max(tol_floor, 3.0 * math.sqrt(b / samples))

    def tv(emp: dict[str, int], ref: Mapping[str, float]) -> float:
        return 0.5 * sum(
            abs(emp.get(k, 0) / samples - ref.get(k, 0.0)) for k in keys
        )

    tv_cr = 0.5 * sum(
        abs(counts_c.get(k, 0) - counts_r.get(k, 0)) / samples for k in keys
    )
    tv_ce = tv(counts_c, exact.atoms) if exact is not None else None
    tv_re = tv(counts_r, exact.atoms) if exact is not None else None
    checks = [tv_cr] + [x for x in (tv_ce, tv_re) if x is not None]
    return Prop4Report(
        n=n,
        samples=samples,
        atom_count=b,
        threshold=threshold,
        tv_construction_exact=tv_ce,
        tv_rejection_exact=tv_re,
        tv_construction_rejection=tv_cr,
        exact_survival=surv,
        complete_enumeration=None if exact is None else exact.complete,
        passed=all(x <= threshold for x in checks),
    )
