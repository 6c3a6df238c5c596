"""Per-layer metrics from one traced pass.

Span figures (``.calls``, ``.self_s``) come from the recorded spans.
Work counts are computed from the recorded inputs of each call, by the
cost model of the code they describe, and are labelled as computed in
the report: generations swept, convolution multiply-adds and the share
of them that feeds kept coefficients, and nominal replicate-generations.
Simulation blocks are counted as they run.
"""
from __future__ import annotations

import numpy as np

from tracing import Tracer, self_times

SPAN_CALLS = [
    "laws.pgf",
    "laws.divided_difference",
    "laws.construct",
    "laws.sample",
    "environments.law",
    "environments.composed_points",
    "environments.compose_eval",
    "environments.compose_coeffs",
    "analysis.absorption_profile",
    "analysis.absorption_scan",
    "analysis.moments",
    "analysis.survival_bounds",
    "analysis.criteria_verdicts",
    "analysis.growth_rate",
    "analysis.envelope_ratios",
    "analysis.conditioned_mean_bound",
    "simulate.monte_carlo",
    "trees.sample_dbtve",
    "trees.absorption_profile",
    "cli.load_config",
]
SPAN_SELF = [
    "laws.pgf",
    "laws.divided_difference",
    "laws.sample",
    "environments.law",
    "environments.compose_coeffs",
    "analysis.absorption_profile",
    "analysis.absorption_scan",
    "analysis.moments",
    "analysis.survival_bounds",
    "analysis.criteria_verdicts",
    "analysis.growth_rate",
    "analysis.envelope_ratios",
    "analysis.conditioned_mean_bound",
    "simulate.monte_carlo",
    "simulate.mode_agreement",
    "trees.validate_prop4",
    "cli.load_config",
]

# Law steps each sweep takes for its inputs, by the code at the time the
# benchmark was written.  Nested sweeps are counted by their own spans.
GENERATIONS = {
    "environments.composed_points": lambda a: a["n"] - a["k"],
    "environments.compose_eval": lambda a: a["n"] - a["k"],
    "environments.mu_profile": lambda a: a["n"],
    "environments.compose_coeffs": lambda a: a["n"],
    "analysis.absorption_profile": lambda a: a["n"],
    "analysis.absorption_scan": lambda a: a["n"],
    "analysis.moments": lambda a: a["n"],
    "analysis.survival_bounds": lambda a: a["n"],
    "analysis.criteria_verdicts": lambda a: max(int(h) for h in a["horizons"]),
    "analysis.conditioned_mean_bound": lambda a: 2 * a["n"],
}
# outermost spans of exact work: their time over the generations swept
# gives the cost of one generation
EXACT_ROOTS = tuple(GENERATIONS) + (
    "analysis.growth_rate",
    "analysis.envelope_ratios",
)

def coeff_madds(env, n: int, degree: int, rel_tail: float) -> tuple[int, int]:
    """Multiply-adds of compose_coeffs' Horner substitution, and the
    share of them that lands in a kept coefficient.

    Per generation with support size K+1, the first convolution is of a
    length-1 polynomial with the length-(d+1) carrier, each of the other
    K-1 is (d+1) x (d+1), of which (d+1)(d+2)/2 products feed the kept
    coefficients 0..d.
    """
    d1 = degree + 1
    total = useful = 0
    for i in range(1, n + 1):
        k = env.law(i).coeff_vector(rel_tail).size - 1
        if k >= 1:
            total += d1 + (k - 1) * d1 * d1
            useful += d1 + (k - 1) * d1 * (d1 + 1) // 2
    return total, useful


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, computed work counts) of the spans recorded in ``tr``."""
    a = tr.arrays()
    names = tr.names
    nid = a["name_id"]
    parent = a["parent"]
    start, end = a["start_ns"], a["end_ns"]
    dur = (end - start) / 1e9
    self_s = self_times(parent, start, end) / 1e9
    n_names = len(names)
    calls = np.bincount(nid, minlength=n_names)
    self_by = np.bincount(nid, weights=self_s, minlength=n_names)
    dur_by = np.bincount(nid, weights=dur, minlength=n_names)
    ids = {name: i for i, name in enumerate(names)}

    def n_calls(name):
        return int(calls[ids[name]])

    def self_of(name):
        return float(self_by[ids[name]])

    def incl(name):
        return float(dur_by[ids[name]])

    def child_count(child, of):
        """Spans named ``child`` whose parent span is named ``of``."""
        kids = nid == ids[child]
        par = parent[kids]
        return int(np.sum(nid[par[par >= 0]] == ids[of]))

    m: dict[str, float] = {}
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = n_calls(name)
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = self_of(name)
    evals = n_calls("laws.pgf") + n_calls("laws.divided_difference")
    m["laws.us_per_eval"] = (
        (self_of("laws.pgf") + self_of("laws.divided_difference")) / evals * 1e6
    )

    # computed work counts, from the recorded inputs
    gens = 0
    madds = useful = 0
    rep_gens = reps = overflow = atoms = 0
    for name, args, result in tr.calls:
        if name in GENERATIONS:
            gens += GENERATIONS[name](args.arguments)
        if name == "environments.compose_coeffs":
            t, u = coeff_madds(*(args.arguments[k] for k in ("env", "n", "degree", "rel_tail")))
            madds += t
            useful += u
        elif name == "simulate.monte_carlo":
            h, r = args.arguments["horizon"], args.arguments["reps"]
            rep_gens += h * r
            reps += r
            overflow += result.n_overflow
        elif name == "trees.enumerate_conditioned":
            atoms += len(result.atoms)
    computed = {
        "analysis.generations_swept": gens,
        "environments.compose_coeffs.madds": madds,
        "environments.compose_coeffs.useful_madds": useful,
        "simulate.rep_gens": rep_gens,
    }

    m["environments.compose_coeffs.madds"] = madds
    m["environments.compose_coeffs.gmadds_per_s"] = (
        madds / self_of("environments.compose_coeffs") / 1e9
    )
    m["environments.compose_coeffs.useful_frac"] = useful / madds
    m["analysis.generations_swept"] = gens
    m["analysis.us_per_generation"] = _outermost_time(nid, parent, dur, names) / gens * 1e6
    m["analysis.cond_mean.degree_doublings"] = child_count(
        "environments.compose_coeffs", "analysis.conditioned_mean_bound"
    ) - n_calls("analysis.conditioned_mean_bound")
    m["simulate.rep_gens_per_s"] = rep_gens / incl("simulate.monte_carlo")
    m["simulate.blocks"] = tr.counts["simulate.blocks"]
    m["simulate.overflow_frac"] = overflow / reps
    m["trees.rejection.accept_frac"] = n_calls("trees.rejection") / child_count(
        "trees.sample_dbtve", "trees.rejection"
    )
    m["trees.conditioned.tries_per_tree"] = child_count(
        "trees.sample_dbtve", "trees.conditioned.sample"
    ) / n_calls("trees.conditioned.sample")
    m["trees.conditioned.us_per_tree"] = (
        incl("trees.conditioned.sample") / n_calls("trees.conditioned.sample") * 1e6
    )
    m["trees.rejection.us_per_tree"] = incl("trees.rejection") / n_calls("trees.rejection") * 1e6
    m["trees.enumerate_conditioned.atoms"] = atoms
    m["cli.self_s"] = sum(self_of(n) for n in names if n.startswith("cli."))
    return m, computed


def _outermost_time(nid, parent, dur, names) -> float:
    """Total duration of exact-work spans not nested in another one."""
    roots = {i for i, name in enumerate(names) if name in EXACT_ROOTS}
    total = 0.0
    for idx in np.nonzero(np.isin(nid, list(roots)))[0]:
        p = parent[idx]
        while p >= 0 and nid[p] not in roots:
            p = parent[p]
        if p < 0:
            total += float(dur[idx])
    return total
