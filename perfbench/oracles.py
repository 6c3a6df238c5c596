"""Independent checks of the artifacts each job wrote.

Nothing here imports defbranch.  Exact quantities are recomputed with
mpmath at 50 digits: finite laws step by step, and every run of
linear-fractional generations as one Moebius map (a 2x2 matrix power),
which is exact at any depth.  Survival is carried as a product of
divided differences, so it never comes from subtracting two close
numbers.  The deep finite-law jobs of ``deep-exact`` compare against
values frozen once by ``freeze_reference.py`` (``reference.json``).

Tolerances are the ones the repository's tests use for the same
quantities; a tolerance on a logarithm is the matching relative
tolerance on the linear value.
"""
from __future__ import annotations

import collections
import csv
import functools
import json
import math
import os

from mpmath import mp, mpf

mp.dps = 50

# tolerances, as in tests/
VALUE_REL, VALUE_ABS = 1e-12, 1e-13  # composed pgf values
PROB_ABS = 1e-12                     # coefficients and killed mass
MEAN_REL, SECOND_REL = 1e-12, 1e-11  # finite-law moments
SURV_REL = 1e-12                     # finite-law survival
LF_REL = 1e-9                        # anything through a linear-fractional law
LOG_REL, LOG_ABS = 1e-12, 1e-11      # log-scale sums at depth
# A log sum over n generations is also allowed the naive-summation bound
# n u (u = 2**-53), which is what LOG_REL amounts to at the n = 8000 the
# tests use it at.
UNIT_ROUNDOFF = 2.0**-53
COND_MEAN_REL = 1e-10                # conditioned mean, finite laws
COND_TAIL = 1e-10                    # conditioned_mean_bound's own target
SE_FACTOR = 5.0                      # Monte Carlo: standard errors allowed

# criterion-10 classification of the named families (acceptance suite)
KNOWN_VERDICTS = {
    "example-1a": {"one_child_gap": "diverges", "mean_product_infimum": "diverges"},
    "example-1b": {k: "converges" for k in (
        "one_child_gap", "mean_product_infimum", "defect_mean_series",
        "var_mean_series", "tail_ratio_sup")},
    "example-2a": {"defect_mean_series": "diverges", "var_mean_series": "converges",
                   "tail_ratio_sup": "converges", "mean_product_infimum": "converges"},
    "example-2b": {"defect_mean_series": "converges", "var_mean_series": "converges",
                   "tail_ratio_sup": "converges", "mean_product_infimum": "converges"},
}

_HERE = os.path.dirname(os.path.abspath(__file__))


def job_key(cfg: dict) -> str:
    return json.dumps(
        {k: cfg[k] for k in ("command", "environment", "params")}, sort_keys=True
    )


@functools.lru_cache(maxsize=1)
def reference() -> dict:
    with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as fh:
        return {job_key(e): e["expect"] for e in json.load(fh)["jobs"]}


# ---------------------------------------------------------------------------
# laws and environments in mpmath
# ---------------------------------------------------------------------------


def mp_law(law: dict):
    """("fin", weights) or ("lf", (Moebius matrix (a, b, c, d), its determinant)).

    The determinant is carried separately: in a long product the matrix
    tends to rank one, and a d - b c would cancel to noise."""
    if law["kind"] == "finite":
        return ("fin", tuple(mpf(w) for w in law["weights"]))
    q, r, p = mpf(law["q"]), mpf(law["r"]), mpf(law["p"])
    # q + r/(1 - p s) = (-q p s + q + r) / (-p s + 1)
    return ("lf", ((-q * p, q + r, -p, mpf(1)), r * p))


def named_law(env: dict, i: int) -> dict:
    """Generation i of a named family, with its weight rounded to a
    float as the program builds it: past n ~ 45 the example-2 weights
    round to exactly 1.  The oracle composes these laws exactly."""
    fam = env["id"]
    if fam == "example-1a":
        return {"kind": "finite", "weights": [0.0, 0.5 if i == 1 else 1.0 - 1.0 / i]}
    if fam == "example-1b":
        return {"kind": "finite", "weights": [0.0, 0.5 if i == 1 else 1.0 - 1.0 / i**2]}
    if fam == "example-2a":
        return {"kind": "finite", "weights": [0.0, 0.0, 1.0 - 0.5**i / i]}
    if fam == "example-2b":
        return {"kind": "finite", "weights": [0.0, 0.0, 1.0 - 0.5**i / i**2]}
    prm = env["params"]
    m = int(prm.get("arity", 1))
    c = 1.0 - float(prm["a"]) * float(i) ** (-float(prm["b"]))
    return {"kind": "finite", "weights": [0.0] * m + [c]}


def segments(env: dict, n: int) -> list[tuple[tuple, int]]:
    """Laws of generations 1..n as (law, repeat count), outermost first."""
    kind = env["kind"]
    if kind == "constant":
        return [(mp_law(env["law"]), n)] if n else []
    if kind == "prefix":
        head = [(mp_law(lw), 1) for lw in env["laws"][:n]]
        rest = n - len(env["laws"])
        return head + ([(mp_law(env["tail"]), rest)] if rest > 0 else [])
    if kind == "named":
        return [(mp_law(named_law(env, i)), 1) for i in range(1, n + 1)]
    raise ValueError(f"no oracle for environment kind {kind!r}")


def has_lf(env: dict, n: int) -> bool:
    return any(law[0] == "lf" for law, _ in segments(env, n))


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_pow(m, k: int):
    out = (mpf(1), mpf(0), mpf(0), mpf(1))
    while k:
        if k & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        k >>= 1
    return out


def _steps(env: dict, n: int):
    """Innermost-first maps: ("fin", weights) once per generation, or
    ("lf", matrix) for a whole run of linear-fractional generations."""
    for (kind, data), count in reversed(segments(env, n)):
        if kind == "lf":
            yield kind, (mat_pow(data[0], count), data[1] ** count)
        else:
            for _ in range(count):
                yield kind, data


def poly_jet(w, x):
    """sum_k w[k] x^k and its first two derivatives (Horner)."""
    v = d1 = d2 = mpf(0)
    for k in range(len(w) - 1, -1, -1):
        d2 = d2 * x + 2 * d1
        d1 = d1 * x + v
        v = v * x + w[k]
    return v, d1, d2


@functools.lru_cache(maxsize=None)
def jet(env_json: str, n: int, s: float):
    """f_{0,n}(s) and its first two derivatives."""
    v, d1, d2 = mpf(s), mpf(1), mpf(0)
    for kind, data in _steps(json.loads(env_json), n):
        if kind == "fin":
            f0, f1, f2 = poly_jet(data, v)
        else:
            (a, b, c, d), det = data
            den = c * v + d
            f0, f1, f2 = (a * v + b) / den, det / den**2, -2 * c * det / den**3
        v, d1, d2 = f0, f1 * d1, f2 * d1 * d1 + f1 * d2
    return v, d1, d2


def absorption_steps(env: dict, n: int):
    """(f_{0,i}(0), f_{0,i}(1), log survival) at the start and after each
    step of ``_steps`` (one per finite-law generation, one per run of
    linear-fractional ones), survival as a product of divided
    differences."""
    lo, hi, log_s = mpf(0), mpf(1), mpf(0)
    yield lo, hi, log_s
    for kind, data in _steps(env, n):
        if kind == "fin":
            h, dd, apow = mpf(0), mpf(0), mpf(1)
            for k in range(1, len(data)):
                h = apow + lo * h
                apow = apow * hi
                dd += data[k] * h
            log_s += mp.log(dd)
            hi, lo = poly_jet(data, hi)[0], poly_jet(data, lo)[0]
        else:
            (a, b, c, d), det = data
            log_s += mp.log(det / ((c * hi + d) * (c * lo + d)))
            hi, lo = (a * hi + b) / (c * hi + d), (a * lo + b) / (c * lo + d)
        yield lo, hi, log_s


@functools.lru_cache(maxsize=None)
def absorption(env_json: str, n: int):
    """(f_{0,n}(0), f_{0,n}(1), log survival)."""
    return collections.deque(absorption_steps(json.loads(env_json), n), maxlen=1)[0]


def lf_window(env: dict, n: int):
    """(q, r, p) of f_{0,n} when every generation is linear-fractional."""
    m, det = (mpf(1), mpf(0), mpf(0), mpf(1)), mpf(1)
    for (kind, data), count in segments(env, n):
        if kind != "lf":
            raise ValueError("window has a finite-support law")
        m = _mat_mul(m, mat_pow(data[0], count))
        det *= data[1] ** count
    a, b, c, d = m
    # (a s + b)/(c s + d) = q + r/(1 - p s) with r = -det/(c d)
    return a / c, -det / (c * d), -c / d


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def close(got: float, want, rel: float, abs_: float = 0.0) -> bool:
    want = float(want)  # a value beyond float range becomes 0 or inf, as in the program
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= max(rel * abs(want), abs_)


class Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def near(self, name, got, want, rel, abs_=0.0) -> None:
        self.expect(close(got, want, rel, abs_), f"{name}={got!r}, expected {mp.nstr(mpf(want), 17)}")


def read_rows(out_dir: str, command: str) -> list[dict]:
    with open(os.path.join(out_dir, f"{command}.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_result(out_dir: str, command: str):
    with open(os.path.join(out_dir, f"{command}.json"), encoding="utf-8") as fh:
        return json.load(fh)["result"]


def _log_tol(want, lin_rel: float, n: int) -> float:
    """Absolute tolerance on a log sum over n generations: the linear
    relative tolerance, or the relative one of a sum at depth."""
    return max(max(LOG_REL, n * UNIT_ROUNDOFF) * abs(float(want)), lin_rel, LOG_ABS)


def check_pgf(env, params, out, pr):
    ej = json.dumps(env, sort_keys=True)
    for row in read_rows(out, "pgf"):
        want = jet(ej, int(row["n"]), float(row["s"]))[int(row["order"])]
        pr.near(f"pgf(s={row['s']})", float(row["value"]), want, VALUE_REL, VALUE_ABS)


def check_moments(env, params, out, pr):
    ref = reference().get(job_key({"command": "moments", "environment": env, "params": params}))
    ej = json.dumps(env, sort_keys=True)
    for row in read_rows(out, "moments"):
        n = int(row["n"])
        if ref is not None:
            want = {k: mpf(v) for k, v in ref.items()}
        else:
            _, d1, d2 = jet(ej, n, 1.0)
            want = {"mean": d1, "second": d2 + d1, "log_mean": mp.log(d1),
                    "log_second": mp.log(d2 + d1)}
        lf = has_lf(env, n)
        m_rel = LF_REL if lf else MEAN_REL
        s_rel = LF_REL if lf else SECOND_REL
        pr.near("mean", float(row["mean"]), want["mean"], m_rel)
        pr.near("second", float(row["second"]), want["second"], s_rel)
        pr.near("log_mean", float(row["log_mean"]), want["log_mean"],
                0.0, _log_tol(want["log_mean"], m_rel, n))
        pr.near("log_second", float(row["log_second"]), want["log_second"],
                0.0, _log_tol(want["log_second"], s_rel, n))
        log_ratio = want["log_second"] - 2 * want["log_mean"]
        pr.near("log_ratio", float(row["log_ratio"]), log_ratio,
                0.0, _log_tol(want["log_second"], s_rel, n) + 2 * _log_tol(want["log_mean"], m_rel, n))


def check_absorption(env, params, out, pr):
    rows = read_rows(out, "absorption")
    n = int(params["n"])
    pr.expect(len(rows) == n + 1, f"{len(rows)} rows, expected {n + 1}")
    ref = reference().get(job_key({"command": "absorption", "environment": env, "params": params}))
    if ref is not None:
        wanted = {int(k): {f: mpf(v) for f, v in row.items()} for k, row in ref["rows"].items()}
    else:
        ej = json.dumps(env, sort_keys=True)
        wanted = {}
        for i in range(n + 1):
            lo, hi, log_s = absorption(ej, i)
            wanted[i] = {"p_extinct": lo, "p_killed": 1 - hi, "log_survival": log_s}
    rel = LF_REL if has_lf(env, n) else SURV_REL
    for i, want in wanted.items():
        if i >= len(rows):
            break
        row = rows[i]
        pr.expect(int(row["n"]) == i, f"row {i} has n={row['n']}")
        pr.near(f"p_extinct[{i}]", float(row["p_extinct"]), want["p_extinct"], VALUE_REL, VALUE_ABS)
        pr.near(f"p_killed[{i}]", float(row["p_killed"]), want["p_killed"], VALUE_REL, VALUE_ABS)
        pr.near(f"log_survival[{i}]", float(row["log_survival"]), want["log_survival"],
                0.0, _log_tol(want["log_survival"], rel, i))


def check_bounds(env, params, out, pr):
    ej = json.dumps(env, sort_keys=True)
    for row in read_rows(out, "bounds"):
        n = int(row["n"])
        _, _, log_s = absorption(ej, n)
        rel = LF_REL if has_lf(env, n) else SURV_REL
        pr.expect(row["holds"] == "True", f"bounds do not hold at n={n}")
        pr.near(f"survival[{n}]", float(row["survival"]), mp.exp(log_s), rel)
        pr.near(f"log_survival[{n}]", float(row["log_survival"]), log_s, 0.0, _log_tol(log_s, rel, n))


def check_rates(env, params, out, pr):
    if env["kind"] != "constant":
        raise ValueError("rates oracle covers constant environments only")
    ej = json.dumps(env, sort_keys=True)
    law = mp_law(env["law"])

    def dlog(s):  # log f'(s) of the constant law
        kind, data = law
        if kind == "fin":
            return mp.log(poly_jet(data, mpf(s))[1])
        (a, b, c, d), det = data
        return mp.log(det / (c * mpf(s) + d) ** 2)

    def log_nu(s, n):  # log sum_{i<=n} f'(s)^-i
        x = mp.exp(-dlog(s))
        return mp.log(x * (x**n - 1) / (x - 1)) if x != 1 else mp.log(n)

    for row in read_rows(out, "rates"):
        n = int(row["n"])
        rel = LF_REL if has_lf(env, n) else SURV_REL
        log_mean = mp.log(jet(ej, n, 1.0)[1])
        log_s = absorption(ej, n)[2]
        tol_m, tol_s = _log_tol(log_mean, rel, n), _log_tol(log_s, rel, n)
        pr.near("log_mean", float(row["log_mean"]), log_mean, 0.0, tol_m)
        pr.near("log_survival", float(row["log_survival"]), log_s, 0.0, tol_s)
        pr.near("mean_rate", float(row["mean_rate"]), log_mean / n, 0.0, tol_m / n)
        pr.near("survival_rate", float(row["survival_rate"]), log_s / n, 0.0, tol_s / n)
        if "rho" not in params:
            continue
        rho, se = float(params["rho"]), float(params["sigma"]) + float(params["eps"])
        # a linear ratio exp(x - y) is as accurate as its exponent
        for name, lg, tol in (
            ("mean_over_mu_rho", log_mean - n * dlog(rho), tol_m + _log_tol(n * dlog(rho), rel, n)),
            ("surv_nu_rho", log_s + log_nu(rho, n), tol_s + _log_tol(log_nu(rho, n), rel, n)),
            ("mean_over_mu_sigma_eps", log_mean - n * dlog(se), tol_m + _log_tol(n * dlog(se), rel, n)),
            ("surv_nu_sigma_eps", log_s + log_nu(se, n), tol_s + _log_tol(log_nu(se, n), rel, n)),
        ):
            pr.near(name, float(row[name]), mp.exp(lg), tol)


def check_cond_mean(env, params, out, pr):
    ej = json.dumps(env, sort_keys=True)
    for row in read_rows(out, "cond-mean"):
        n = int(row["n"])
        pr.expect(row["holds"] == "True", f"bound does not hold at n={n}")
        pr.expect(float(row["cond_tail"]) < COND_TAIL, f"cond_tail={row['cond_tail']} at n={n}")
        if has_lf(env, n):
            _, _, p = lf_window(env, n)
            pr.near(f"exact[{n}]", float(row["exact"]), 1 / (1 - p), LF_REL)
        else:
            mean = jet(ej, n, 1.0)[1]
            pr.near(f"exact[{n}]", float(row["exact"]), mean / mp.exp(absorption(ej, n)[2]),
                    COND_MEAN_REL)


def check_dist(env, params, out, pr):
    res = read_result(out, "dist")
    n, degree = int(params["n"]), int(params["degree"])
    probs = res["probs"]
    pr.expect(len(probs) == degree + 1, f"{len(probs)} coefficients, expected {degree + 1}")
    pr.expect(min(probs) >= 0.0 and res["tail_mass"] >= 0.0, "negative mass")
    ej = json.dumps(env, sort_keys=True)
    lo, hi, _ = absorption(ej, n)
    pr.near("delta_mass", res["delta_mass"], 1 - hi, 0.0, PROB_ABS)
    if all(law[0] == "lf" for law, _ in segments(env, n)):
        q, r, p = lf_window(env, n)
        for k, got in enumerate(probs):
            want = q + r if k == 0 else r * p**k
            if not close(got, want, 0.0, PROB_ABS):
                pr.near(f"probs[{k}]", got, want, 0.0, PROB_ABS)
                break
        return
    pr.near("probs[0]", probs[0], lo, 0.0, PROB_ABS)
    for s in (0.25, 0.5, 0.75):
        f = jet(ej, n, s)[0]
        low = mpf(0)
        for c in reversed(probs):
            low = low * s + c
        high = low + res["tail_mass"] * mpf(s) ** (degree + 1)
        pr.expect(low - PROB_ABS <= f <= high + PROB_ABS,
                  f"f({s})={mp.nstr(f, 17)} outside coefficient bracket")


def check_check(env, params, out, pr):
    got = {c["criterion"]: c["verdict"] for c in read_result(out, "check")["criteria"]}
    ref = reference().get(job_key({"command": "check", "environment": env, "params": params}))
    want = ref["verdicts"] if ref is not None else KNOWN_VERDICTS[env["id"]]
    for k, v in want.items():
        pr.expect(got.get(k) == v, f"{k}: {got.get(k)}, expected {v}")


def check_simulate(env, params, out, pr):
    res = read_result(out, "simulate")
    _, _, log_s = absorption(json.dumps(env, sort_keys=True), int(params["horizon"]))
    exact = float(mp.exp(log_s))
    # the reported standard error is 0 when no path survives, which the
    # rare survivors of a defective law make likely; the exact one is not
    reps = res["reps"] - res["n_overflow"]
    se = max(res["p_survival_se"], math.sqrt(exact * (1.0 - exact) / reps))
    pr.expect(abs(res["p_survival"] - exact) <= SE_FACTOR * se,
              f"p_survival={res['p_survival']} vs exact {exact} (se {se})")


def check_agree(env, params, out, pr):
    res = read_result(out, "agree")
    pr.expect(res["passed"] is True and not res["degenerate"], f"agree failed: tv={res['tv']}")


def check_tree_validate(env, params, out, pr):
    res = read_result(out, "tree-validate")
    pr.expect(res["passed"] is True, f"tree-validate failed: {res}")


def check_tree_sample(env, params, out, pr):
    res = read_result(out, "tree-sample")
    n = int(params["n"])
    pr.expect(len(res["trees"]) == int(params.get("count", 1)), "wrong tree count")
    for st in res["stats"]:
        z = st["gen_sizes"]
        pr.expect(len(z) == n + 1 and z[-1] >= 1, f"tree not alive at depth {n}: {z}")


CHECKS = {
    "pgf": check_pgf,
    "moments": check_moments,
    "absorption": check_absorption,
    "bounds": check_bounds,
    "rates": check_rates,
    "cond-mean": check_cond_mean,
    "dist": check_dist,
    "check": check_check,
    "simulate": check_simulate,
    "agree": check_agree,
    "tree-validate": check_tree_validate,
    "tree-sample": check_tree_sample,
}


def check_job(cfg: dict, out_dir: str) -> list[str]:
    """Problems with one job's artifacts; empty when they are correct."""
    pr = Problems()
    try:
        CHECKS[cfg["command"]](cfg["environment"], cfg.get("params", {}), out_dir, pr)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        pr.append(f"cannot check: {type(exc).__name__}: {exc}")
    return pr
