"""Recompute perfbench/reference.json: frozen expectations of the deep
finite-law jobs of the deep-exact workload, which are too long to
recompute with mpmath on every run.

Run from the repository root:  python3 perfbench/freeze_reference.py
It takes a few seconds and needs only mpmath.
"""
from __future__ import annotations

import json
import os

from mpmath import mp

import oracles
from workloads import EXAMPLE_2B, LAW_A, POWER_DEFECT, constant

DIGITS = 25
ROWS = sorted({0, 1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
              | set(range(0, 10_001, 250)))

# power-defect f_n(s) = (1 - 0.5 n^-1.5) s^2: the mean product grows like
# 2^n, so the defect series diverges, the variance series is a geometric
# tail and converges, the tail ratio c8 is 1 at every generation, and
# every generation has the same gap 1 - f_n[1] = 1.
POWER_DEFECT_VERDICTS = {
    "one_child_gap": "diverges",
    "mean_product_infimum": "converges",
    "defect_mean_series": "diverges",
    "var_mean_series": "converges",
    "tail_ratio_sup": "converges",
}


def s(x) -> str:
    return mp.nstr(x, DIGITS) if x else "0"


def absorption_rows(law: dict, n: int) -> dict:
    """Rows of a constant environment, where step i is generation i."""
    steps = oracles.absorption_steps(constant(law), n)
    return {"rows": {
        str(i): {"p_extinct": s(lo), "p_killed": s(1 - hi), "log_survival": s(log_s)}
        for i, (lo, hi, log_s) in enumerate(steps) if i in ROWS
    }}


def moments_at(env: dict, n: int) -> dict:
    _, d1, d2 = oracles.jet(json.dumps(env, sort_keys=True), n, 1.0)
    return {"mean": s(d1), "second": s(d2 + d1), "log_mean": s(mp.log(d1)),
            "log_second": s(mp.log(d2 + d1))}


def main() -> None:
    jobs = [
        ("absorption", constant(LAW_A), {"n": 10_000}, absorption_rows(LAW_A, 10_000)),
        ("moments", constant(LAW_A), {"n": 100_000}, moments_at(constant(LAW_A), 100_000)),
        ("moments", EXAMPLE_2B, {"n": 10_000}, moments_at(EXAMPLE_2B, 10_000)),
        ("check", POWER_DEFECT, {}, {"verdicts": POWER_DEFECT_VERDICTS}),
    ]
    doc = {
        "about": "frozen expectations for deep-exact; recompute with freeze_reference.py",
        "digits": DIGITS,
        "jobs": [
            {"command": c, "environment": e, "params": p, "expect": x} for c, e, p, x in jobs
        ],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
