"""Series verdicts that decide long-run fate, across environments.

The five convergence checks settle whether a varying environment keeps
real mass alive forever.  No finite horizon decides a series, so every
verdict comes from a rule: a built-in family's from its arity and the
decay of its defects, a repeated tail's from its tail law.  The partial
sums and the fitted decay slope of the terms are reported beside each
verdict as evidence of how fast the sums are still moving.
"""
from __future__ import annotations

from defbranch import CRITERIA, NamedFamily, criteria_verdicts

FAMILIES = ("example-1a", "example-1b", "example-2a", "example-2b")


def verdict_table() -> None:
    print("analytic verdicts (built-in families)")
    header = "  " + f"{'criterion':<22}" + "".join(f"{f[8:]:>6}" for f in FAMILIES)
    print(header)
    rows = {f: {v.criterion: v for v in criteria_verdicts(NamedFamily(f))} for f in FAMILIES}
    for crit in CRITERIA:
        cells = "".join(f"{rows[f][crit].verdict[:4]:>6}" for f in FAMILIES)
        print(f"  {crit:<22}{cells}")
    print("  (conv = converges, dive = diverges)")
    print()
    print("reading the columns:")
    print("  1a: the one-child gap series diverges and the mean products")
    print("      sink to zero, so the single line of descent dies out.")
    print("  1b: every series converges; a quarter of the mass survives.")
    print("  2a: per-individual defects shrink, but not faster than the")
    print("      population grows; the defect/mean series diverges and")
    print("      killing wins eventually.")
    print("  2b: all listed series converge and survival stays positive.")


def power_defect_table() -> None:
    print("\npower-defect verdicts, per-generation defect a*n^-b with a = 0.3 and")
    print("m children; beside them the fitted slope of the one-child gap terms")
    print("(a*n^-b for m = 1, so slope = -b), shown as evidence only:")
    heads = ("gap", "mean", "defect", "var", "tail")  # the CRITERIA, in order
    print(f"  {'m':>2}  {'b':>4}  {'slope':>8}" + "".join(f"{h:>9}" for h in heads))
    for m in (1, 2):
        for b in (2.0, 1.0, 0.5):
            env = NamedFamily("power-defect", {"a": 0.3, "b": b, "arity": m})
            out = criteria_verdicts(env, horizons=(100, 1000, 10_000))
            slope = "       -" if out[0].slope is None else f"{out[0].slope:8.3f}"
            print(f"  {m:>2}  {b:>4}  {slope}" + "".join(f"{v.verdict[:4]:>9}" for v in out))
    print("  b = 1 sits on the boundary: the slope reads -1, and the rule")
    print("  decides the gap series diverges, as the sum of 1/n does")


def partial_sums() -> None:
    env = NamedFamily("power-defect", {"a": 0.3, "b": 0.5, "arity": 1})
    v = next(
        x for x in criteria_verdicts(env, horizons=(100, 1000, 10_000, 100_000))
        if x.criterion == "one_child_gap"
    )
    print("\ngap partial sums for the diverging case (a=0.3, b=0.5):")
    for h, p in zip(v.horizons, v.partials):
        print(f"  n = {h:>7}: {p:12.3f}")
    print("  still climbing like n^(1/2): no finite limit")


if __name__ == "__main__":
    verdict_table()
    power_defect_table()
    partial_sums()
