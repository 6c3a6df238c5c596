"""Command line front end.

One JSON config drives everything: it names the command, the
environment literal, command parameters, a master seed and an output
spec.  ``defbranch run config.json`` executes the command named inside
the config; every command is also exposed as its own subcommand, which
overrides the config's command field.  ``defbranch validate`` checks a
config (schema plus law semantics) without running anything.

Exit codes: 0 success, 2 config/schema/law violations, 3 domain
precondition failures, 4 budget exhaustion, 1 anything unexpected.
Errors go to stderr as one JSON object.

Artifacts are written atomically into the output directory: the command
result as ``<command>.json`` or ``<command>.csv`` (sweeps default to
CSV, structured results to JSON), plus a ``manifest.json`` recording the
config digest, seed, versions and artifact names.  Result artifacts
contain no timestamps, so reruns of the same config are byte-identical
regardless of worker count; the timestamp lives in the manifest only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
from datetime import datetime, timezone
from importlib import resources
from typing import Any, Callable

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    absorption_scan,
    conditioned_mean_bound,
    criteria_verdicts,
    envelope_ratios,
    growth_rate,
    moments,
    survival_bounds,
)
from .environments import Environment, compose_coeffs, compose_eval, environment_from_dict
from .laws import BudgetError, InvalidLawError, PreconditionError
from .simulate import mode_agreement, monte_carlo
from .trees import (
    ConditionedSampler,
    rejection_conditioned,
    sample_dbtve,
    tree_stats,
    validate_prop4,
)

COMMANDS = (
    "pgf",
    "dist",
    "moments",
    "absorption",
    "bounds",
    "check",
    "rates",
    "simulate",
    "agree",
    "tree-sample",
    "tree-validate",
    "cond-mean",
)

_MODULE = {
    "pgf": "environments",
    "dist": "environments",
    "moments": "analysis",
    "absorption": "analysis",
    "bounds": "analysis",
    "check": "analysis",
    "rates": "analysis",
    "cond-mean": "analysis",
    "simulate": "simulate",
    "agree": "simulate",
    "tree-sample": "trees",
    "tree-validate": "trees",
}


class ConfigError(ValueError):
    """Unreadable or invalid configuration."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


def _schema() -> dict:
    text = resources.files("defbranch").joinpath("data/config.schema.json").read_text()
    return json.loads(text)


def load_config(path: str) -> dict:
    """Read and validate a config file; raises ConfigError or InvalidLawError."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(e.message, pointer=pointer)
    # semantic validation happens here too: bad mass or mean raises
    environment_from_dict(cfg["environment"])
    return cfg


def _need(params: dict, key: str) -> Any:
    if key not in params:
        raise PreconditionError(f"missing required parameter {key!r}")
    return params[key]


def _as_list(x) -> list:
    return list(x) if isinstance(x, (list, tuple)) else [x]


# each handler returns (payload, kind); kind "rows" may be written as CSV
Handler = Callable[[Environment, dict, int, int], tuple[Any, str]]


def _cmd_pgf(env, params, seed, workers):
    n = int(_need(params, "n"))
    k = int(params.get("k", 0))
    order = int(params.get("order", 0))
    rows = [
        {
            "k": k,
            "n": n,
            "s": float(s),
            "order": order,
            "value": compose_eval(env, k, n, float(s), order),
        }
        for s in _as_list(_need(params, "s"))
    ]
    return rows, "rows"


def _cmd_dist(env, params, seed, workers):
    n = int(_need(params, "n"))
    degree = int(_need(params, "degree"))
    kwargs = {}
    if "rel_tail" in params:
        kwargs["rel_tail"] = float(params["rel_tail"])
    if "budget" in params:
        kwargs["budget"] = int(params["budget"])
    dv = compose_coeffs(env, n, degree, **kwargs)
    return (
        {
            "horizon": dv.horizon,
            "degree": dv.degree,
            "probs": [float(p) for p in dv.probs],
            "delta_mass": dv.delta_mass,
            "tail_mass": dv.tail_mass,
            "dropped": dv.dropped,
        },
        "json",
    )


def _cmd_moments(env, params, seed, workers):
    rows = []
    for n in _as_list(_need(params, "n")):
        m = moments(env, int(n))
        rows.append(
            {
                "n": m.n,
                "mean": m.mean,
                "ratio": m.ratio,
                "second": m.second,
                "log_mean": m.log_mean,
                "log_ratio": m.log_ratio,
                "log_second": m.log_second,
            }
        )
    return rows, "rows"


def _cmd_absorption(env, params, seed, workers):
    n = int(_need(params, "n"))
    scan = absorption_scan(env, n)
    rows = [
        {
            "n": i,
            "p_extinct": float(scan.p_extinct[i]),
            "p_killed": float(scan.p_killed[i]),
            "survival": float(scan.survival[i]),
            "log_survival": float(scan.log_survival[i]),
        }
        for i in range(n + 1)
    ]
    return rows, "rows"


def _cmd_bounds(env, params, seed, workers):
    c = params.get("c")
    rows = []
    for n in _as_list(_need(params, "n")):
        b = survival_bounds(env, int(n), None if c is None else float(c))
        rows.append(
            {
                "n": b.n,
                "survival": b.survival,
                "log_survival": b.log_survival,
                "moment_lower": b.moment_lower,
                "inf_mean_product": b.inf_mean_product,
                "inv_lo": b.inv_lo,
                "inv_hi": b.inv_hi,
                "c_used": b.c_used,
                "c_prime": b.c_prime,
                "c_prime_empirical": b.c_prime_empirical,
                "holds": b.holds,
            }
        )
    return rows, "rows"


def _cmd_check(env, params, seed, workers):
    kwargs = {}
    if "horizons" in params:
        kwargs["horizons"] = [int(h) for h in params["horizons"]]
    verdicts = criteria_verdicts(env, **kwargs)
    return (
        {
            "horizons": list(verdicts[0].horizons),
            "criteria": [
                {
                    "criterion": v.criterion,
                    "verdict": v.verdict,
                    "analytic": v.analytic,
                    "slope": v.slope,
                    "partials": list(v.partials),
                }
                for v in verdicts
            ],
        },
        "json",
    )


def _cmd_rates(env, params, seed, workers):
    bracket = all(k in params for k in ("rho", "sigma", "eps"))
    rows = []
    for n in _as_list(_need(params, "n")):
        g = growth_rate(env, int(n))
        row = {
            "n": g.n,
            "mean_rate": g.mean_rate,
            "survival_rate": g.survival_rate,
            "log_mean": g.log_mean,
            "log_survival": g.log_survival,
        }
        if bracket:
            e = envelope_ratios(
                env,
                float(params["rho"]),
                float(params["sigma"]),
                float(params["eps"]),
                int(n),
            )
            row.update(
                {
                    "mean_over_mu_rho": e.mean_over_mu_rho,
                    "surv_nu_rho": e.surv_nu_rho,
                    "mean_over_mu_sigma_eps": e.mean_over_mu_sigma_eps,
                    "surv_nu_sigma_eps": e.surv_nu_sigma_eps,
                }
            )
        rows.append(row)
    return rows, "rows"


def _cmd_simulate(env, params, seed, workers):
    summary = monte_carlo(
        env,
        int(_need(params, "horizon")),
        int(_need(params, "reps")),
        seed,
        mode=params.get("mode", "direct"),
        cap=int(params.get("cap", 10**7)),
        workers=workers,
        snapshot_times=params.get("snapshots", ()),
    )
    out = summary.to_dict()
    out["snapshots"] = {
        str(t): [int(x) for x in arr] for t, arr in summary.snapshots.items()
    }
    return out, "json"


def _cmd_agree(env, params, seed, workers):
    rep = mode_agreement(
        env,
        int(_need(params, "horizon")),
        int(_need(params, "reps")),
        seed,
        cap=int(params.get("cap", 10**7)),
        workers=workers,
    )
    return rep.to_dict(), "json"


def _tree_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _cmd_tree_sample(env, params, seed, workers):
    n = int(_need(params, "n"))
    count = int(params.get("count", 1))
    sampler = params.get("sampler", "construction")
    extra = int(params.get("extra_depth", 0))
    trees, spines = [], []
    if sampler == "construction":
        cs = ConditionedSampler(env, n, extra_depth=extra)
        rng = _tree_rng(seed, 11)
        for _ in range(count):
            t, s = cs.sample(rng)
            trees.append(t)
            spines.append({"d": list(s.d), "c": list(s.c)})
    elif sampler == "rejection":
        rng = _tree_rng(seed, 12)
        for _ in range(count):
            trees.append(rejection_conditioned(env, n, rng, extra_depth=extra))
    elif sampler == "plain":
        rng = _tree_rng(seed, 10)
        for _ in range(count):
            trees.append(sample_dbtve(env, rng, depth_cap=n + extra))
    else:
        raise PreconditionError(f"unknown sampler {sampler!r}")
    stats = [tree_stats(t, n) for t in trees]
    payload = {
        "n": n,
        "sampler": sampler,
        "trees": [t.serialize() for t in trees],
        "stats": [
            {
                "height": s.height,
                "gen_sizes": list(s.gen_sizes),
                "rank": s.rank,
            }
            for s in stats
        ],
    }
    if spines:
        payload["spines"] = spines
    return payload, "json"


def _cmd_tree_validate(env, params, seed, workers):
    rep = validate_prop4(
        env,
        int(_need(params, "n")),
        samples=int(params.get("samples", 10**5)),
        master_seed=seed,
        max_count=params.get("max_count"),
        budget=int(params.get("budget", 10**6)),
        tol_floor=float(params.get("tol_floor", 0.01)),
    )
    return (
        {
            "n": rep.n,
            "samples": rep.samples,
            "atom_count": rep.atom_count,
            "threshold": rep.threshold,
            "tv_construction_exact": rep.tv_construction_exact,
            "tv_rejection_exact": rep.tv_rejection_exact,
            "tv_construction_rejection": rep.tv_construction_rejection,
            "exact_survival": rep.exact_survival,
            "complete_enumeration": rep.complete_enumeration,
            "passed": rep.passed,
        },
        "json",
    )


def _cmd_cond_mean(env, params, seed, workers):
    degree = params.get("degree")
    rows = []
    for n in _as_list(_need(params, "n")):
        r = conditioned_mean_bound(env, int(n), None if degree is None else int(degree))
        rows.append(
            {
                "n": r.n,
                "exact": r.exact,
                "bound": r.bound,
                "alpha": r.alpha,
                "beta": r.beta,
                "c": r.c,
                "degree_used": r.degree_used,
                "cond_tail": r.cond_tail,
                "holds": r.holds,
            }
        )
    return rows, "rows"


_HANDLERS: dict[str, Handler] = {
    "pgf": _cmd_pgf,
    "dist": _cmd_dist,
    "moments": _cmd_moments,
    "absorption": _cmd_absorption,
    "bounds": _cmd_bounds,
    "check": _cmd_check,
    "rates": _cmd_rates,
    "simulate": _cmd_simulate,
    "agree": _cmd_agree,
    "tree-sample": _cmd_tree_sample,
    "tree-validate": _cmd_tree_validate,
    "cond-mean": _cmd_cond_mean,
}


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_rows_csv(path: str, command: str, rows: list[dict]) -> None:
    cols = ["module", "operation"]
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {"module": _MODULE[command], "operation": command, **row}
        )
    _atomic_write(path, buf.getvalue())


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run(cfg: dict, command: str, out_dir: str, workers: int) -> int:
    env = environment_from_dict(cfg["environment"])
    params = cfg.get("params", {})
    seed = int(cfg.get("master_seed", 0))
    payload, kind = _HANDLERS[command](env, params, seed, workers)
    fmt = cfg.get("output", {}).get("format")
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    if kind == "rows" and fmt != "json":
        name = f"{command}.csv"
        _write_rows_csv(os.path.join(out_dir, name), command, payload)
    else:
        name = f"{command}.json"
        doc = {
            "module": _MODULE[command],
            "operation": command,
            "environment": cfg["environment"],
            "params": params,
            "master_seed": seed,
            "result": payload,
        }
        _atomic_write(os.path.join(out_dir, name), _json_text(doc))
    artifacts.append(name)
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "master_seed": seed,
        "versions": {
            "defbranch": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"), _json_text(manifest))
    print(f"wrote {', '.join(artifacts)} and manifest.json to {out_dir}")
    return 0


def _fail(code: int, kind: str, exc: Exception | str) -> int:
    err = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError) and exc.pointer:
        err["pointer"] = exc.pointer
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="defbranch",
        description="branching populations with a graveyard state",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_val = sub.add_parser("validate", help="validate a config file and exit")
    p_val.add_argument("config")

    for name in ("run",) + COMMANDS:
        p = sub.add_parser(
            name,
            help="execute the command named in the config"
            if name == "run"
            else f"run the {name} command (overrides the config's command)",
        )
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None, help="worker threads")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.subcommand == "validate":
            print(json.dumps({"ok": True, "command": cfg["command"]}))
            return 0
        command = cfg["command"] if args.subcommand == "run" else args.subcommand
        out_dir = args.out or cfg.get("output", {}).get("dir", ".")
        workers = (
            args.workers
            if args.workers is not None
            else int(cfg.get("params", {}).get("workers", 1))
        )
        return _run(cfg, command, out_dir, workers)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except InvalidLawError as exc:
        return _fail(2, "law", exc)
    except PreconditionError as exc:
        return _fail(3, "precondition", exc)
    except BudgetError as exc:
        return _fail(4, "budget", exc)
    except Exception as exc:
        return _fail(1, "internal", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
