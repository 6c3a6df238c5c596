"""Command line front end.

One JSON config drives everything: it names the command, the
environment literal, command parameters, a master seed and an output
spec.  ``defbranch run config.json`` executes the command named inside
the config; every command is also exposed as its own subcommand, which
overrides the config's command field.  ``defbranch validate`` checks a
config (schema plus law semantics) without running anything.

Commands are declared in one place, the ``_REGISTRY`` table: each entry
gives the command's module tag and its handler.  The subcommands, the
artifacts' ``module`` field and the schema's ``command`` enum are
derived from that table; the schema's named-family ``id`` enum comes
from the family table in ``environments``.  A handler that returns a
table (column names and one value tuple per row) writes rows; any other
result is written as JSON.

An optional param the config leaves out (or sets to null) is not passed
on: the library function's own default applies, so each default is
written once, in its signature.  Only the defaults of CLI-only params
(``k``, ``order``, ``count``, ``sampler``, ``extra_depth``, ``workers``)
live here.

Exit codes: 0 success, 2 config/schema/law violations, 3 domain
precondition failures, 4 budget exhaustion, 1 anything unexpected.
Errors go to stderr as one JSON object.

Artifacts are written atomically into the output directory: the command
result as ``<command>.json`` or ``<command>.csv`` (tables default to
CSV, other results are JSON), plus a ``manifest.json`` recording the
config digest, seed, versions and artifact names.  Result artifacts
contain no timestamps, so reruns of the same config are byte-identical
regardless of worker count; the timestamp lives in the manifest only.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import platform
import sys
from datetime import datetime, timezone
from importlib import resources
from operator import attrgetter
from typing import Any, Callable, NamedTuple

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    absorption_profile,
    absorption_scan,
    conditioned_mean_bound,
    criteria_verdicts,
    envelope_ratios,
    growth_rate,
    moments,
    survival_bounds,
)
from .environments import (
    _FAMILIES,
    Environment,
    compose_coeffs,
    compose_eval,
    environment_from_dict,
)
from .laws import BudgetError, InvalidLawError, PreconditionError, _plain, _rng
from .simulate import mode_agreement, monte_carlo
from .trees import (
    _TREE_STREAM,
    ConditionedSampler,
    rejection_conditioned,
    sample_dbtve,
    tree_stats,
    validate_prop4,
)


class ConfigError(ValueError):
    """Unreadable or invalid configuration."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    text = resources.files("defbranch").joinpath("data/config.schema.json").read_text()
    schema = json.loads(text)
    schema["properties"]["command"]["enum"] = list(_REGISTRY)
    schema["$defs"]["family"]["enum"] = list(_FAMILIES)
    return jsonschema.Draft202012Validator(schema)


def load_config(path: str) -> tuple[dict, Environment]:
    """Read and validate a config file, returning it with the environment
    it describes; raises ConfigError or InvalidLawError."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    errors = sorted(_validator().iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(e.message, pointer=pointer)
    # semantic validation happens here too: bad mass or mean raises
    return cfg, environment_from_dict(cfg["environment"])


def _need(params: dict, key: str) -> Any:
    if key not in params:
        raise PreconditionError(f"missing required parameter {key!r}")
    return params[key]


def _opt(params: dict, **conv: Callable | None) -> dict:
    """Keyword arguments for the optional params the config sets, each
    passed through its converter (None: as given); a null counts as
    unset, and an unset param takes the library's default."""
    return {
        k: v if f is None else f(v) for k, f in conv.items() if (v := params.get(k)) is not None
    }


def _as_list(x) -> list:
    return list(x) if isinstance(x, (list, tuple)) else [x]


class _Table(NamedTuple):
    """A row command's result: column names and one value tuple per row."""

    columns: tuple[str, ...]
    rows: list[tuple]


Handler = Callable[[Environment, dict, int, int], Any]


def _per_n(env, params, fn, columns: tuple[str, ...], **kwargs) -> _Table:
    """One row per horizon in the config's ``n`` (a number or a list):
    the named fields of ``fn``'s result, in column order."""
    row = attrgetter(*columns)
    ns = _as_list(_need(params, "n"))
    return _Table(columns, [row(fn(env, int(n), **kwargs)) for n in ns])


def _cmd_pgf(env, params, seed, workers):
    n = int(_need(params, "n"))
    k = int(params.get("k", 0))
    order = int(params.get("order", 0))
    # a row's first four cells are compose_eval's arguments after env
    cells = [(k, n, float(s), order) for s in _as_list(_need(params, "s"))]
    return _Table(("k", "n", "s", "order", "value"), [c + (compose_eval(env, *c),) for c in cells])


def _cmd_dist(env, params, seed, workers):
    n = int(_need(params, "n"))
    degree = int(_need(params, "degree"))
    return _plain(compose_coeffs(env, n, degree, **_opt(params, rel_tail=float, budget=int)))


_MOMENT_COLUMNS = ("n", "mean", "ratio", "second", "log_mean", "log_ratio", "log_second")


def _cmd_moments(env, params, seed, workers):
    return _per_n(env, params, moments, _MOMENT_COLUMNS)


def _cmd_absorption(env, params, seed, workers):
    # the columns are AbsorptionScan's fields, in their declared order
    n = int(_need(params, "n"))
    scan = _plain(absorption_scan(env, n))
    scan["n"] = range(n + 1)
    return _Table(tuple(scan), list(zip(*scan.values())))


_BOUND_COLUMNS = (
    "n", "survival", "log_survival", "moment_lower", "inf_mean_product", "inv_lo",
    "inv_hi", "c_used", "c_prime", "c_prime_empirical", "holds",
)


def _cmd_bounds(env, params, seed, workers):
    return _per_n(env, params, survival_bounds, _BOUND_COLUMNS, **_opt(params, c=float))


def _cmd_check(env, params, seed, workers):
    verdicts = criteria_verdicts(env, **_opt(params, horizons=lambda hs: [int(h) for h in hs]))
    return {
        "horizons": _plain(verdicts[0].horizons),
        "criteria": [_plain(v, skip=("horizons",)) for v in verdicts],
    }


_RATE_COLUMNS = ("n", "mean_rate", "survival_rate", "log_mean", "log_survival")
_ENVELOPE_COLUMNS = (
    "mean_over_mu_rho", "surv_nu_rho", "mean_over_mu_sigma_eps", "surv_nu_sigma_eps",
)


def _cmd_rates(env, params, seed, workers):
    # the envelope columns come with all of rho, sigma and eps, or none
    bracket = _opt(params, rho=float, sigma=float, eps=float)
    missing = [k for k in ("rho", "sigma", "eps") if k not in bracket]
    if bracket and missing:
        raise PreconditionError(f"envelope needs rho, sigma and eps; missing {missing}")
    table = _per_n(env, params, growth_rate, _RATE_COLUMNS)
    if not bracket:
        return table
    envelope = attrgetter(*_ENVELOPE_COLUMNS)
    rows = [row + envelope(envelope_ratios(env, n=row[0], **bracket)) for row in table.rows]
    return _Table(_RATE_COLUMNS + _ENVELOPE_COLUMNS, rows)


def _cmd_simulate(env, params, seed, workers):
    kwargs = _opt(params, mode=None, cap=int, snapshots=None)
    if "snapshots" in kwargs:
        kwargs["snapshot_times"] = kwargs.pop("snapshots")
    summary = monte_carlo(
        env,
        int(_need(params, "horizon")),
        int(_need(params, "reps")),
        seed,
        workers=workers,
        **kwargs,
    )
    out = summary.to_dict()
    out["snapshots"] = {str(t): _plain(arr) for t, arr in summary.snapshots.items()}
    return out


def _cmd_agree(env, params, seed, workers):
    return mode_agreement(
        env,
        int(_need(params, "horizon")),
        int(_need(params, "reps")),
        seed,
        workers=workers,
        **_opt(params, cap=int),
    ).to_dict()


def _cmd_tree_sample(env, params, seed, workers):
    n = int(_need(params, "n"))
    count = int(params.get("count", 1))
    sampler = params.get("sampler", "construction")
    extra = int(params.get("extra_depth", 0))
    if sampler not in _TREE_STREAM:
        raise PreconditionError(f"unknown sampler {sampler!r}")
    rng = _rng(seed, _TREE_STREAM[sampler])
    trees, spines = [], []
    if sampler == "construction":
        cs = ConditionedSampler(env, n, extra_depth=extra)
        for _ in range(count):
            t, s = cs.sample(rng)
            trees.append(t)
            spines.append(_plain(s, skip=("labels",)))
    elif sampler == "rejection":
        surv = absorption_profile(env, n).survival
        for _ in range(count):
            trees.append(
                rejection_conditioned(env, n, rng, extra_depth=extra, survival=surv)
            )
    else:
        for _ in range(count):
            trees.append(sample_dbtve(env, rng, depth_cap=n + extra))
    payload = {
        "n": n,
        "sampler": sampler,
        "trees": [t.serialize() for t in trees],
        "stats": [_plain(tree_stats(t, n), skip=("n",)) for t in trees],
    }
    if spines:
        payload["spines"] = spines
    return payload


def _cmd_tree_validate(env, params, seed, workers):
    return _plain(
        validate_prop4(
            env,
            int(_need(params, "n")),
            master_seed=seed,
            **_opt(params, samples=int, max_count=None, budget=int, tol_floor=float),
        )
    )


_COND_MEAN_COLUMNS = (
    "n", "exact", "bound", "alpha", "beta", "c", "degree_used", "cond_tail", "holds",
)


def _cmd_cond_mean(env, params, seed, workers):
    return _per_n(
        env, params, conditioned_mean_bound, _COND_MEAN_COLUMNS, **_opt(params, degree=int)
    )


class _Command(NamedTuple):
    module: str  # the artifact's "module" field
    handler: Handler  # (env, params, seed, workers) -> a _Table or a JSON payload


# Handlers look the library functions up in this module's globals at call
# time, so rebinding those names (as a tracer does) reaches every command.
_REGISTRY: dict[str, _Command] = {
    "pgf": _Command("environments", _cmd_pgf),
    "dist": _Command("environments", _cmd_dist),
    "moments": _Command("analysis", _cmd_moments),
    "absorption": _Command("analysis", _cmd_absorption),
    "bounds": _Command("analysis", _cmd_bounds),
    "check": _Command("analysis", _cmd_check),
    "rates": _Command("analysis", _cmd_rates),
    "simulate": _Command("simulate", _cmd_simulate),
    "agree": _Command("simulate", _cmd_agree),
    "tree-sample": _Command("trees", _cmd_tree_sample),
    "tree-validate": _Command("trees", _cmd_tree_validate),
    "cond-mean": _Command("analysis", _cmd_cond_mean),
}


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_rows_csv(path: str, module: str, command: str, table: _Table) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("module", "operation") + table.columns)
    prefix = (module, command)
    writer.writerows(prefix + row for row in table.rows)
    _atomic_write(path, buf.getvalue())


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run(cfg: dict, env: Environment, command: str, out_dir: str, workers: int) -> int:
    params = cfg.get("params", {})
    seed = int(cfg.get("master_seed", 0))
    cmd = _REGISTRY[command]
    result = cmd.handler(env, params, seed, workers)
    fmt = cfg.get("output", {}).get("format")
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(result, _Table) and fmt != "json":
        name = f"{command}.csv"
        _write_rows_csv(os.path.join(out_dir, name), cmd.module, command, result)
    else:
        if isinstance(result, _Table):  # rows asked for as JSON: one object per row
            result = [dict(zip(result.columns, row)) for row in result.rows]
        name = f"{command}.json"
        doc = {
            "module": cmd.module,
            "operation": command,
            "environment": cfg["environment"],
            "params": params,
            "master_seed": seed,
            "result": result,
        }
        _atomic_write(os.path.join(out_dir, name), _json_text(doc))
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
        "artifacts": [name],
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"), _json_text(manifest))
    print(f"wrote {name} and manifest.json to {out_dir}")
    return 0


def _fail(code: int, kind: str, exc: Exception | str) -> int:
    err = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError) and exc.pointer:
        err["pointer"] = exc.pointer
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defbranch",
        description="branching populations with a graveyard state",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_val = sub.add_parser("validate", help="validate a config file and exit")
    p_val.add_argument("config")

    for name in ("run", *_REGISTRY):
        p = sub.add_parser(
            name,
            help="execute the command named in the config"
            if name == "run"
            else f"run the {name} command (overrides the config's command)",
        )
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None, help="worker threads")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, env = load_config(args.config)
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
        return _run(cfg, env, command, out_dir, workers)
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
