"""Command line front end.

One JSON config drives everything: it names the command, the
environment literal, command parameters, a master seed and an output
spec.  ``defbranch run config.json`` executes the command named inside
the config; every command is also exposed as its own subcommand, which
overrides the config's command field (and the params are then checked
against the subcommand's).  ``defbranch validate`` checks a config
(its contract and law semantics) without running anything.

Commands are declared in one place, the ``_REGISTRY`` table: each entry
gives the command's module tag, its handler and its params, each with
its type, bounds and default.  The subcommands, the artifacts'
``module`` field, the commands a config may name and the check of each
command's params are derived from that table; the named-family ids and
params come from the tables in ``environments``, which ``NamedFamily``
reads too.  A handler reads the params converted to their types,
with every required one present.  A handler that returns a table
(column names and one value tuple per row) writes rows; any other result
is written as JSON.

An optional param the config leaves out (or sets to null) is not passed
on: the library function's own default applies, so each default is
written once, in its signature.  Only the defaults of CLI-only params
(``k``, ``order``, ``count``, ``sampler``, ``extra_depth``, ``workers``)
live in the table.

Validation is one walk over the config, ``_violation``: the top-level
keys, the environment literal, the master seed, the output spec and the
command's params.  It reports the first violation in the order of their
JSON pointers, as the pointer and a message worded as Draft 2020-12 JSON
Schema words it; a config it accepts is run.  The tests keep that JSON
Schema and check the walk against it, so the package needs no schema
library.

Exit codes: 0 success, 2 config/schema/params/law violations, 3 domain
precondition failures, 4 budget exhaustion, 1 anything unexpected.
Errors go to stderr as one JSON object.

Artifacts are streamed to a temp file in the output directory and
renamed into place: the command result as ``<command>.json`` or
``<command>.csv`` (tables default to CSV, other results are JSON), plus
a ``manifest.json`` recording the config digest, seed, versions and
artifact names.  Result artifacts contain no timestamps, so reruns of
the same config are byte-identical; the timestamp lives in the manifest
only.  ``workers`` (the param or the ``--workers`` flag, at least 1)
caps threads, and one thread meets it.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from operator import attrgetter
from typing import Any, Callable, NamedTuple

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
    _NAMED_PARAMS,
    Environment,
    _is_int,
    _is_num,
    compose_coeffs,
    compose_eval,
    environment_from_dict,
)
from .laws import BudgetError, InvalidLawError, PreconditionError, _plain, _rng
from .simulate import _MODE_ID, mode_agreement, monte_carlo
from .trees import (
    _TREE_STREAM,
    _check_conditioning,
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


# ---------------------------------------------------------------------------
# the config contract: command params and the checker
# ---------------------------------------------------------------------------

_REQUIRED: Any = object()  # the default of a param the config must set


class _Param(NamedTuple):
    """One command parameter.  ``type`` is "integer", "number", "string"
    or the tuple of the strings allowed; ``many`` is "" for one value,
    "list" for a list of them and "either" for one value or a list; every
    number lies in [minimum, maximum] where those are set.  ``default``
    says what leaving the param out (or null) means: _REQUIRED forbids
    it, None passes nothing on, so the library function's own default
    applies, and any other value is a CLI-only default."""

    type: str | tuple[str, ...]
    many: str = ""
    minimum: int | None = None
    maximum: int | None = None
    default: Any = None


_IS_TYPE = {"integer": _is_int, "number": _is_num, "string": lambda x: isinstance(x, str)}


def _not_type(x, *types: str) -> str:
    return f"{x!r} is not of type {', '.join(map(repr, types))}"


def _bound_error(p: _Param, x) -> str | None:
    # minimum and maximum act on numbers only; NaN passes both
    if _is_num(x):
        if p.minimum is not None and x < p.minimum:
            return f"{x!r} is less than the minimum of {p.minimum!r}"
        if p.maximum is not None and x > p.maximum:
            return f"{x!r} is greater than the maximum of {p.maximum!r}"
    return None


def _value_error(p: _Param, v) -> tuple[str, str] | None:
    """The first error on value v of p, as (the pointer from v to it,
    message): its type, then its bounds, then each list item's in index
    order.  A null is an unset param, an error only where it is
    required."""
    optional = p.default is not _REQUIRED
    if isinstance(p.type, tuple):
        allowed = [*p.type, None] if optional else list(p.type)
        return None if v in allowed else ("", f"{v!r} is not one of {allowed!r}")
    if isinstance(v, list):
        fits = p.many != ""
    else:
        fits = optional if v is None else p.many != "list" and _IS_TYPE[p.type](v)
    if not fits:
        types = {"": [p.type], "list": ["array"], "either": [p.type, "array"]}[p.many]
        return "", _not_type(v, *types, *["null"] * optional)
    err = _bound_error(p, v)
    if err:
        return "", err
    for i, x in enumerate(v if isinstance(v, list) else ()):
        err = _bound_error(p, x) if _IS_TYPE[p.type](x) else _not_type(x, p.type)
        if err:
            return f"/{i}", err
    return None


def _object_error(obj, spec, required=()) -> str | None:
    """The first error on obj as an object with the keys of ``spec`` only:
    its type, then its extra keys, then the first missing ``required``."""
    if not isinstance(obj, dict):
        return _not_type(obj, "object")
    extra = obj.keys() - spec
    if extra:
        verb = "was" if len(extra) == 1 else "were"
        names = ", ".join(map(repr, sorted(extra, key=str)))
        return f"Additional properties are not allowed ({names} {verb} unexpected)"
    return next((f"{k!r} is a required property" for k in required if k not in obj), None)


def _law_ok(law) -> bool:
    if not isinstance(law, dict):
        return False
    kind = law.get("kind")
    if kind == "finite":
        w = law.get("weights")
        return (
            len(law) == 2
            and isinstance(w, list)
            and len(w) > 0
            and all(_is_num(x) and not (x < 0 or x > 1) for x in w)
        )
    if kind == "lf":
        q, r, p = law.get("q"), law.get("r"), law.get("p")
        return (
            len(law) == 4
            and _is_num(q) and not q < 0
            and _is_num(r) and not r <= 0
            and _is_num(p) and not (p <= 0 or p >= 1)
        )
    return False


def _named_params_ok(params) -> bool:
    return isinstance(params, dict) and all(
        k in _NAMED_PARAMS and _NAMED_PARAMS[k](v) for k, v in params.items()
    )


def _environment_ok(env) -> bool:
    if not isinstance(env, dict):
        return False
    kind = env.get("kind")
    if kind == "constant":
        return env.keys() == {"kind", "law"} and _law_ok(env["law"])
    if kind == "prefix":
        laws = env.get("laws")
        return (
            env.keys() == {"kind", "laws", "tail"}
            and isinstance(laws, list)
            and all(_law_ok(law) for law in laws)
            and _law_ok(env["tail"])
        )
    if kind == "named":
        fid = env.get("id")
        return (
            env.keys() <= {"kind", "id", "params"}
            and isinstance(fid, str)
            and fid in _FAMILIES
            and _named_params_ok(env.get("params", {}))
        )
    return False


_TOP_KEYS = frozenset(("command", "environment", "params", "master_seed", "output"))
_SEED = _Param("integer", minimum=0, default=_REQUIRED)
_OUTPUT = {"dir": _Param("string", default=_REQUIRED),
           "format": _Param(("json", "csv"), default=_REQUIRED)}


def _known(command) -> bool:
    return isinstance(command, str) and command in _REGISTRY


def _violation(cfg) -> tuple[str, str] | None:
    """The first violation of the config contract in ``cfg``, as
    (pointer, message), or None when it conforms.  Violations come in
    the order of their pointers, the root's first (its type, extra keys,
    then a missing command or environment), and are worded as Draft
    2020-12 JSON Schema words them; an environment that is not one of
    the three kinds, each with its laws or its family and params, is
    one violation at /environment."""
    err = _object_error(cfg, _TOP_KEYS, ("command", "environment"))
    if err:
        return "/", err
    command, env = cfg["command"], cfg["environment"]
    if not _known(command):
        return "/command", f"{command!r} is not one of {list(_REGISTRY)!r}"
    if not _environment_ok(env):
        return "/environment", f"{env!r} is not valid under any of the given schemas"
    err = _value_error(_SEED, cfg.get("master_seed", 0))
    if err:
        return "/master_seed", err[1]
    spec = _REGISTRY[command].params
    for at, fields, required in (
        ("output", _OUTPUT, ()),  # neither key is required, nor may be null
        ("params", spec, [k for k, p in spec.items() if p.default is _REQUIRED]),
    ):
        if at not in cfg:
            continue
        obj = cfg[at]
        err = _object_error(obj, fields, required)
        if err:
            return f"/{at}", err
        for key in sorted(obj):  # a key's errors, its items' too, come in key order
            err = _value_error(fields[key], obj[key])
            if err:
                return f"/{at}/{key}{err[0]}", err[1]
    return None


def load_config(path: str, command: str | None = None) -> tuple[dict, Environment]:
    """Read and validate a config file, returning it with the environment
    it describes; raises ConfigError or InvalidLawError.  Its params are
    checked against ``command`` when given (a subcommand overriding the
    config's own), and an absent params object counts as an empty one."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = cfg
    if isinstance(cfg, dict):
        doc = {**cfg, "params": cfg.get("params", {})}
        if command is not None and _known(doc.get("command")):
            doc["command"] = command
    bad = _violation(doc)
    if bad:
        raise ConfigError(bad[1], pointer=bad[0])
    # semantic validation happens here too: bad mass or mean raises
    return cfg, environment_from_dict(cfg["environment"])


_CONVERT = {"integer": int, "number": float}


def _arguments(spec: dict[str, _Param], params: dict) -> dict:
    """What a handler reads: each param the config sets, converted to its
    type (an integer given as 3.0 becomes 3), and each CLI-only default
    the config leaves unset; a null counts as unset."""
    args = {}
    for key, p in spec.items():
        v = params.get(key)
        if v is None:
            if p.default is not None:
                args[key] = p.default
            continue
        conv = _CONVERT.get(p.type)
        if conv is not None:
            v = [conv(x) for x in v] if isinstance(v, list) else conv(v)
        args[key] = v
    return args


def _opt(args: dict, *keys: str) -> dict:
    """Keyword arguments for the optional params the config sets; an
    unset one takes the library's default."""
    return {k: args[k] for k in keys if k in args}


def _as_list(x) -> list:
    return x if isinstance(x, list) else [x]


class _Table(NamedTuple):
    """A row command's result: column names and one value tuple per row."""

    columns: tuple[str, ...]
    rows: list[tuple]


Handler = Callable[[Environment, dict, int], Any]


def _per_n(env, args, fn, columns: tuple[str, ...], **kwargs) -> _Table:
    """One row per horizon in the config's ``n`` (a number or a list):
    the named fields of ``fn``'s result, in column order."""
    row = attrgetter(*columns)
    return _Table(columns, [row(fn(env, n, **kwargs)) for n in _as_list(args["n"])])


def _cmd_pgf(env, args, seed):
    # a row's first four cells are compose_eval's arguments after env
    cells = [(args["k"], args["n"], s, args["order"]) for s in _as_list(args["s"])]
    return _Table(("k", "n", "s", "order", "value"), [c + (compose_eval(env, *c),) for c in cells])


def _cmd_dist(env, args, seed):
    return _plain(
        compose_coeffs(env, args["n"], args["degree"], **_opt(args, "rel_tail", "budget"))
    )


_MOMENT_COLUMNS = ("n", "mean", "ratio", "second", "log_mean", "log_ratio", "log_second")


def _cmd_moments(env, args, seed):
    return _per_n(env, args, moments, _MOMENT_COLUMNS)


def _cmd_absorption(env, args, seed):
    # the columns are AbsorptionScan's fields, in their declared order
    n = args["n"]
    scan = _plain(absorption_scan(env, n))
    scan["n"] = range(n + 1)
    return _Table(tuple(scan), list(zip(*scan.values())))


_BOUND_COLUMNS = (
    "n", "survival", "log_survival", "moment_lower", "inf_mean_product", "inv_lo",
    "inv_hi", "c_used", "c_prime", "c_prime_empirical", "holds",
)


def _cmd_bounds(env, args, seed):
    return _per_n(env, args, survival_bounds, _BOUND_COLUMNS, **_opt(args, "c"))


def _cmd_check(env, args, seed):
    verdicts = criteria_verdicts(env, **_opt(args, "horizons"))
    return {
        "horizons": _plain(verdicts[0].horizons),
        "criteria": [_plain(v, skip=("horizons",)) for v in verdicts],
    }


_RATE_COLUMNS = ("n", "mean_rate", "survival_rate", "log_mean", "log_survival")
_ENVELOPE_COLUMNS = (
    "mean_over_mu_rho", "surv_nu_rho", "mean_over_mu_sigma_eps", "surv_nu_sigma_eps",
)


def _cmd_rates(env, args, seed):
    # the envelope columns come with all of rho, sigma and eps, or none
    bracket = _opt(args, "rho", "sigma", "eps")
    missing = [k for k in ("rho", "sigma", "eps") if k not in bracket]
    if bracket and missing:
        raise PreconditionError(f"envelope needs rho, sigma and eps; missing {missing}")
    table = _per_n(env, args, growth_rate, _RATE_COLUMNS)
    if not bracket:
        return table
    envelope = attrgetter(*_ENVELOPE_COLUMNS)
    rows = [row + envelope(envelope_ratios(env, n=row[0], **bracket)) for row in table.rows]
    return _Table(_RATE_COLUMNS + _ENVELOPE_COLUMNS, rows)


def _cmd_simulate(env, args, seed):
    kwargs = _opt(args, "mode", "cap", "snapshots")
    if "snapshots" in kwargs:
        kwargs["snapshot_times"] = kwargs.pop("snapshots")
    summary = monte_carlo(env, args["horizon"], args["reps"], seed, **kwargs)
    out = summary.to_dict()
    out["snapshots"] = {str(t): _plain(arr) for t, arr in summary.snapshots.items()}
    return out


def _cmd_agree(env, args, seed):
    return mode_agreement(env, args["horizon"], args["reps"], seed, **_opt(args, "cap")).to_dict()


def _cmd_tree_sample(env, args, seed):
    n, count, sampler, extra = args["n"], args["count"], args["sampler"], args["extra_depth"]
    rng = _rng(seed, _TREE_STREAM[sampler])
    trees, spines = [], []
    if sampler == "construction":
        cs = ConditionedSampler(env, n, extra_depth=extra)
        for _ in range(count):
            t, s = cs.sample(rng)
            trees.append(t)
            spines.append(_plain(s))
    elif sampler == "rejection":
        _check_conditioning(n, extra)  # before the survival sweep
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


def _cmd_tree_validate(env, args, seed):
    return _plain(
        validate_prop4(
            env,
            args["n"],
            master_seed=seed,
            **_opt(args, "samples", "max_count", "budget", "tol_floor"),
        )
    )


_COND_MEAN_COLUMNS = (
    "n", "exact", "bound", "alpha", "beta", "c", "cond_tail", "holds",
)


def _cmd_cond_mean(env, args, seed):
    return _per_n(env, args, conditioned_mean_bound, _COND_MEAN_COLUMNS)


class _Command(NamedTuple):
    module: str  # the artifact's "module" field
    handler: Handler  # (env, args, seed) -> a _Table or a JSON payload
    params: dict[str, _Param]  # the params it takes; workers is one of them


def _command(module: str, handler: Handler, **params: _Param) -> _Command:
    # every command accepts workers, a cap on threads that one thread meets
    return _Command(module, handler, {**params, "workers": _Param("integer", minimum=1, default=1)})


_N = _Param("integer", default=_REQUIRED)  # one horizon
_NS = _Param("integer", "either", default=_REQUIRED)  # a horizon or a list: one row each
_INT = _Param("integer")
_NUM = _Param("number")

# Handlers look the library functions up in this module's globals at call
# time, so rebinding those names (as a tracer does) reaches every command.
_REGISTRY: dict[str, _Command] = {
    "pgf": _command(
        "environments", _cmd_pgf,
        n=_N,
        s=_Param("number", "either", default=_REQUIRED),
        k=_Param("integer", default=0),
        order=_Param("integer", minimum=0, maximum=2, default=0),
    ),
    "dist": _command(
        "environments", _cmd_dist,
        n=_N, degree=_Param("integer", minimum=1, default=_REQUIRED), rel_tail=_NUM, budget=_INT,
    ),
    "moments": _command("analysis", _cmd_moments, n=_NS),
    "absorption": _command("analysis", _cmd_absorption, n=_N),
    "bounds": _command("analysis", _cmd_bounds, n=_NS, c=_NUM),
    "check": _command("analysis", _cmd_check, horizons=_Param("integer", "list")),
    "rates": _command("analysis", _cmd_rates, n=_NS, rho=_NUM, sigma=_NUM, eps=_NUM),
    "simulate": _command(
        "simulate", _cmd_simulate,
        horizon=_N, reps=_N, mode=_Param(tuple(_MODE_ID)), cap=_INT,
        snapshots=_Param("integer", "list"),
    ),
    "agree": _command("simulate", _cmd_agree, horizon=_N, reps=_N, cap=_INT),
    "tree-sample": _command(
        "trees", _cmd_tree_sample,
        n=_N,
        count=_Param("integer", minimum=1, default=1),
        sampler=_Param(tuple(_TREE_STREAM), default="construction"),
        extra_depth=_Param("integer", minimum=0, default=0),
    ),
    "tree-validate": _command(
        "trees", _cmd_tree_validate,
        n=_N, samples=_Param("integer", minimum=1), max_count=_INT, budget=_INT, tol_floor=_NUM,
    ),
    "cond-mean": _command("analysis", _cmd_cond_mean, n=_NS),
}


def _atomic_write(path: str, write: Callable[[Any], None]) -> None:
    """Stream an artifact into a temp file beside ``path`` through
    ``write(fh)``, then rename it into place."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    os.replace(tmp, path)


# the encoder json.dumps(obj, indent=2, sort_keys=True) builds, so the
# streamed chunks join to the same text
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _json_chunks(obj, pad: str = "\n"):
    """The text of ``_JSON.iterencode(obj)`` in chunks, for obj written
    after ``pad`` (a newline and its parent's indent).  A list of plain
    ints or of plain floats is joined from their reprs at C speed, 4096
    at a time, with json's NaN and Infinity spellings; a str-keyed dict
    or a list that holds a container is walked; any other value goes to
    the encoder, its newlines indented by pad, since a string it writes
    holds none."""
    items = None
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {float}:
            sep = "," + pad + "  "
            yield "[" + sep[1:]
            for lo in range(0, len(obj), 4096):
                text = sep.join(map(repr, obj[lo:lo + 4096]))
                if kinds == {float}:  # the only letters a float repr has
                    text = text.replace("nan", "NaN").replace("inf", "Infinity")
                yield (sep if lo else "") + text
            yield pad + "]"
            return
        items, ends = [("", x) for x in obj], "[]"
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        items, ends = [(_JSON.encode(k) + ": ", obj[k]) for k in sorted(obj)], "{}"
    if not items or not any(isinstance(x, (dict, list, tuple)) for _, x in items):
        for chunk in _JSON.iterencode(obj):
            yield chunk.replace("\n", pad)
        return
    inner = pad + "  "
    yield ends[0]
    for i, (key, x) in enumerate(items):
        yield ("," if i else "") + inner + key
        yield from _json_chunks(x, inner)
    yield pad + ends[1]


def _write_json(path: str, doc) -> None:
    def write(fh):
        fh.writelines(_json_chunks(doc))
        fh.write("\n")

    _atomic_write(path, write)


def _write_rows_csv(path: str, module: str, command: str, table: _Table) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("module", "operation") + table.columns)
        prefix = (module, command)
        writer.writerows(prefix + row for row in table.rows)

    _atomic_write(path, write)


def _run(cfg: dict, env: Environment, command: str, out_dir: str) -> int:
    params = cfg.get("params", {})
    seed = int(cfg.get("master_seed", 0))
    cmd = _REGISTRY[command]
    result = cmd.handler(env, _arguments(cmd.params, params), seed)
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
        _write_json(os.path.join(out_dir, name), doc)
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
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
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
        p.add_argument("--workers", type=int, default=None,
                       help="thread cap, at least 1; every command runs on one thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        return _fail(2, "config", f"--workers must be at least 1, got {args.workers}")
    try:
        override = None if args.subcommand in ("run", "validate") else args.subcommand
        cfg, env = load_config(args.config, override)
        if args.subcommand == "validate":
            print(json.dumps({"ok": True, "command": cfg["command"]}))
            return 0
        command = override or cfg["command"]
        out_dir = args.out or cfg.get("output", {}).get("dir", ".")
        return _run(cfg, env, command, out_dir)
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
