"""Command line driver: config validation, artifacts, exit codes."""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defbranch import CRITERIA, compose_coeffs, compose_eval, Constant, FiniteSupport
from defbranch.cli import main

LAW_A = {"kind": "finite", "weights": [0.45, 0.0, 0.45]}
LAW_B = {"kind": "lf", "q": 0.1, "r": 0.4, "p": 0.5}


def write_cfg(tmp_path, command, params, *, environment=None, seed=7, output=None, name="cfg.json"):
    cfg = {
        "command": command,
        "environment": environment or {"kind": "constant", "law": LAW_A},
        "params": params,
        "master_seed": seed,
    }
    if output:
        cfg["output"] = output
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


# the fewest params each command runs with
MINIMAL = {
    "pgf": {"n": 2, "s": 0.5},
    "dist": {"n": 2, "degree": 4},
    "moments": {"n": 2},
    "absorption": {"n": 2},
    "bounds": {"n": 2},
    "check": {},
    "rates": {"n": 2},
    "simulate": {"horizon": 2, "reps": 100},
    "agree": {"horizon": 2, "reps": 100},
    "tree-sample": {"n": 2},
    "tree-validate": {"n": 1, "samples": 100},
    "cond-mean": {"n": 2},
}


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, "moments", {"n": [1, 2]})
        assert main(["validate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"ok": True, "command": "moments"}

    def test_schema_violation_has_pointer(self, tmp_path, capsys):
        path, _ = write_cfg(
            tmp_path,
            "moments",
            {"n": 1},
            environment={"kind": "finite-support"},  # bad kind
        )
        assert main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["pointer"].startswith("/environment")

    def test_semantic_law_error(self, tmp_path, capsys):
        path, _ = write_cfg(
            tmp_path,
            "moments",
            {"n": 1},
            environment={"kind": "constant", "law": {"kind": "finite", "weights": [0.7, 0.5]}},
        )
        assert main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "law"
        assert "sum to" in err["message"]

    def test_unreadable_and_malformed(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_unknown_command_rejected(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, "transmogrify", {"n": 1})
        assert main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == "/command"


class TestRegistry:
    def test_derived_lists_agree(self, tmp_path, capsys):
        from defbranch import cli
        from defbranch.environments import _FAMILIES

        names = list(cli._REGISTRY)
        schema = cli._validator().schema
        assert schema["properties"]["command"]["enum"] == names
        sub = next(
            a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert [c for c in sub.choices if c not in ("run", "validate")] == names
        assert schema["$defs"]["family"]["enum"] == list(_FAMILIES)
        assert set(MINIMAL) == set(names)
        for name in names:
            path, _ = write_cfg(tmp_path, name, MINIMAL[name])
            assert main(["validate", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["command"] == name


class TestExitCodes:
    def test_precondition_is_three(self, tmp_path, capsys):
        path, _ = write_cfg(
            tmp_path,
            "cond-mean",
            {"n": 4},
            environment={"kind": "constant", "law": {"kind": "finite", "weights": [0.0, 1.0]}},
        )
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "precondition"

    def test_budget_is_four(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, "dist", {"n": 50, "degree": 100, "budget": 10})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "budget"

    def test_missing_param_is_two(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, "dist", {"n": 3})  # no degree
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "config",
            "message": "'degree' is a required property",
            "pointer": "/params",
        }

    @pytest.mark.parametrize("command", ["simulate", "agree"])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_three(self, tmp_path, capsys, command, cap):
        path, _ = write_cfg(tmp_path, command, {"horizon": 2, "reps": 10, "cap": cap})
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "precondition", "message": f"need cap >= 1, got cap={cap}"}
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sampler", ["construction", "rejection"])
    def test_tree_sample_negative_extra_depth_is_three(self, tmp_path, capsys, sampler):
        path, _ = write_cfg(tmp_path, "tree-sample", {"n": 2, "sampler": sampler, "extra_depth": -1})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "precondition", "message": "extra_depth must be >= 0"}

    @pytest.mark.parametrize("horizons", [[10], [10, 10]])
    def test_check_needs_two_horizons(self, tmp_path, capsys, horizons):
        path, _ = write_cfg(tmp_path, "check", {"horizons": horizons})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "precondition", "message": "need at least two distinct horizons"}

    def test_unexpected_error_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        from defbranch import cli

        def broken(env, n):
            return 1 / 0

        monkeypatch.setattr(cli, "moments", broken)
        path, _ = write_cfg(tmp_path, "moments", {"n": 3})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "internal",
            "message": "ZeroDivisionError: division by zero",
        }


class TestArtifacts:
    def test_rows_become_csv(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, "moments", {"n": [1, 2, 3]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        with open(out / "moments.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["module"] == "analysis"
        assert rows[0]["operation"] == "moments"
        assert [r["n"] for r in rows] == ["1", "2", "3"]
        assert float(rows[1]["mean"]) == pytest.approx(0.729)
        header = open(out / "moments.csv").readline().strip().split(",")
        assert header[:2] == ["module", "operation"]

    def test_json_format_override(self, tmp_path):
        path, cfg = write_cfg(
            tmp_path, "moments", {"n": [2]}, output={"format": "json"}
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "moments.json").read_text())
        assert doc["module"] == "analysis"
        assert doc["operation"] == "moments"
        assert doc["environment"] == cfg["environment"]
        assert doc["master_seed"] == 7
        assert doc["result"][0]["mean"] == pytest.approx(0.729)

    def test_dist_payload_matches_library(self, tmp_path):
        path, _ = write_cfg(tmp_path, "dist", {"n": 2, "degree": 4})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "dist.json").read_text())
        dv = compose_coeffs(Constant(FiniteSupport([0.45, 0.0, 0.45])), 2, 4)
        assert doc["result"]["probs"] == pytest.approx(list(dv.probs))
        assert doc["result"]["delta_mass"] == pytest.approx(dv.delta_mass)

    def test_manifest_contents(self, tmp_path):
        path, cfg = write_cfg(tmp_path, "absorption", {"n": 4})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "absorption"
        assert man["artifacts"] == ["absorption.csv"]
        assert man["master_seed"] == 7
        want_sha = hashlib.sha256(
            json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert man["config_sha256"] == want_sha
        assert set(man["versions"]) == {"defbranch", "numpy", "python"}
        assert "created_utc" in man

    def test_subcommand_overrides_config_command(self, tmp_path):
        # a list of horizons is a moments param, not an absorption one
        path, _ = write_cfg(tmp_path, "absorption", {"n": [2]})
        out = tmp_path / "out"
        assert main(["moments", str(path), "--out", str(out)]) == 0
        assert (out / "moments.csv").exists()
        assert not (out / "absorption.csv").exists()

    def test_pgf_rows(self, tmp_path):
        path, _ = write_cfg(tmp_path, "pgf", {"n": 2, "s": [0.0, 0.5, 1.0]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        with open(out / "pgf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        env = Constant(FiniteSupport([0.45, 0.0, 0.45]))
        for row in rows:
            want = compose_eval(env, 0, 2, float(row["s"]))
            assert float(row["value"]) == pytest.approx(want, rel=1e-12)


# the header line of each row command's CSV, as released
HEADERS = [
    ("pgf", {"n": 2, "s": [0.5]}, "k,n,s,order,value"),
    ("moments", {"n": 2}, "n,mean,ratio,second,log_mean,log_ratio,log_second"),
    ("absorption", {"n": 2}, "n,p_extinct,p_killed,survival,log_survival"),
    (
        "bounds",
        {"n": 2},
        "n,survival,log_survival,moment_lower,inf_mean_product,inv_lo,inv_hi,"
        "c_used,c_prime,c_prime_empirical,holds",
    ),
    ("cond-mean", {"n": 2}, "n,exact,bound,alpha,beta,c,degree_used,cond_tail,holds"),
    ("rates", {"n": 2}, "n,mean_rate,survival_rate,log_mean,log_survival"),
    (
        "rates",
        {"n": 2, "rho": 0.6267890062732586, "sigma": 0.6267890062732586, "eps": 0.05},
        "n,mean_rate,survival_rate,log_mean,log_survival,"
        "mean_over_mu_rho,surv_nu_rho,mean_over_mu_sigma_eps,surv_nu_sigma_eps",
    ),
]


@pytest.mark.parametrize("command, params, header", HEADERS)
def test_csv_header(tmp_path, command, params, header):
    path, _ = write_cfg(tmp_path, command, params)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as fh:
        assert fh.readline() == "module,operation," + header + "\n"


class TestSimulationCommands:
    def test_simulate_deterministic_across_workers(self, tmp_path):
        path, _ = write_cfg(
            tmp_path, "simulate", {"horizon": 4, "reps": 6000, "snapshots": [2]}
        )
        blobs = []
        for w in ("1", "4"):
            out = tmp_path / f"out{w}"
            assert main(["run", str(path), "--out", str(out), "--workers", w]) == 0
            blobs.append((out / "simulate.json").read_bytes())
        assert blobs[0] == blobs[1]
        doc = json.loads(blobs[0])
        assert "2" in doc["result"]["snapshots"]
        assert doc["result"]["reps"] == 6000

    def test_agree_command(self, tmp_path):
        path, _ = write_cfg(tmp_path, "agree", {"horizon": 2, "reps": 6000})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "agree.json").read_text())
        assert doc["result"]["passed"] is True
        assert len(doc["result"]["bins"]) == 12

    def test_check_command(self, tmp_path):
        path, _ = write_cfg(
            tmp_path,
            "check",
            {"horizons": [50, 200]},
            environment={"kind": "named", "id": "example-1b"},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "check.json").read_text())
        names = [c["criterion"] for c in doc["result"]["criteria"]]
        assert tuple(names) == CRITERIA
        assert all(c["verdict"] == "converges" for c in doc["result"]["criteria"])

    def test_check_repeated_horizon_counts_once(self, tmp_path):
        path, _ = write_cfg(tmp_path, "check", {"horizons": [10, 100, 100]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "check.json").read_text())["result"]
        assert doc["horizons"] == [10, 100]
        for c in doc["criteria"]:
            assert len(c["partials"]) == 2

    def test_tree_sample_payload(self, tmp_path):
        from defbranch import parse_tree, validate_tree

        path, _ = write_cfg(tmp_path, "tree-sample", {"n": 3, "count": 5})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "tree-sample.json").read_text())
        assert doc["result"]["sampler"] == "construction"
        assert len(doc["result"]["trees"]) == 5
        assert len(doc["result"]["spines"]) == 5
        for text, st in zip(doc["result"]["trees"], doc["result"]["stats"]):
            tree = parse_tree(text)
            validate_tree(tree)
            assert st["gen_sizes"][3] >= 1

    def test_tree_sample_rejection_mode(self, tmp_path, monkeypatch):
        from defbranch import cli, trees

        real = cli.absorption_profile
        calls = []

        def counting(env, n):
            calls.append(n)
            return real(env, n)

        for module in (cli, trees):
            monkeypatch.setattr(module, "absorption_profile", counting)
        path, _ = write_cfg(
            tmp_path, "tree-sample", {"n": 2, "count": 3, "sampler": "rejection"}
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "tree-sample.json").read_text())
        assert "spines" not in doc["result"]
        assert len(doc["result"]["trees"]) == 3
        assert calls == [2]  # one survival for the command, not one per tree

    def test_tree_sample_plain_mode_with_extra_depth(self, tmp_path):
        path, _ = write_cfg(
            tmp_path,
            "tree-sample",
            {"n": 2, "count": 20, "sampler": "plain", "extra_depth": 3},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "tree-sample.json").read_text())["result"]
        assert doc["sampler"] == "plain"
        assert "spines" not in doc
        assert len(doc["trees"]) == len(doc["stats"]) == 20
        # plain trees are cut at depth n + extra_depth, not at n
        sizes = [len(st["gen_sizes"]) for st in doc["stats"]]
        assert max(sizes) <= 2 + 3 + 1
        assert max(sizes) > 2 + 1

    def test_tree_validate_command(self, tmp_path):
        path, _ = write_cfg(tmp_path, "tree-validate", {"n": 2, "samples": 800})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "tree-validate.json").read_text())
        assert doc["result"]["passed"] is True
        assert doc["result"]["complete_enumeration"] is True

    def test_rates_with_envelope(self, tmp_path):
        path, _ = write_cfg(
            tmp_path,
            "rates",
            {"n": [50], "rho": 0.6267890062732586, "sigma": 0.6267890062732586, "eps": 0.05},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        with open(out / "rates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "mean_over_mu_rho" in rows[0]
        assert float(rows[0]["surv_nu_rho"]) > 0


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("defbranch")
        if exe is None:
            pytest.skip("console script not installed")
        path, _ = write_cfg(tmp_path, "moments", {"n": [1]})
        proc = subprocess.run(
            [exe, "validate", str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_module_invocation(self, tmp_path):
        path, _ = write_cfg(tmp_path, "moments", {"n": [1]})
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "defbranch.cli", "validate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0


# (command, params, library function, optional param left out or set to its default)
DEFAULTED = [
    ("simulate", {"horizon": 3, "reps": 500}, "monte_carlo", "mode"),
    ("simulate", {"horizon": 3, "reps": 500}, "monte_carlo", "cap"),
    ("agree", {"horizon": 2, "reps": 500}, "mode_agreement", "cap"),
    ("tree-validate", {"n": 1}, "validate_prop4", "samples"),
    ("tree-validate", {"n": 1, "samples": 100}, "validate_prop4", "budget"),
    ("tree-validate", {"n": 1, "samples": 100}, "validate_prop4", "tol_floor"),
    ("bounds", {"n": [3, 5]}, "survival_bounds", "c"),
    ("cond-mean", {"n": [3, 5]}, "conditioned_mean_bound", "degree"),
    ("dist", {"n": 5, "degree": 8}, "compose_coeffs", "rel_tail"),
    ("dist", {"n": 5, "degree": 8}, "compose_coeffs", "budget"),
]


def _result(tmp_path, name, command, params):
    path, _ = write_cfg(tmp_path, command, params, name=f"{name}.json")
    out = tmp_path / name
    assert main(["run", str(path), "--out", str(out)]) == 0
    (artifact,) = [p for p in out.iterdir() if p.name != "manifest.json"]
    if artifact.suffix == ".csv":
        return artifact.read_text()
    return json.loads(artifact.read_text())["result"]


@pytest.mark.parametrize("command, params, fn, key", DEFAULTED)
def test_absent_param_takes_library_default(tmp_path, monkeypatch, command, params, fn, key):
    from defbranch import cli

    if key == "samples":
        # 10**5 samples take too long here: shrink the library's own default
        monkeypatch.setattr(cli.validate_prop4, "__defaults__", (100, 0))
    default = inspect.signature(getattr(cli, fn)).parameters[key].default
    assert default is not inspect.Parameter.empty
    left_out = _result(tmp_path, "absent", command, params)
    assert _result(tmp_path, "given", command, {**params, key: default}) == left_out
    assert _result(tmp_path, "null", command, {**params, key: None}) == left_out


@pytest.mark.parametrize(
    "command, params",
    [("moments", {"n": 3}), ("tree-sample", {"n": 2}), ("check", {"horizons": [10, 100]})],
)
def test_run_builds_environment_once(tmp_path, monkeypatch, command, params):
    from defbranch import cli

    built = []
    real = cli.environment_from_dict

    def counting(obj):
        built.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "environment_from_dict", counting)
    path, cfg = write_cfg(tmp_path, command, params)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert built == [cfg["environment"]]


@pytest.mark.parametrize(
    "given, missing",
    [(("rho", "sigma"), ["eps"]), (("eps",), ["rho", "sigma"]), (("sigma", "eps"), ["rho"])],
)
def test_rates_partial_envelope_is_three(tmp_path, capsys, given, missing):
    theta = 0.7298437881283575
    bracket = {"rho": theta, "sigma": theta, "eps": 0.05}
    path, _ = write_cfg(
        tmp_path,
        "rates",
        {"n": 50, **{k: bracket[k] for k in given}},
        environment={"kind": "constant", "law": LAW_B},
    )
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "precondition"
    assert err["message"] == f"envelope needs rho, sigma and eps; missing {missing}"
    assert not (out / "rates.csv").exists()


# ---------------------------------------------------------------------------
# the params contract, the hand-written checker and its jsonschema fallback
# ---------------------------------------------------------------------------


def _malformed():
    """(command, shape, params): each shape of malformed params, applied
    to each command's first param (an integer, or a list of them)."""
    from defbranch.cli import _REGISTRY, _REQUIRED

    for name, cmd in _REGISTRY.items():
        key, spec = next(iter(cmd.params.items()))
        base = MINIMAL[name]
        for shape, v in (
            ("string", "x"), ("fraction", 2.7), ("bool", True), ("infinite", float("inf")),
            ("nan", float("nan")), ("object", {}), ("list-of-strings", ["x"]),
        ):
            yield name, shape, {**base, key: v}
        yield name, "unknown", {**base, "bogus": 1}
        yield name, "workers-string", {**base, "workers": "2"}
        yield name, "workers-zero", {**base, "workers": 0}
        if spec.default is _REQUIRED:
            yield name, "missing", {k: v for k, v in base.items() if k != key}
            yield name, "null", {**base, key: None}


MALFORMED = list(_malformed()) + [
    ("moments", "issue-string", {"n": "x"}),
    ("moments", "issue-fraction", {"n": 2.7}),
    ("moments", "issue-bool", {"n": True}),
    ("dist", "below-minimum", {"n": 3, "degree": -4}),
    ("pgf", "above-maximum", {"n": 2, "s": 0.5, "order": 3}),
    ("tree-validate", "below-minimum", {"n": 1, "samples": 0}),
    ("cond-mean", "below-minimum", {"n": 2, "degree": 0}),
    ("check", "scalar-for-list", {"horizons": 5}),
    ("cond-mean", "overflowing", {"n": 1e400}),
    ("bounds", "string-number", {"n": 2, "c": "z"}),
    ("simulate", "string-count", {"horizon": 2, "reps": "many"}),
    ("simulate", "bad-enum", {"horizon": 2, "reps": 10, "mode": "fast"}),
    ("simulate", "fraction-in-list", {"horizon": 2, "reps": 10, "snapshots": [1.5]}),
    ("tree-sample", "bad-enum", {"n": 2, "sampler": "magic"}),
    ("tree-sample", "count-below-minimum", {"n": 2, "count": 0}),
    ("tree-sample", "negative-count", {"n": 2, "count": -1}),
    ("pgf", "list-for-scalar", {"n": [2], "s": 0.5}),
]


@pytest.mark.parametrize(
    "command, shape, params", MALFORMED, ids=[f"{c}-{s}" for c, s, _ in MALFORMED]
)
def test_malformed_params_exit_two(tmp_path, capsys, command, shape, params):
    path, _ = write_cfg(tmp_path, command, params)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert err["pointer"].startswith("/params")
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_two(tmp_path, capsys, workers):
    path, _ = write_cfg(tmp_path, "simulate", {"horizon": 2, "reps": 10, "workers": workers})
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/params/workers"
    # the flag is checked the same way: one JSON error object, no usage text
    path, _ = write_cfg(tmp_path, "simulate", {"horizon": 2, "reps": 10})
    assert main(["simulate", str(path), "--out", str(out), "--workers", str(workers)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "config", "message": f"--workers must be at least 1, got {workers}",
    }
    assert not out.exists()


# configs the schema rejected before the params contract existed, with
# the stderr line each gave then; it must not change
REJECTED = [
    ('[1, 2]',
     '{"error": "config", "message": "[1, 2] is not of type \'object\'", "pointer": "/"}'),
    ('{"command": "moments"}',
     '{"error": "config", "message": "\'environment\' is a required property", "pointer": "/"}'),
    ('{"command": "transmogrify", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}}',
     '{"error": "config", "message": "\'transmogrify\' is not one of [\'pgf\', \'dist\', \'moments\', \'absorption\', \'bounds\', \'check\', \'rates\', \'simulate\', \'agree\', \'tree-sample\', \'tree-validate\', \'cond-mean\']", "pointer": "/command"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "foo": 1}',
     '{"error": "config", "message": "Additional properties are not allowed (\'foo\' was unexpected)", "pointer": "/"}'),
    ('{"command": "moments", "environment": {"kind": "finite-support"}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'finite-support\'} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": 3, "params": {"n": 1}}',
     '{"error": "config", "message": "3 is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}, "x": 1}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'finite\', \'weights\': [0.45, 0.0, 0.45]}, \'x\': 1} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [-0.1, 1.1]}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'finite\', \'weights\': [-0.1, 1.1]}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": []}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'finite\', \'weights\': []}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [true]}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'finite\', \'weights\': [True]}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "lf", "q": 0.1, "r": 0.4, "p": 1}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'lf\', \'q\': 0.1, \'r\': 0.4, \'p\': 1}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "lf", "q": false, "r": 0.4, "p": 0.5}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'constant\', \'law\': {\'kind\': \'lf\', \'q\': False, \'r\': 0.4, \'p\': 0.5}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "prefix", "laws": [{"kind": "finite", "weights": [0.45, 0.0, 0.45]}, {"kind": "lf", "q": 0.1, "r": 0.4, "p": 0.5}, {"kind": "finite", "weights": [2]}], "tail": {"kind": "lf", "q": 0.1, "r": 0.4, "p": 0.5}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'prefix\', \'laws\': [{\'kind\': \'finite\', \'weights\': [0.45, 0.0, 0.45]}, {\'kind\': \'lf\', \'q\': 0.1, \'r\': 0.4, \'p\': 0.5}, {\'kind\': \'finite\', \'weights\': [2]}], \'tail\': {\'kind\': \'lf\', \'q\': 0.1, \'r\': 0.4, \'p\': 0.5}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "named", "id": "example-9"}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'named\', \'id\': \'example-9\'} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "named", "id": "power-defect", "params": {"a": 0.5, "z": 1}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'named\', \'id\': \'power-defect\', \'params\': {\'a\': 0.5, \'z\': 1}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "named", "id": "power-defect", "params": {"a": 0.5, "b": 1.5, "arity": 2.5}}, "params": {"n": 1}}',
     '{"error": "config", "message": "{\'kind\': \'named\', \'id\': \'power-defect\', \'params\': {\'a\': 0.5, \'b\': 1.5, \'arity\': 2.5}} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "master_seed": -1}',
     '{"error": "config", "message": "-1 is less than the minimum of 0", "pointer": "/master_seed"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "master_seed": 1.5}',
     '{"error": "config", "message": "1.5 is not of type \'integer\'", "pointer": "/master_seed"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "master_seed": true}',
     '{"error": "config", "message": "True is not of type \'integer\'", "pointer": "/master_seed"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "master_seed": Infinity}',
     '{"error": "config", "message": "inf is not of type \'integer\'", "pointer": "/master_seed"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "output": {"dir": "x", "y": 1}}',
     '{"error": "config", "message": "Additional properties are not allowed (\'y\' was unexpected)", "pointer": "/output"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "output": {"format": "xml"}}',
     '{"error": "config", "message": "\'xml\' is not one of [\'json\', \'csv\']", "pointer": "/output/format"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": {"n": 1}, "output": {"dir": 3}}',
     '{"error": "config", "message": "3 is not of type \'string\'", "pointer": "/output/dir"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "params": [1]}',
     '{"error": "config", "message": "[1] is not of type \'object\'", "pointer": "/params"}'),
    ('{"command": "moments", "environment": {"kind": "x"}}',
     '{"error": "config", "message": "{\'kind\': \'x\'} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.45, 0.0, 0.45]}}, "master_seed": -2}',
     '{"error": "config", "message": "-2 is less than the minimum of 0", "pointer": "/master_seed"}'),
    ('{"command": "moments", "environment": {"kind": "x"}, "params": {"n": 1}, "master_seed": -1, "output": {"format": 1}}',
     '{"error": "config", "message": "{\'kind\': \'x\'} is not valid under any of the given schemas", "pointer": "/environment"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [NaN, 0.5]}}, "params": {"n": 1}}',
     '{"error": "law", "message": "weights must be finite and non-negative"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "lf", "q": 0.1, "r": Infinity, "p": 0.5}}, "params": {"n": 1}}',
     '{"error": "law", "message": "parameters must be finite"}'),
    ('{"command": "moments", "environment": {"kind": "constant", "law": {"kind": "finite", "weights": [0.7, 0.5]}}, "params": {"n": 1}}',
     '{"error": "law", "message": "weights sum to 1.2 > 1"}'),
]


@pytest.mark.parametrize("text, line", REJECTED)
def test_rejection_wording_unchanged(tmp_path, capsys, text, line):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == line + "\n"


def test_subcommand_params_checked_against_the_subcommand(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, "moments", {"n": 3})
    assert main(["dist", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": "'degree' is a required property", "pointer": "/params"}


def test_missing_params_object_counts_as_empty(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "moments", "environment": {"kind": "constant", "law": LAW_A}}))
    assert main(["validate", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": "'n' is a required property", "pointer": "/params"}
    path.write_text(json.dumps({"command": "check", "environment": {"kind": "constant", "law": LAW_A}}))
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize(
    "command, params, key",
    [("pgf", {"n": 2, "s": [0.5]}, "k"), ("pgf", {"n": 2, "s": [0.5]}, "order"),
     ("tree-sample", {"n": 2, "count": 2}, "sampler"), ("tree-sample", {"n": 2}, "count"),
     ("moments", {"n": 2}, "workers")],
)
def test_null_cli_default_is_unset(tmp_path, command, params, key):
    left_out = _result(tmp_path, "absent", command, params)
    assert _result(tmp_path, "null", command, {**params, key: None}) == left_out


def test_integral_floats_run_as_integers(tmp_path):
    assert _result(tmp_path, "float", "moments", {"n": [2.0, 3]}) == _result(
        tmp_path, "int", "moments", {"n": [2, 3]}
    )


def test_accepting_path_does_not_import_jsonschema(tmp_path):
    path, _ = write_cfg(tmp_path, "moments", {"n": [1, 2]})
    code = (
        "import sys\n"
        "from defbranch.cli import main\n"
        "assert main(['validate', sys.argv[1]]) == 0\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr


# valid configs the differential test starts from: each command with its
# fewest and with all of its params, on each kind of environment
FULL = {
    "pgf": {"n": 3, "s": [0.0, 0.5], "k": 1, "order": 2, "workers": 1},
    "dist": {"n": 3, "degree": 8, "rel_tail": 1e-12, "budget": 1000},
    "moments": {"n": [1, 2]},
    "absorption": {"n": 3},
    "bounds": {"n": [2, 3], "c": 0.5},
    "check": {"horizons": [10, 100]},
    "rates": {"n": 2, "rho": 0.5, "sigma": 0.6, "eps": 0.1},
    "simulate": {"horizon": 3, "reps": 10, "mode": "coupled", "cap": 100, "snapshots": [1, 2]},
    "agree": {"horizon": 2, "reps": 10, "cap": 50},
    "tree-sample": {"n": 2, "count": 3, "sampler": "plain", "extra_depth": 1},
    "tree-validate": {"n": 1, "samples": 10, "max_count": 4, "budget": 100, "tol_floor": 0.05},
    "cond-mean": {"n": [1, 2], "degree": 64},
}
ENVIRONMENTS = [
    {"kind": "constant", "law": LAW_A},
    {"kind": "constant", "law": LAW_B},
    {"kind": "prefix", "laws": [LAW_A, LAW_B], "tail": LAW_B},
    {"kind": "named", "id": "example-2a"},
    {"kind": "named", "id": "power-defect", "params": {"a": 0.5, "b": 1.5, "arity": 2}},
]
BASES = [
    {
        "command": command,
        "environment": env,
        "params": params[command],
        "master_seed": 7,
        "output": {"dir": "out", "format": "csv"},
    }
    for command in MINIMAL
    for params in (MINIMAL, FULL)
    for env in ENVIRONMENTS
]


def _keys_and_values():
    from defbranch.cli import _REGISTRY
    from defbranch.environments import _FAMILIES

    keys = {"command", "environment", "params", "master_seed", "output", "dir", "format",
            "kind", "law", "laws", "tail", "weights", "q", "r", "p", "id", "a", "b", "arity", "bogus"}
    keys |= {k for cmd in _REGISTRY.values() for k in cmd.params}
    names = [*_REGISTRY, *_FAMILIES, "finite", "lf", "constant", "prefix", "named",
             "direct", "coupled", "plain", "construction", "rejection", "json", "csv"]
    odd = ["x", "", True, False, None, 0, 1, 2, -4, 3.0, 2.7, -0.0, 0.5, 1.0, 1.5, 10**30,
           float("nan"), float("inf"), float("-inf"), [], [1], [3.0], [0.5, 2], ["x"], [True],
           [None], {}, {"kind": "finite"}, dict(LAW_A), dict(LAW_B)]
    values = st.one_of(
        st.sampled_from(odd + names), st.integers(-3, 5), st.floats(allow_nan=True)
    ).map(copy.deepcopy)
    return sorted(keys), values


KEYS, VALUES = _keys_and_values()


def _mutate(data, doc):
    """One random edit somewhere in ``doc``: set, drop or add an entry."""
    node = doc
    while True:
        inner = [k for k, v in _entries(node) if isinstance(v, (dict, list))]
        if not inner or not data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    have = [k for k, _ in _entries(node)]
    op = data.draw(st.sampled_from(("set", "drop", "add")))
    value = data.draw(VALUES)
    if op == "drop" and have:
        del node[data.draw(st.sampled_from(have))]
    elif op == "set" and have:
        node[data.draw(st.sampled_from(have))] = value
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = value
    else:
        node.append(value)


def _entries(node):
    return list(node.items()) if isinstance(node, dict) else list(enumerate(node))


@settings(deadline=None)
@given(data=st.data())
def test_checker_agrees_with_the_schema(data):
    from defbranch import cli

    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, doc)
    assert cli._conforms(doc) == cli._validator().is_valid(doc)


# where Python's comparisons and JSON Schema's types part ways
CORNERS = [
    ({"environment": {"kind": "constant", "law": {"kind": "finite", "weights": [float("nan"), 0.5]}}}, True),
    ({"environment": {"kind": "constant", "law": {"kind": "lf", "q": float("nan"), "r": 0.4, "p": 0.5}}}, True),
    ({"environment": {"kind": "constant", "law": {"kind": "finite", "weights": [float("inf")]}}}, False),
    ({"master_seed": 3.0}, True),
    ({"master_seed": True}, False),
    ({"params": {"n": 3.0}}, True),
    ({"params": {"n": [2.0, True]}}, False),
    ({"params": {"n": 2, "c": True}}, False),
    ({"params": {"n": 2, "c": float("nan")}}, True),
    ({"environment": {"kind": "constant", "law": {"kind": "finite", "weights": [True]}}}, False),
    ({"environment": {"kind": "named", "id": "power-defect", "params": {"arity": 2.0}}}, True),
    ({"environment": {"kind": "named", "id": "power-defect", "params": {"a": float("nan")}}}, True),
]


@pytest.mark.parametrize("edit, ok", CORNERS)
def test_checker_corner_cases(edit, ok):
    from defbranch import cli

    doc = {"command": "bounds", "environment": {"kind": "constant", "law": LAW_A}, "params": {"n": 2}}
    doc.update(edit)
    assert cli._conforms(doc) is ok
    assert cli._validator().is_valid(doc) is ok


@pytest.mark.parametrize("doc", BASES, ids=[f"{d['command']}-{i}" for i, d in enumerate(BASES)])
def test_base_configs_conform(doc):
    from defbranch import cli

    assert cli._conforms(doc) and cli._validator().is_valid(doc)


def _params_table() -> str:
    """The README's params table, written from the command registry."""
    from defbranch.cli import _REGISTRY, _REQUIRED

    def kind(p):
        if isinstance(p.type, tuple):
            return "one of " + ", ".join(f"`{v}`" for v in p.type)
        return {"": p.type, "list": f"list of {p.type}s", "either": f"{p.type} or list of {p.type}s"}[p.many]

    def bounds(p):
        if p.minimum is not None and p.maximum is not None:
            return f"{p.minimum} to {p.maximum}"
        return "" if p.minimum is None else f">= {p.minimum}"

    def default(p):
        if p.default is _REQUIRED:
            return ""
        return "library" if p.default is None else f"`{json.dumps(p.default)}`"

    rows = ["| command | param | type | bounds | required | default |",
            "|---|---|---|---|---|---|"]
    for name, cmd in _REGISTRY.items():
        for key, p in cmd.params.items():
            if key != "workers":
                required = "yes" if p.default is _REQUIRED else "no"
                rows.append(f"| `{name}` | `{key}` | {kind(p)} | {bounds(p)} | {required} | {default(p)} |")
    workers = {cmd.params["workers"] for cmd in _REGISTRY.values()}
    assert len(workers) == 1
    (p,) = workers
    rows.append(f"| every command | `workers` | {kind(p)} | {bounds(p)} | no | {default(p)} |")
    return "\n".join(rows) + "\n"


def test_readme_params_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert _params_table() in readme
