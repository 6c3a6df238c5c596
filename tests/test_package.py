"""The package's public names: one list per module, re-exported unchanged."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import defbranch
from defbranch import analysis, environments, laws, simulate, trees

MODULES = (laws, environments, analysis, simulate, trees)

# the package's exports as released
EXPORTS = {
    "__version__",
    "AbsorptionProfile", "AbsorptionScan", "AgreementReport", "BLOCK", "BudgetError",
    "CONVERGES", "CRITERIA", "CondMeanBound", "ConditionVerdict", "ConditionedSampler",
    "Constant", "DEFAULT_CAP", "DELTA", "DIVERGES", "DefectiveTree", "DistVector",
    "EnumeratedLaw", "EnvelopeRatios", "Environment", "FiniteSupport", "FixedPointBracket",
    "GrowthRates", "INCONCLUSIVE", "InvalidLawError", "InvalidTreeError",
    "LateExtinctionBounds", "LinearFractional", "McSummary", "Moments", "MuProfile",
    "NamedFamily", "OffspringLaw", "PathSample", "PreconditionError", "Prefix",
    "Prop4Report", "RegularityReport", "SpineDist", "SpineRecord", "SurvivalBounds",
    "Terminal", "TreeStats", "absorption_profile", "absorption_scan", "compose_coeffs",
    "compose_eval", "composed_points", "conditioned_mean_bound", "criteria_verdicts",
    "enumerate_conditioned", "envelope_ratios", "environment_from_dict",
    "fixed_point_bracket", "growth_rate", "late_extinction_bounds", "law_from_dict",
    "mode_agreement", "moments", "monte_carlo", "mu_profile", "parse_tree", "prefix_key",
    "prefix_prob", "rejection_conditioned", "run_path", "sample_conditioned",
    "sample_dbtve", "serialize_tree", "spine_dist", "survival_bounds", "tree_stats",
    "validate_prop4", "validate_tree",
}


def test_exported_names_unchanged():
    assert len(EXPORTS) == 74
    assert len(defbranch.__all__) == len(EXPORTS)
    assert set(defbranch.__all__) == EXPORTS


def test_each_export_is_the_defining_modules_object():
    owners: dict[str, object] = {}
    for mod in MODULES:
        for name in mod.__all__:
            assert name not in owners, f"{name} listed by two modules"
            owners[name] = mod
            assert getattr(defbranch, name) is getattr(mod, name)
    assert set(owners) == EXPORTS - {"__version__"}


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
    ids=lambda p: p.name,
)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_benchmark_tracer_finds_every_name_it_patches(monkeypatch):
    """perfbench/tracing.py patches package names from outside: a
    ``Class.method`` target must sit in that class's own ``__dict__``, a
    function target must be a module attribute.  Installing and
    uninstalling its tracer fails here when one is renamed or moved, and
    leaves every patched attribute its original object."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under perfbench/
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    originals = {}  # (owner, attr) -> the object before the first patch
    try:
        tracer.install()
        for owner, attr, value in tracer._undo:
            originals.setdefault((owner, attr), value)
        swapped = [owner.__dict__[attr] is not value for (owner, attr), value in originals.items()]
    finally:
        tracer.uninstall()
    assert set(tracer.names) >= {name for name, _, _ in tracing.TARGETS + tracing.LOCAL_BINDINGS}
    assert all(swapped)
    assert all(owner.__dict__[attr] is value for (owner, attr), value in originals.items())
