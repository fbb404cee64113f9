"""Modules load on first use. `import msw` loads no submodule: each public
name is read from its submodule when first asked for (PEP 562). `import
msw.cli` loads msw.errors and nothing else of msw, and no numpy, so a
malformed input exits before numpy loads. `msw compute` loads numpy and the
search modules once its first sample file has parsed, and never the harness,
its process pool or the ratio code; `msw rate` and `msw ratio` load the
harness. `import msw.bounds`, the closed-form bound formulas, loads
msw.errors and nothing else of msw, and no numpy.

scipy is loaded on first use too: importing msw and running `msw compute` load
no scipy submodule, and each function that needs scipy imports it itself.
The normal quantile is the standard library's (statistics.NormalDist,
imported only where the vs-truth table of its block integrals is built), so
the vs-truth objective and the two-sample and RKHS runs never load
scipy.special, and `msw compute` loads neither. The normal cdf is msw's own
(ot1d._phi) in AnalyticCdf1d.cdf, the d = 2 sweep and every ratio
certificate, so only the ratio search's batched objective loads scipy.special.

Every check runs in a fresh interpreter, since the test process has numpy and
scipy loaded already (the other test modules import them at their top).
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import msw

SRC = Path(msw.__file__).resolve().parents[1]
SUBMODULES = ("scipy.special", "scipy.optimize", "scipy.spatial")


def run_fresh(code: str, cwd: Path) -> dict:
    """Run code in a fresh interpreter with msw on its path; returns the JSON
    object its last line of standard output prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = f"[m for m in {SUBMODULES!r} if m in sys.modules]"

# every (module, function) of msw that imports scipy: the ratio search's normal
# cdf, the exact assignment, the version record and the ratio experiments'
# pre-fork load
SCIPY_SITES = {
    ("ratio", "_pieces"),
    ("maxsliced", "wasserstein_full"),
    ("harness", "_environment"),
    ("harness", "_run_items"),
}


def scipy_import_sites(source: str) -> list[str | None]:
    """The innermost enclosing function of each scipy import in source, None
    for an import outside every function."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_scipy_is_imported_only_inside_the_documented_functions():
    found = set()
    for path in sorted((SRC / "msw").glob("*.py")):
        for function in scipy_import_sites(path.read_text()):
            assert function is not None, f"{path.name} imports scipy outside a function"
            found.add((path.stem, function))
    assert found == SCIPY_SITES


def test_import_loads_no_scipy_submodule(tmp_path):
    out = run_fresh(f"import json, sys\nimport msw, msw.cli\nprint(json.dumps({LOADED}))", tmp_path)
    assert out == []


def test_compute_and_a_ragged_csv_load_no_scipy_submodule(tmp_path):
    code = f"""
import json, sys
import numpy as np
import msw.cli

rng = np.random.default_rng(3)
np.savetxt("x.csv", rng.standard_normal((40, 2)), delimiter=",", header="x1,x2", comments="")
np.savetxt("y.csv", 1.0 + rng.standard_normal((30, 2)), delimiter=",")
with open("ragged.csv", "w") as fh:
    fh.write("x1,x2\\n0.1,0.2\\n0.3\\n")
codes = [msw.cli.main(["compute", "x.csv", "y.csv", "--p", "2", "--out", "out.json"])]
try:
    codes.append(msw.cli.main(["compute", "ragged.csv", "y.csv", "--out", "bad.json"]))
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
"""
    out = run_fresh(code, tmp_path)
    assert out["codes"] == [0, 2]
    assert out["loaded"] == []
    assert json.loads((tmp_path / "out.json").read_text())["value"] > 0.0


# msw.__all__ before the package loaded its names on demand
PUBLIC_NAMES = [
    "AnalyticCdf1d", "AssumptionReport", "BoundParams", "ConfigError", "DomainError",
    "ExperimentConfig", "Gaussian", "KernelSpec", "MswError", "MswResult", "NumericError",
    "OptimizerOpts", "Overlay", "ParetoProduct", "RateCurve", "RatioStatResult", "RatioTable",
    "RkhsPushforward", "RngStream", "ScaleError", "SpecError", "SpectrumReport",
    "UnsupportedDimensionError", "bounds", "check_assumptions", "check_spectrum",
    "eigenvalue", "eigenvalue_bounds", "eigenvalues",
    "emit", "errors", "expectation_bound_exp_decay",
    "expectation_bound_finite", "expectation_bound_poly_decay", "feature_coords",
    "fit_loglog_slope", "harness", "load_rate_curve", "maxsliced", "measures",
    "msw_empirical", "msw_grid_oracle", "msw_vs_analytic",
    "ot1d", "project", "ratio", "ratio_fixed_direction", "ratio_sup", "ratio_tail_bound",
    "rkhs", "run_rate_experiment", "run_ratio_experiment", "sample", "shatter_count",
    "vc_bound", "w1d_empirical", "w1d_vs_cdf", "wasserstein_full",
]


def test_every_public_name_resolves_on_demand(tmp_path):
    code = """
import json, types
import msw
names = sorted(msw.__all__)
try:
    msw.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "all": names,
    "unresolved": [n for n in names if getattr(msw, n, None) is None],
    "modules": sorted(n for n in names if isinstance(getattr(msw, n), types.ModuleType)),
    "not_in_dir": sorted(set(names) - set(dir(msw))),
    "unknown": unknown,
}))
"""
    out = run_fresh(code, tmp_path)
    assert out["all"] == PUBLIC_NAMES
    assert out["unresolved"] == []
    assert out["modules"] == ["bounds", "errors", "harness", "maxsliced", "measures", "ot1d",
                              "ratio", "rkhs"]
    assert out["not_in_dir"] == []
    assert out["unknown"] == "AttributeError"


def test_import_cli_loads_neither_numpy_nor_the_pool(tmp_path):
    code = """
import json, sys
import msw, msw.cli
heavy = ("numpy", "concurrent.futures", "multiprocessing")
print(json.dumps({"heavy": [m for m in heavy if m in sys.modules],
                  "msw": sorted(m for m in sys.modules if m.startswith("msw."))}))
"""
    out = run_fresh(code, tmp_path)
    assert out == {"heavy": [], "msw": ["msw.cli", "msw.errors"]}


def test_bounds_loads_only_the_errors_module(tmp_path):
    code = """
import json, sys
import msw.bounds
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "msw": sorted(m for m in sys.modules if m.startswith("msw."))}))
"""
    assert run_fresh(code, tmp_path) == {"numpy": False, "msw": ["msw.bounds", "msw.errors"]}


def test_the_ratio_and_vc_bounds_resolve_to_msw_bounds():
    for name in ("ratio_tail_bound", "vc_bound"):
        assert getattr(msw, name) is getattr(msw.bounds, name)
        assert getattr(msw, name).__module__ == "msw.bounds"


def test_compute_loads_only_what_it_runs(tmp_path):
    rng = np.random.default_rng(5)
    np.savetxt(tmp_path / "x.csv", rng.standard_normal((30, 2)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", rng.standard_normal((20, 2)) + 1.0, delimiter=",")
    (tmp_path / "ragged.csv").write_text("x1,x2\n0.1,0.2\n0.3\n")
    # x and y differ in size, so the merged quantile grid runs too
    unwanted = ("msw.harness", "msw.ratio", "msw.bounds", "concurrent.futures.process",
                "numpy.polynomial", "numpy.ma", "statistics")
    code = f"""
import json, sys
import msw.cli
ragged = msw.cli.main(["compute", "ragged.csv", "y.csv"])
numpy_after_ragged = "numpy" in sys.modules
valid = msw.cli.main(["compute", "x.csv", "y.csv", "--out", "out.json"])
print(json.dumps({{
    "codes": [ragged, valid],
    "numpy_after_ragged": numpy_after_ragged,
    "numpy_after_valid": "numpy" in sys.modules,
    "unwanted": [m for m in {unwanted!r} if m in sys.modules],
}}))
"""
    out = run_fresh(code, tmp_path)
    assert out == {"codes": [2, 0], "numpy_after_ragged": False, "numpy_after_valid": True,
                   "unwanted": []}
    assert json.loads((tmp_path / "out.json").read_text())["value"] > 0.0


def test_the_tracer_leaves_no_wrapper_behind(tmp_path):
    # the traced benchmark pass imports only msw.cli before the tracer installs,
    # so the tracer loads the other modules itself, one target after another
    code = f"""
import importlib.util, json, sys
import msw.cli
spec = importlib.util.spec_from_file_location("tracing", {str(SRC.parent / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
originals = {{getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS if "." not in a}}
print(json.dumps(sorted(
    f"{{name}}.{{key}}" for name, mod in list(sys.modules.items()) if name.split(".")[0] == "msw"
    for key, value in vars(mod).items() if getattr(value, "__wrapped__", None) in originals)))
"""
    assert run_fresh(code, tmp_path) == []


SITES = """
import json, math, sys
import numpy as np
from msw import AnalyticCdf1d, Gaussian, RngStream, msw_vs_analytic, ratio_sup, wasserstein_full

rng = np.random.default_rng(4)
spec = Gaussian(np.zeros(2), np.eye(2))
xs = rng.standard_normal((20, 2))
law = AnalyticCdf1d(0.5, math.sqrt(2.0))
spec1, spec3 = Gaussian(np.zeros(1), np.eye(1)), Gaussian(np.zeros(3), np.eye(3))
calls = {
    "vs_analytic_p2": lambda: msw_vs_analytic(xs, spec, 2.0, rng=RngStream(1, 0)).value,
    "cdf": lambda: float(law.cdf(np.array([0.3]))[0]),
    "ratio_sup": lambda: ratio_sup(xs, spec, rng=RngStream(1, 2)).value,
    "ratio_sup_d1": lambda: ratio_sup(xs[:, :1], spec1).value,
    "ratio_sup_d3": lambda: ratio_sup(rng.standard_normal((20, 3)), spec3, rng=RngStream(1, 2)).value,
    "wasserstein_full": lambda: wasserstein_full(xs[:8], rng.standard_normal((8, 2)), 2.0),
}
out = {"law": [True, "scipy.special" in sys.modules]}
for name in ORDER:
    value = calls[name]()
    out[name] = [math.isfinite(value), "scipy.special" in sys.modules]
print(json.dumps(out))
"""


def test_every_lazy_scipy_site_runs_in_a_fresh_interpreter(tmp_path):
    # each entry: (returned a finite value, scipy.special loaded after the call);
    # the normal cdf, the d = 2 sweep and d = 1 are msw's own, the search is scipy's
    order = ["vs_analytic_p2", "cdf", "ratio_sup", "ratio_sup_d1", "wasserstein_full"]
    out = run_fresh(f"ORDER = {order!r}\n{SITES}", tmp_path)
    assert out == {
        "law": [True, False],
        "vs_analytic_p2": [True, False],
        "cdf": [True, False],
        "ratio_sup": [True, False],
        "ratio_sup_d1": [True, False],
        "wasserstein_full": [True, True],
    }
    out = run_fresh(f"ORDER = ['ratio_sup_d3']\n{SITES}", tmp_path)
    assert out == {"law": [True, False], "ratio_sup_d3": [True, True]}


POOL = """
import json, sys
import numpy as np
from msw import Gaussian, KernelSpec, OptimizerOpts, RkhsPushforward
from msw.harness import ExperimentConfig, _rate_trial, _ratio_trial, _run_items

def probe(config, n_index, t):
    # the real trial, plus two values: whether scipy.special was loaded when
    # the worker started it and after it
    trial = _ratio_trial if config.experiment == "ratio_exceedance" else _rate_trial
    at_start = "scipy.special" in sys.modules
    values, wall = trial(config, n_index, t)
    return (*values, at_start, "scipy.special" in sys.modules), wall

opts = OptimizerOpts(restarts=2, max_iters=20)
gauss = Gaussian(np.zeros(2), np.eye(2))
configs = {
    "rate_vs_truth": ExperimentConfig(
        "rate_vs_truth", gauss, p=2.0, n_grid=(20,), mc_runs=2, optimizer=opts),
    "rkhs_rate": ExperimentConfig(
        "rkhs_rate", RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 6), n_grid=(20,), mc_runs=2,
        optimizer=opts, d_test_list=(3, 6)),
    # every trial sweeps (d = 2, n <= SWEEP_MAX_N) or checks both signs (d = 1)
    "ratio_sweep": ExperimentConfig(
        "ratio_exceedance", gauss, n_grid=(20, 300), mc_runs=2, optimizer=opts),
    "ratio_d1": ExperimentConfig(
        "ratio_exceedance", Gaussian(np.zeros(1), np.eye(1)), n_grid=(20,), mc_runs=2,
        optimizer=opts),
    "ratio_search": ExperimentConfig(
        "ratio_exceedance", Gaussian(np.zeros(3), np.eye(3)), n_grid=(20,), mc_runs=2,
        optimizer=opts),
}
before = "scipy.special" in sys.modules
values, _, workers = _run_items(probe, configs[EXPERIMENT], 2)
print(json.dumps({
    "before": before,
    "after": "scipy.special" in sys.modules,
    "workers": workers,
    "finite": bool(np.all(np.isfinite(values[:-2]))),
    "at_start": values[-2].ravel().astype(bool).tolist(),
    "after_trial": values[-1].ravel().astype(bool).tolist(),
}))
"""


def test_vs_truth_and_rkhs_pools_leave_scipy_special_unloaded(tmp_path):
    for experiment in ("rate_vs_truth", "rkhs_rate"):
        out = run_fresh(f"EXPERIMENT = {experiment!r}\n{POOL}", tmp_path)
        assert out == {"before": False, "after": False, "workers": 2, "finite": True,
                       "at_start": [False, False], "after_trial": [False, False]}, experiment


def test_ratio_pools_that_never_search_leave_scipy_special_unloaded(tmp_path):
    for experiment, trials in (("ratio_sweep", 4), ("ratio_d1", 2)):
        out = run_fresh(f"EXPERIMENT = {experiment!r}\n{POOL}", tmp_path)
        assert out == {"before": False, "after": False, "workers": 2, "finite": True,
                       "at_start": [False] * trials, "after_trial": [False] * trials}, experiment


def test_ratio_pool_loads_scipy_special_before_the_fork(tmp_path):
    out = run_fresh(f"EXPERIMENT = 'ratio_search'\n{POOL}", tmp_path)
    assert out == {"before": False, "after": True, "workers": 2, "finite": True,
                   "at_start": [True, True], "after_trial": [True, True]}
