"""scipy is loaded on first use: importing msw and running `msw compute` load
no scipy submodule, and each function that needs scipy imports it itself.
The normal quantile is msw's own, so the vs-truth objective and the
two-sample and RKHS runs never load scipy.special; the normal cdf (the ratio
statistic, gaussian_law's cdf) still comes from it.

Every check runs in a fresh interpreter, since the test process has scipy
loaded already (the other test modules import it at their top).
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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

# every (module, function) of msw that imports scipy: the normal cdf, the exact
# assignment, the version record and the ratio experiments' pre-fork load
SCIPY_SITES = {
    ("ot1d", "_ndtr"),
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


SITES = """
import json, math, sys
import numpy as np
from msw import Gaussian, RngStream, gaussian_law, msw_vs_analytic, ratio_sup, wasserstein_full

rng = np.random.default_rng(4)
spec = Gaussian(np.zeros(2), np.eye(2))
xs = rng.standard_normal((20, 2))
law = gaussian_law(0.5, 2.0)
calls = {
    "quantile": lambda: float(law.quantile(np.array([0.3]))[0]),
    "vs_analytic_p2": lambda: msw_vs_analytic(xs, spec, 2.0, rng=RngStream(1, 0)).value,
    "vs_analytic_p3": lambda: msw_vs_analytic(xs, spec, 3.0, rng=RngStream(1, 1)).value,
    "cdf": lambda: float(law.cdf(np.array([0.3]))[0]),
    "ratio_sup": lambda: ratio_sup(xs, spec, rng=RngStream(1, 2)).value,
    "wasserstein_full": lambda: wasserstein_full(xs[:8], rng.standard_normal((8, 2)), 2.0),
}
out = {"gaussian_law": [True, "scipy.special" in sys.modules]}
for name in ORDER:
    value = calls[name]()
    out[name] = [math.isfinite(value), "scipy.special" in sys.modules]
print(json.dumps(out))
"""


def test_every_lazy_scipy_site_runs_in_a_fresh_interpreter(tmp_path):
    # each entry: (returned a finite value, scipy.special loaded after the call)
    order = ["quantile", "vs_analytic_p2", "vs_analytic_p3", "cdf", "wasserstein_full"]
    out = run_fresh(f"ORDER = {order!r}\n{SITES}", tmp_path)
    assert out == {
        "gaussian_law": [True, False],
        "quantile": [True, False],
        "vs_analytic_p2": [True, False],
        "vs_analytic_p3": [True, False],
        "cdf": [True, True],
        "wasserstein_full": [True, True],
    }
    out = run_fresh(f"ORDER = ['ratio_sup']\n{SITES}", tmp_path)
    assert out == {"gaussian_law": [True, False], "ratio_sup": [True, True]}


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
    "ratio_exceedance": ExperimentConfig(
        "ratio_exceedance", gauss, n_grid=(20,), mc_runs=2, optimizer=opts),
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


def test_ratio_pool_loads_scipy_special_before_the_fork(tmp_path):
    out = run_fresh(f"EXPERIMENT = 'ratio_exceedance'\n{POOL}", tmp_path)
    assert out == {"before": False, "after": True, "workers": 2, "finite": True,
                   "at_start": [True, True], "after_trial": [True, True]}
