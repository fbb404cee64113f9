"""scipy is loaded on first use: importing msw and running `msw compute` load
no scipy submodule, and each function that needs scipy imports it itself.

Every check runs in a fresh interpreter, since the test process has scipy
loaded already (the other test modules import it at their top).
"""
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


def test_every_lazy_scipy_site_runs_in_a_fresh_interpreter(tmp_path):
    code = """
import json, math
import numpy as np
from msw import Gaussian, RngStream, gaussian_law, msw_vs_analytic, ratio_sup, wasserstein_full

rng = np.random.default_rng(4)
spec = Gaussian(np.zeros(2), np.eye(2))
xs = rng.standard_normal((20, 2))
law = gaussian_law(0.5, 2.0)
values = {
    "cdf": float(law.cdf(np.array([0.3]))[0]),
    "quantile": float(law.quantile(np.array([0.3]))[0]),
    "vs_analytic_p2": msw_vs_analytic(xs, spec, 2.0, rng=RngStream(1, 0)).value,
    "vs_analytic_p3": msw_vs_analytic(xs, spec, 3.0, rng=RngStream(1, 1)).value,
    "ratio_sup": ratio_sup(xs, spec, rng=RngStream(1, 2)).value,
    "wasserstein_full": wasserstein_full(xs[:8], rng.standard_normal((8, 2)), 2.0),
}
print(json.dumps({k: math.isfinite(v) for k, v in values.items()}))
"""
    out = run_fresh(code, tmp_path)
    assert out == dict.fromkeys(
        ("cdf", "quantile", "vs_analytic_p2", "vs_analytic_p3", "ratio_sup", "wasserstein_full"), True)


def test_pool_workers_inherit_scipy_special(tmp_path):
    code = """
import json, sys
import numpy as np
from msw import Gaussian
from msw.harness import ExperimentConfig, _run_items

def worker(config, n_index, trial):
    return ("scipy.special" in sys.modules,), 0.0

config = ExperimentConfig("rate_two_sample", Gaussian(np.zeros(2), np.eye(2)), n_grid=(8,), mc_runs=2)
before = "scipy.special" in sys.modules
values, _, workers = _run_items(worker, config, 2)
print(json.dumps({"before": before, "workers": workers, "loaded": values.ravel().tolist()}))
"""
    out = run_fresh(code, tmp_path)
    assert out == {"before": False, "workers": 2, "loaded": [True, True]}
