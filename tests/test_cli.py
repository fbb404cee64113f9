import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from msw.cli import CONFIG_KINDS, config_from_mapping, load_sample_file, main, parse_config_file
from msw.errors import ConfigError
from msw.harness import load_rate_curve
from msw.measures import Gaussian, ParetoProduct, RkhsPushforward


def write_samples(path, arr, header=False):
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"x{i + 1}" for i in range(arr.shape[1])) + "\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_load_sample_file_with_and_without_header(tmp_path):
    arr = np.random.default_rng(0).normal(size=(8, 3))
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    write_samples(plain, arr)
    write_samples(headed, arr, header=True)
    assert np.array_equal(load_sample_file(plain), arr)
    assert np.array_equal(load_sample_file(headed), arr)


def test_compute_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    write_samples(x, rng.normal(size=(12, 2)))
    write_samples(y, rng.normal(size=(10, 2)) + 1.0)
    code = main(["compute", str(x), str(y), "--p", "2", "--seed", "4", "--restarts", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] > 0.0
    assert len(payload["argmax"]) == 2


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
# comment
experiment = rate_two_sample
distribution = pareto_product
shape = 8
d = 2
n_grid = 10, 20, 40
mc_runs = 3
master_seed = 7
"""
    )
    mapping = parse_config_file(cfg)
    assert mapping["experiment"] == "rate_two_sample"
    assert mapping["n_grid"] == [10, 20, 40]
    config, eps = config_from_mapping(mapping)
    assert isinstance(config.spec, ParetoProduct)
    assert config.n_grid == (10, 20, 40)
    assert config.mc_runs == 3
    assert len(eps) > 0


def test_config_covariance_forms():
    eq, _ = config_from_mapping(
        {"experiment": "rate_vs_truth", "d": 3, "mean": 1, "covariance": "equicorrelated(0.5)"}
    )
    assert isinstance(eq.spec, Gaussian)
    assert eq.spec.cov[0, 1] == pytest.approx(0.5)
    assert eq.spec.cov[0, 0] == pytest.approx(1.0)
    assert np.all(eq.spec.mean == 1.0)

    dg, _ = config_from_mapping(
        {"experiment": "rate_vs_truth", "d": 2, "covariance": "diag(4,1)"}
    )
    assert dg.spec.cov[0, 0] == 4.0

    rk, _ = config_from_mapping(
        {
            "experiment": "rkhs_rate",
            "distribution": "rkhs_pushforward",
            "sigma2": 4,
            "w": 1,
            "eta2": 1,
            "d_test_list": [10, 20],
        }
    )
    assert isinstance(rk.spec, RkhsPushforward)
    assert rk.d_test_list == (10, 20)

    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "rate_vs_truth", "d": 2, "covariance": "wat"})
    with pytest.raises(ConfigError):
        config_from_mapping({"distribution": "gaussian"})


def test_rate_command_end_to_end(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = rate_two_sample\ndistribution = gaussian\nd = 2\n"
        "n_grid = 8, 16, 32\nmc_runs = 2\nmaster_seed = 5\nrestarts = 3\nmax_iters = 30\n"
    )
    out = tmp_path / "curve.csv"
    assert main(["rate", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    curve = load_rate_curve(out, "csv")
    assert curve.n.tolist() == [8, 16, 32]
    assert (tmp_path / "curve.meta.json").exists()
    # --seed overrides the master seed recorded in the metadata
    out2 = tmp_path / "curve2.csv"
    assert main(["rate", "--config", str(cfg), "--seed", "99", "--out", str(out2)]) == 0
    assert load_rate_curve(out2, "csv").meta["master_seed"] == 99


def test_ratio_command_end_to_end(tmp_path):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text(
        "experiment = ratio_exceedance\ndistribution = gaussian\nd = 2\n"
        "n_grid = 20\nmc_runs = 2\nmaster_seed = 5\nrestarts = 2\nmax_iters = 15\n"
        "eps_grid = 0.1, 0.5\n"
    )
    out = tmp_path / "table.csv"
    assert main(["ratio", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,epsilon,frequency,bound,bound_raw,runs"
    assert len(lines) == 3


def test_rkhs_spectrum_command(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = main(
        ["rkhs-spectrum", "--sigma2", "0.25", "--w", str(0.125**0.5), "--j-max", "8",
         "--check", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,lambda"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5, rel=1e-12)
    report = json.loads((tmp_path / "spectrum.report.json").read_text())
    assert report["kappa"] == pytest.approx(4.0)
    assert report["orthonormality_error"] < 1e-10


def test_exit_codes(tmp_path, capsys):
    # missing config file -> I/O error
    assert main(["rate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]) == 4
    # bad experiment -> config error
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = bogus\n")
    assert main(["rate", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    # unwritable output path -> I/O error
    good = tmp_path / "good.cfg"
    good.write_text(
        "experiment = rate_two_sample\ndistribution = gaussian\nd = 2\n"
        "n_grid = 8, 16\nmc_runs = 1\nrestarts = 2\nmax_iters = 10\n"
    )
    assert main(["rate", "--config", str(good), "--out", str(tmp_path / "no_dir" / "o.csv")]) == 4
    # negative worker count -> config error
    assert main(["rate", "--config", str(good), "--out", str(tmp_path / "o.csv"), "--threads", "-1"]) == 2
    # misspelled config key -> config error
    typo = tmp_path / "typo.cfg"
    typo.write_text(good.read_text() + "restrats = 3\n")
    assert main(["rate", "--config", str(typo), "--out", str(tmp_path / "o.csv")]) == 2
    # removed optimizer knobs -> config error as an unknown key
    for line, key in (("step_decay = 0.5", "step_decay"), ("tol = 1e-7", "tol")):
        knob = tmp_path / "knob.cfg"
        knob.write_text(good.read_text() + line + "\n")
        assert main(["rate", "--config", str(knob), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    # non-integer or boolean values of integer keys -> config error naming the key
    for line, key in (("max_iters = 2.5", "max_iters"), ("restarts = true", "restarts"),
                      ("mc_runs = 2.5", "mc_runs"), ("n_grid = 8.5, 16", "n_grid")):
        typed = tmp_path / "typed.cfg"
        typed.write_text(good.read_text() + line + "\n")
        assert main(["rate", "--config", str(typed), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
    # malformed covariance numbers, overlays, dimensions and empty values -> config error,
    # before any trial runs
    for line in ("covariance = equicorrelated(abc)", "covariance = diag(1, x)",
                 "overlay_kind = bogus", "overlay_kind = exp_decay", "d = -1", "mean ="):
        bad_cfg = tmp_path / "malformed.cfg"
        bad_cfg.write_text(good.read_text() + line + "\n")
        out = tmp_path / "malformed.csv"
        assert main(["rate", "--config", str(bad_cfg), "--out", str(out)]) == 2, line
        assert not out.exists() and not out.with_suffix(".meta.json").exists()
    # keys the experiment or the distribution never reads, and a d that disagrees with a
    # list mean -> config error, before any trial runs
    ratio_cfg = "experiment = ratio_exceedance\nd = 2\nn_grid = 20\nmc_runs = 1\n"
    pareto_cfg = "experiment = rate_two_sample\ndistribution = pareto_product\nshape = 8\nd = 2\n"
    rkhs_cfg = ("experiment = rkhs_rate\ndistribution = rkhs_pushforward\nsigma2 = 4\nw = 1\n"
                "eta2 = 1\nd_test_list = 10, 20\n")
    for base in (pareto_cfg, rkhs_cfg):
        readable = tmp_path / "readable.cfg"
        readable.write_text(base)
        config_from_mapping(parse_config_file(readable))
    for command, text in (
        ("ratio", ratio_cfg + "p = 3\n"),
        ("ratio", ratio_cfg + "overlay_kind = finite\n"),
        ("ratio", ratio_cfg + "overlay_s = 5\n"),
        ("ratio", ratio_cfg + "d_test_list = 5, 7\n"),
        ("rate", good.read_text() + "d_test_list = 5, 7\n"),
        ("rate", good.read_text() + "eps_grid = 0.1, 0.5\n"),
        ("rate", good.read_text().replace("d = 2", "d = 3") + "mean = 0, 1\n"),
        ("rate", good.read_text() + "shape = 3\n"),
        ("ratio", ratio_cfg + "shape = 3\n"),
        *(("rate", good.read_text() + f"{key} = 2\n") for key in ("sigma2", "w", "eta2", "d_test")),
        *(("rate", pareto_cfg + line) for line in ("mean = 0\n", "covariance = identity\n",
                                                   "sigma2 = 4\n", "d_test = 5\n")),
        *(("rate", rkhs_cfg + line) for line in ("d = 7\n", "mean = 0\n", "shape = 3\n")),
    ):
        unread = tmp_path / "unread.cfg"
        unread.write_text(text)
        out = tmp_path / "unread.csv"
        assert main([command, "--config", str(unread), "--out", str(out)]) == 2, text
        assert not out.exists() and not out.with_suffix(".meta.json").exists()
    # zero restarts -> config error, like a negative count
    pts = tmp_path / "pts.csv"
    write_samples(pts, np.random.default_rng(2).normal(size=(6, 2)))
    for restarts in ("0", "-1"):
        out = tmp_path / "compute.json"
        assert main(["compute", str(pts), str(pts), "--restarts", restarts, "--out", str(out)]) == 2
        assert not out.exists()
    # ragged sample file -> config error naming the short line
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x1,x2\n0.1,0.2\n0.3\n0.4,0.5\n")
    assert main(["compute", str(ragged), str(ragged)]) == 2
    assert f"{ragged}:3: expected 2 values, got 1" in capsys.readouterr().err
    # empty eigenvalue table -> config error
    assert main(["rkhs-spectrum", "--sigma2", "4", "--w", "1", "--j-max", "0"]) == 2


def test_sample_file_errors_give_the_line_in_the_file(tmp_path, capsys):
    # blank lines count: the short row is the file's fifth line
    blank = tmp_path / "blank.csv"
    blank.write_text("x1,x2\n\n0.1,0.2\n\n0.3\n")
    assert main(["compute", str(blank), str(blank)]) == 2
    assert f"{blank}:5: expected 2 values, got 1" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("\n0.1,0.2\n\n0.3,x\n")
    assert main(["compute", str(bad), str(bad)]) == 2
    assert f"{bad}:4: could not convert" in capsys.readouterr().err


def test_overlay_errors_raise_while_building_the_config():
    base = {"experiment": "rate_two_sample", "d": 2, "n_grid": [8, 16], "mc_runs": 1}
    with pytest.raises(ConfigError, match="unknown overlay kind 'bogus'"):
        config_from_mapping({**base, "overlay_kind": "bogus"})
    with pytest.raises(ConfigError, match="decay exponent gamma"):
        config_from_mapping({**base, "overlay_kind": "exp_decay"})
    config, _ = config_from_mapping({**base, "overlay_kind": "exp_decay", "overlay_gamma": 2})
    assert config.overlay.params.gamma == 2.0


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(\w+)", section)) | set(re.findall(r"^(\w+) =", section, re.M))
    assert sorted(CONFIG_KINDS.keys() - documented) == []


def test_compute_reports_convergence(tmp_path):
    rng = np.random.default_rng(3)
    x, y, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "out.json"
    write_samples(x, rng.normal(size=(40, 3)))
    write_samples(y, rng.normal(size=(30, 3)) + 1.0)
    assert main(["compute", str(x), str(y), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["iterations"] < 200


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # every config that perfbench/workloads.py writes sets only keys its experiment reads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in ("vs_truth", "rkhs_two_sample", "ratio"):
        workloads.make_ops(workload, 7, tmp_path)
    configs = sorted(tmp_path.glob("*.cfg"))
    assert len(configs) == 5
    for cfg in configs:
        config_from_mapping(parse_config_file(cfg))
