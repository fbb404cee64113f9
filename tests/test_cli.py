import importlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from msw.cli import CONFIG_KINDS, config_from_mapping, load_sample_file, main, parse_config_file
from msw.errors import ConfigError
from msw.harness import _meta, config_to_dict, load_rate_curve
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
    config = config_from_mapping(mapping)
    assert isinstance(config.spec, ParetoProduct)
    assert config.n_grid == (10, 20, 40)
    assert config.mc_runs == 3
    assert config.eps_grid is None


def test_config_covariance_forms():
    eq = config_from_mapping(
        {"experiment": "rate_vs_truth", "d": 3, "mean": 1, "covariance": "equicorrelated(0.5)"}
    )
    assert isinstance(eq.spec, Gaussian)
    assert eq.spec.cov[0, 1] == pytest.approx(0.5)
    assert eq.spec.cov[0, 0] == pytest.approx(1.0)
    assert np.all(eq.spec.mean == 1.0)

    dg = config_from_mapping(
        {"experiment": "rate_vs_truth", "d": 2, "covariance": "diag(4,1)"}
    )
    assert dg.spec.cov[0, 0] == 4.0

    rk = config_from_mapping(
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


_RATIO_CFG = ("experiment = ratio_exceedance\nd = 2\nn_grid = 20\nmc_runs = 3\nmaster_seed = 5\n"
              "restarts = 2\nmax_iters = 15\n")


@pytest.mark.parametrize("grid", ["nan, 0.5", "-0.1, 0.5"], ids=["nan", "negative"])
def test_a_nan_or_negative_threshold_exits_2(tmp_path, capsys, grid):
    cfg, out = tmp_path / "ratio.cfg", tmp_path / "table.csv"
    cfg.write_text(_RATIO_CFG + f"eps_grid = {grid}\n")
    assert main(["ratio", "--config", str(cfg), "--out", str(out)]) == 2
    assert "eps_grid must be nonempty thresholds >= 0" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ratio.cfg"]
    # an infinite threshold is never exceeded, and its bound is 0
    cfg.write_text(_RATIO_CFG + "eps_grid = inf\n")
    assert main(["ratio", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["20,inf,0.0,0.0,0.0,3"]


def test_the_record_holds_the_eps_grid(tmp_path):
    hashes = []
    for grid in ("0.1, 0.5", "0.2, 0.9, 1.5"):
        cfg, out = tmp_path / "ratio.cfg", tmp_path / "table.csv"
        cfg.write_text(_RATIO_CFG + f"eps_grid = {grid}\n")
        assert main(["ratio", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["config"]["eps_grid"] == [float(e) for e in grid.split(",")]
        hashes.append(meta["content_hash"])
    assert hashes[0] != hashes[1]


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
                 "overlay_kind = bogus", "overlay_kind = exp_decay",
                 "overlay_kind = finite\noverlay_C = inf", "d = -1", "mean ="):
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


def test_non_utf8_input_exits_2_and_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff0.1,0.2\n0.3,0.4\n")
    good = tmp_path / "good.csv"
    write_samples(good, np.random.default_rng(2).normal(size=(6, 2)))
    out = tmp_path / "compute.json"
    assert main(["compute", str(bad), str(good), "--out", str(out)]) == 2
    assert f"sample file {bad} is not UTF-8" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"experiment = rate_two_sample\nd = 2\n# \xff\n")
    out = tmp_path / "curve.csv"
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config file {cfg} is not UTF-8" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    arr = np.random.default_rng(5).normal(size=(3, 2))
    plain = tmp_path / "plain.csv"
    write_samples(plain, arr)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(load_sample_file(marked), arr)


def test_a_config_file_with_a_byte_order_mark_runs(tmp_path):
    cfg = tmp_path / "marked.cfg"
    cfg.write_bytes(
        b"\xef\xbb\xbfexperiment = rate_two_sample\ndistribution = gaussian\nd = 2\n"
        b"n_grid = 8, 16, 32\nmc_runs = 1\nrestarts = 2\nmax_iters = 10\n"
    )
    out = tmp_path / "curve.csv"
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_rate_curve(out, "csv").n.tolist() == [8, 16, 32]


def test_projection_overflow_exits_3(tmp_path, capsys):
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    write_samples(big, np.array([[1e308, 1e308], [-1e308, 1e308], [1.5e308, -1.2e308]]))
    write_samples(small, np.random.default_rng(6).normal(size=(3, 2)))
    out = tmp_path / "compute.json"
    with np.errstate(all="ignore"):
        assert main(["compute", str(big), str(small), "--out", str(out)]) == 3
    assert "numeric error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("xs,ys", [
    # d = 1 takes the exact sorted matching and never projects
    ([[1e308], [0.0], [0.0]], [[-1e308], [0.0], [0.0]]),
    # the projections are finite, |x - y|^2 is not
    ([[1e200, 0.0], [1e200, 1.0], [1e200, 2.0]], [[-1e200, 0.0], [-1e200, 1.0], [-1e200, 2.0]]),
    # entries near 1e153: the scatter matrix of the principal-axis seeds overflows too
    (2.0**510 * np.random.default_rng(0).standard_normal((200, 3)),
     2.0**510 * (np.random.default_rng(1).standard_normal((200, 3)) + 0.3)),
], ids=["d1", "d2", "d3_scatter"])
def test_a_non_finite_distance_exits_3(tmp_path, capsys, xs, ys):
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    write_samples(x_path, np.array(xs))
    write_samples(y_path, np.array(ys))
    out = tmp_path / "compute.json"
    with np.errstate(all="ignore"):
        assert main(["compute", str(x_path), str(y_path), "--out", str(out)]) == 3
    assert "distance between the samples is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("law", [
    "experiment = rate_vs_truth\nd = 2\ncovariance = diag(1e308, 1e308)\n",
    "experiment = rate_two_sample\ndistribution = pareto_product\nshape = 0.001\nd = 2\n",
], ids=["gaussian", "pareto"])
def test_a_draw_that_overflows_exits_3_without_a_warning(tmp_path, capsys, law):
    cfg, out = tmp_path / "huge.cfg", tmp_path / "curve.csv"
    cfg.write_text(law + "n_grid = 8, 16\nmc_runs = 1\nrestarts = 1\nmax_iters = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numeric error: a draw of 8 points" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["huge.cfg"]
    # a sample file that holds inf is a malformed input, not a numeric error
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,2.0\ninf,0.0\n0.5,0.5\n")
    assert main(["compute", str(pts), str(pts)]) == 2
    assert "non-finite entries" in capsys.readouterr().err


def test_a_non_finite_statistic_exits_3(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "huge_p.cfg"
    cfg.write_text(
        "experiment = rate_two_sample\ndistribution = gaussian\nd = 2\np = 1e308\n"
        "n_grid = 20, 40\nmc_runs = 3\nrestarts = 2\nmax_iters = 10\n"
    )
    out = tmp_path / "curve.csv"
    with np.errstate(all="ignore"):
        assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "the order-1e+308 distance between the samples is not finite" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()
    # a search that hands back a non-finite value is caught when the curve is built
    from msw import maxsliced

    monkeypatch.setattr(maxsliced, "msw_empirical", lambda *args: maxsliced.MswResult(
        math.inf, np.array([1.0, 0.0]), restarts_used=1, iterations=0))
    cfg.write_text(cfg.read_text().replace("p = 1e308", "p = 2"))
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "a trial at n = 20 gave a non-finite statistic" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


def test_rate_vs_truth_at_p_not_2_exits_2(tmp_path, capsys):
    cfg, out = tmp_path / "p3.cfg", tmp_path / "curve.csv"
    cfg.write_text("experiment = rate_vs_truth\nd = 2\np = 3\nn_grid = 8, 16\nmc_runs = 1\n")
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "computed at p = 2 only, got 3.0" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p3.cfg"]
    # p = 2, set or unset, runs, and the record says 2.0
    for text in ("p = 2\n", ""):
        cfg.write_text("experiment = rate_vs_truth\nd = 2\nn_grid = 8, 16\nmc_runs = 1\n" + text)
        assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".meta.json").read_text())["config"]["p"] == 2.0


def test_config_file_values_with_a_parenthesis_are_one_token(tmp_path):
    cfg = tmp_path / "diag.cfg"
    cfg.write_text("experiment = rate_vs_truth\nd = 2\ncovariance = diag(4, 1)\n")
    assert parse_config_file(cfg)["covariance"] == "diag(4, 1)"
    config = config_from_mapping(parse_config_file(cfg))
    assert np.array_equal(config.spec.cov, np.diag([4.0, 1.0]))
    cfg.write_text("experiment = rate_vs_truth\nd = 2\nn_grid = 10, (20\n")
    out = tmp_path / "curve.csv"
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_overlay_errors_raise_while_building_the_config():
    base = {"experiment": "rate_two_sample", "d": 2, "n_grid": [8, 16], "mc_runs": 1}
    with pytest.raises(ConfigError, match="unknown overlay kind 'bogus'"):
        config_from_mapping({**base, "overlay_kind": "bogus"})
    with pytest.raises(ConfigError, match="decay exponent gamma"):
        config_from_mapping({**base, "overlay_kind": "exp_decay"})
    config = config_from_mapping({**base, "overlay_kind": "exp_decay", "overlay_gamma": 2})
    assert config.overlay.gamma == 2.0


_RATE_CFG = ("experiment = rate_two_sample\nd = 2\nn_grid = 8, 16\nmc_runs = 1\n"
             "restarts = 1\nmax_iters = 5\n")
_RKHS_CFG = ("experiment = rkhs_rate\ndistribution = rkhs_pushforward\nsigma2 = 4\nw = 1\n"
             "eta2 = 1\nn_grid = 8, 16\nmc_runs = 1\nrestarts = 1\nmax_iters = 5\n")


@pytest.mark.parametrize("text", [
    _RATE_CFG + "overlay_kind = finite\noverlay_c = 2\n",
    _RATE_CFG + "overlay_s = 7\n",
    _RATE_CFG + "overlay_gamma = 2\n",
    _RATE_CFG + "overlay_C = 2\n",
    _RATE_CFG + "overlay_kind = finite\noverlay_gamma = 2\n",
    _RKHS_CFG + "d_test = 10\nd_test_list = 10, 20\n",
    _RKHS_CFG + "d_test_list = 10, 10\n",
], ids=["overlay_c", "overlay_s_alone", "overlay_gamma_alone", "overlay_C_alone",
        "finite_with_gamma", "d_test_and_d_test_list", "repeated_level"])
def test_a_value_that_nothing_reads_exits_2(tmp_path, capsys, text):
    cfg, out = tmp_path / "unread.cfg", tmp_path / "unread.csv"
    cfg.write_text(text)
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("unread*.csv")) and not list(tmp_path.glob("*.meta.json"))


def test_an_overlay_takes_p_and_d_from_its_experiment():
    base = {"experiment": "rate_two_sample", "d": 3, "p": 1.5, "overlay_kind": "finite"}
    # the record holds what the overlay sets, with s resolved; p and d are the
    # experiment's and recorded there once
    fixed = {"kind": "finite", "gamma": None}
    config = config_from_mapping(base)
    assert config_to_dict(config)["overlay"] == {**fixed, "s": 4.0, "C_user": 1.0}
    config = config_from_mapping({**base, "overlay_s": 9, "overlay_C": 2})
    assert config_to_dict(config)["overlay"] == {**fixed, "s": 9.0, "C_user": 2.0}
    with pytest.raises(ConfigError, match="moment order s must exceed 2p"):
        config_from_mapping({**base, "overlay_s": 3})


def _strict_json(text):
    """text parsed as JSON, where a bare NaN, Infinity or -Infinity is an error."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command,text,recorded", [
    ("rate", _RATE_CFG + "overlay_kind = finite\noverlay_s = inf\n", ("overlay", "s")),
    ("rate", _RATE_CFG + "overlay_kind = exp_decay\noverlay_gamma = inf\n", ("overlay", "gamma")),
    ("ratio", "experiment = ratio_exceedance\nd = 2\nn_grid = 20\nmc_runs = 1\neps_grid = 0.5, inf\n",
     ("eps_grid", 1)),
], ids=["overlay_s", "overlay_gamma", "eps_grid"])
def test_an_infinite_value_is_recorded_as_strict_json(tmp_path, command, text, recorded):
    cfg, out = tmp_path / "inf.cfg", tmp_path / "out.csv"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    meta = _strict_json(out.with_suffix(".meta.json").read_text())
    key, item = recorded
    assert meta["config"][key][item] == "inf"
    assert meta["content_hash"] == _meta(config_from_mapping(parse_config_file(cfg)), 1)["content_hash"]


def test_a_json_table_is_strict_json(tmp_path):
    cfg, out = tmp_path / "ratio.cfg", tmp_path / "table.json"
    cfg.write_text(_RATIO_CFG + "eps_grid = 0.5, inf\n")
    assert main(["ratio", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    rows = _strict_json(out.read_text())
    assert [row["epsilon"] for row in rows] == [0.5, "inf"]
    assert rows[1] == {"n": 20, "epsilon": "inf", "frequency": 0.0, "bound": 0.0,
                       "bound_raw": 0.0, "runs": 3}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rate_writes_one_curve_per_truncation_level(tmp_path, fmt):
    cfg, out = tmp_path / "rkhs.cfg", tmp_path / f"curve.{fmt}"
    cfg.write_text(_RKHS_CFG + "d_test_list = 3, 5\n")
    assert main(["rate", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
    assert sorted(f.name for f in tmp_path.iterdir() if f != cfg) == [
        f"curve_dtest3.{fmt}", "curve_dtest3.meta.json", f"curve_dtest5.{fmt}", "curve_dtest5.meta.json",
    ]
    for d_test in (3, 5):
        curve = load_rate_curve(tmp_path / f"curve_dtest{d_test}.{fmt}", fmt)
        assert curve.n.tolist() == [8, 16] and np.all(curve.mean > 0.0)
        assert curve.meta["config"]["d_test_list"] == [3, 5]
    if fmt == "json":
        rows = json.loads((tmp_path / "curve_dtest3.json").read_text())
        assert [sorted(row) for row in rows] == [["mean", "n", "runs", "stderr", "wall_s"]] * 2


def test_rkhs_spectrum_json_and_stdout(tmp_path, capsys):
    args = ["rkhs-spectrum", "--sigma2", "0.25", "--w", str(0.125**0.5), "--j-max", "4"]
    out = tmp_path / "spectrum.json"
    assert main([*args, "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [row["j"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["lambda"] == pytest.approx(0.5, rel=1e-12)
    report = json.loads((tmp_path / "spectrum.report.json").read_text())
    assert report["kappa"] == pytest.approx(4.0) and "orthonormality_error" not in report
    # without --out the table and then the report go to stdout, and no file is written
    assert main(args) == 0
    text = capsys.readouterr().out
    table, summary = text.split("\n{", 1)
    assert table.splitlines()[0] == "j,lambda" and len(table.splitlines()) == 5
    assert json.loads("{" + summary) == report
    assert sorted(f.name for f in tmp_path.iterdir()) == ["spectrum.json", "spectrum.report.json"]


@pytest.mark.parametrize("p", ["1", "2"])
def test_a_nan_seed_direction_does_not_win(tmp_path, capsys, p):
    # the PCA seeds of these rows come from an overflowed scatter matrix and are NaN
    x_path, y_path, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "compute.json"
    write_samples(x_path, np.array([[1e200, 1e200], [-1e200, 5e199], [3e199, -1e200]]))
    write_samples(y_path, np.array([[-1e200, -1e200], [1e200, -4e199], [2e199, 9e199]]))
    with np.errstate(all="ignore"):
        code = main(["compute", str(x_path), str(y_path), "--p", p, "--out", str(out)])
    if p == "1":
        assert code == 0
        payload = json.loads(out.read_text())
        assert 8.5e199 < payload["value"] < 8.7e199
        assert np.all(np.isfinite(payload["argmax"])) and payload["restarts_used"] < 10
    else:
        assert code == 3
        assert "the order-2.0 distance between the samples is not finite" in capsys.readouterr().err
        assert not out.exists()


def test_an_infinite_order_exits_2(tmp_path, capsys):
    pts, cfg = tmp_path / "pts.csv", tmp_path / "inf.cfg"
    write_samples(pts, np.random.default_rng(2).normal(size=(6, 2)))
    cfg.write_text(_RATE_CFG + "p = inf\n")
    out = tmp_path / "compute.json"
    assert main(["compute", str(pts), str(pts), "--p", "inf", "--out", str(out)]) == 2
    assert "order p must be finite and >= 1, got inf" in capsys.readouterr().err
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "inf.csv")]) == 2
    assert "order p must be finite and >= 1, got inf" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["inf.cfg", "pts.csv"]


_RKHS_KEYS = {"experiment": "rkhs_rate", "distribution": "rkhs_pushforward", "sigma2": 4, "w": 1,
              "eta2": 1, "n_grid": [8, 16]}


def test_the_rkhs_spec_is_the_top_level_and_a_ratio_config_has_no_order():
    config = config_from_mapping({**_RKHS_KEYS, "d_test_list": [3, 5]})
    assert config.spec.d_test == 5 and config.d_test_list == (3, 5)
    assert config_to_dict(config)["spec"]["d_test"] == 5
    config = config_from_mapping({"experiment": "ratio_exceedance", "d": 2})
    assert config.p is None and config_to_dict(config)["p"] is None
    with pytest.raises(ConfigError, match="experiment 'ratio_exceedance' reads no p"):
        config_from_mapping({"experiment": "ratio_exceedance", "d": 2, "p": 2})
    # eps_grid is read by the ratio experiment alone, which defaults it
    assert len(config.eps_grid) == 24
    config = config_from_mapping({"experiment": "ratio_exceedance", "eps_grid": [0.5]})
    assert config.eps_grid == (0.5,)
    config = config_from_mapping({"experiment": "rate_vs_truth"})
    assert config.p == 2.0 and config.eps_grid is None
    with pytest.raises(ConfigError, match="experiment 'rate_vs_truth' reads no eps_grid"):
        config_from_mapping({"experiment": "rate_vs_truth", "eps_grid": [0.5]})


# a change to config_to_dict moves these: it has to be deliberate
@pytest.mark.parametrize("mapping,digest", [
    ({"experiment": "rate_vs_truth", "d": 2, "n_grid": [8, 16], "mc_runs": 2},
     "fc20a1957ef040505df9192fa8cfeba406c5a2102b4ba72b36344c1b49449160"),
    ({"experiment": "rate_two_sample", "distribution": "pareto_product", "shape": 8, "d": 2,
      "n_grid": [8, 16], "overlay_kind": "finite", "overlay_s": 6},
     "3f16270e6ef462b723cdf5e074dafee60a5f25cd7cbf37bda3e59231dd5a8fbe"),
    ({**_RKHS_KEYS, "d_test_list": [3, 5]},
     "93685e0197dd316b835ccef30f32af36db484bdc030898de8efa9995113517a3"),
    ({"experiment": "ratio_exceedance", "d": 2, "n_grid": [20], "mc_runs": 2},
     "c12edaf0a48c25d9c78c28bc7d0e50d7d8dc52a08a5cbcd98912aa0d2768baf9"),
    ({"experiment": "ratio_exceedance", "d": 2, "n_grid": [20], "mc_runs": 1, "eps_grid": [0.5, math.inf]},
     "39e6678d14ff81ada046d861f3fabb22a8a7d7a83d0bf99b17cf6dcee4e86d07"),
], ids=["rate_vs_truth", "pareto_overlay", "rkhs_levels", "ratio_exceedance", "infinite_threshold"])
def test_content_hash_is_pinned(mapping, digest):
    assert _meta(config_from_mapping(mapping), 1)["content_hash"] == digest


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
