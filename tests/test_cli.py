import filecmp
import os

import numpy as np
import pytest

from sievereg import cli, simulate
from sievereg.cli import run


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@pytest.fixture()
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 150)
    y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(150)
    path = tmp_path / "sample.csv"
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    _write(path, "\n".join(lines) + "\n")
    return path


BASIS_BLOCK = """
[basis]
family = bspline
order = 3
n_interior = 9
"""


def test_fit_smoke(tmp_path, sample_csv, capsys):
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {sample_csv}\n{BASIS_BLOCK}")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    coeffs = np.genfromtxt(out / "coeffs.csv", delimiter=",", names=True)
    assert coeffs.shape[0] == 12
    curve = np.genfromtxt(out / "curve.csv", delimiter=",", names=True)
    assert curve.shape[0] == 512
    assert (out / "summary.json").exists()
    assert "residual rms" in capsys.readouterr().out


def test_missing_required_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    _write(cfg, f"[study]\nn_grid = 500,1000\n{BASIS_BLOCK}")
    code = run(["rate-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "`reps`" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    _write(cfg, f"[study]\nreps = 2\nn_grid = 500\nrepz = 3\n{BASIS_BLOCK}")
    code = run(["rate-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "repz" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    _write(cfg, f"[study]\nreps = 2\nn_grid = 500\n{BASIS_BLOCK}\n[mystery]\na = 1\n")
    code = run(["rate-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "mystery" in capsys.readouterr().err
    # [DEFAULT] is a section like any other: configparser would otherwise
    # drop it when empty and copy its keys into every section
    for default in ("[DEFAULT]\n", "[DEFAULT]\nseed = 3\n"):
        _write(cfg, default + GRAM.format(extra=""))
        out = tmp_path / "o"
        assert run(["gram-report", "--config", str(cfg), "--out",
                    str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config section [DEFAULT]" in err
        assert not out.exists()


def test_synthetic_oracle_rate_study(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    _write(cfg, "[study]\nreps = 3\nn_grid = 500,1000,2000,4000\nseed = 1\n"
                + BASIS_BLOCK)
    out = tmp_path / "out"
    code = run(["rate-study", "--config", str(cfg), "--out", str(out),
                "--synthetic-oracle"])
    assert code == 0
    assert "-0.39999999999999" in capsys.readouterr().out


def test_acceptance_threshold_violation_exits_3(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    _write(cfg, "[study]\nreps = 3\nn_grid = 500,1000,2000,4000\n" + BASIS_BLOCK
                + "\n[acceptance]\nslope_sup_max = -0.9\n")
    out = tmp_path / "o"
    code = run(["rate-study", "--config", str(cfg), "--out", str(out),
                "--synthetic-oracle"])
    assert code == 3
    captured = capsys.readouterr()
    assert "slope_sup_max" in captured.err
    # the outputs and the stdout table come before the failure
    import json
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["acceptance"] == {"slope_sup_max": False}
    assert (out / "detail.csv").exists()
    assert captured.out.startswith("rate-study\n")
    assert "sup slope" in captured.out


def test_idempotent_and_thread_invariant_outputs(tmp_path):
    cfg = tmp_path / "stab.ini"
    _write(cfg, "[study]\nreps = 3\nk_grid = 8\nn_grid = 400\nseed = 5\n"
                + BASIS_BLOCK)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert run(["stability-study", "--config", str(cfg), "--out",
                    str(out), "--threads", threads]) == 0
        outs.append(out)
    for other in outs[1:]:
        assert filecmp.cmp(outs[0] / "summary.json", other / "summary.json",
                           shallow=False)
        assert filecmp.cmp(outs[0] / "detail.csv", other / "detail.csv",
                           shallow=False)


def test_concentration_study_and_q_validation(tmp_path, capsys):
    base = ("[study]\nreps = 200\nt_max = 1.0\nseed = 2\n"
            "[generator]\nkind = gram_deviation\nn = 200\n"
            "regressor = ar_copula\nrho = 0.5\nq = {q}\n"
            "[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 3\n")
    good = tmp_path / "conc.ini"
    _write(good, base.format(q=10))
    out = tmp_path / "out"
    assert run(["concentration-study", "--config", str(good), "--out",
                str(out)]) == 0
    detail = np.genfromtxt(out / "detail.csv", delimiter=",", names=True)
    assert list(detail.dtype.names) == ["t", "bound", "freq", "se", "reps"]
    bad = tmp_path / "conc_bad.ini"
    _write(bad, base.format(q=150))
    assert run(["concentration-study", "--config", str(bad), "--out",
                str(tmp_path / "o2")]) == 2
    assert "`q`" in capsys.readouterr().err


def test_gram_report_outputs(tmp_path):
    cfg = tmp_path / "gram.ini"
    _write(cfg, "[gram]\ndensity = uniform\nn = 500\n"
                "[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 2\n")
    out = tmp_path / "out"
    assert run(["gram-report", "--config", str(cfg), "--out", str(out)]) == 0
    mat = np.genfromtxt(out / "gram.csv", delimiter=",", names=True)
    assert mat.shape[0] == 16  # dense 4 x 4 dump
    assert (out / "gram_emp.csv").exists()
    import json
    summary = json.loads((out / "summary.json").read_text())
    assert summary["matrices"]["gram"] == "gram.csv"
    assert "dev" in summary


def test_gram_report_2d_gram_is_kron_of_1d(tmp_path):
    # a 2-D D2 report under the sine density: the Kronecker square of the
    # 1-D report's matrix, bit for bit
    mats = []
    for dim in (1, 2):
        cfg = tmp_path / f"gram{dim}.ini"
        _write(cfg, "[gram]\ndensity = sine\namplitude = 0.4\n[basis]\n"
                    f"family = wavelet\nn_moments = 2\nlevel = 3\ndim = {dim}\n")
        out = tmp_path / f"out{dim}"
        assert run(["gram-report", "--config", str(cfg),
                    "--out", str(out)]) == 0
        table = np.genfromtxt(out / "gram.csv", delimiter=",", names=True)
        k = int(np.sqrt(table.shape[0]))
        mats.append(table["value"].reshape(k, k))
    assert mats[1].shape == (64, 64)
    assert np.array_equal(mats[1], np.kron(mats[0], mats[0]))


@pytest.mark.parametrize("row", ["0.5,", ",0.5", "0.5,nan"])
def test_fit_rejects_empty_or_non_finite_cell(tmp_path, capsys, row):
    data = tmp_path / "bad.csv"
    _write(data, "x,y\n0.1,1.0\n0.2,2.0\n" + row + "\n0.4,4.0\n")
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {data}\n{BASIS_BLOCK}")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert "data row 3" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_regressor_outside_unit_interval(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    _write(data, "x,y\n0.1,1.0\n0.2,2.0\n1.5,2\n0.4,4.0\n0.5,5.0\n")
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {data}\n{BASIS_BLOCK}")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data row 3" in err and "outside [0, 1]" in err
    assert not out.exists()


def test_fit_summary_is_strict_json_for_singular_design(tmp_path):
    # every x equal: the design has rank 1 and an infinite condition number
    data = tmp_path / "flat.csv"
    _write(data, "x,y\n" + "".join(f"0.1,{v}\n" for v in range(5)))
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {data}\n"
                "[basis]\nfamily = bspline\norder = 3\nn_interior = 2\n")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    import json
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["rank_deficient"] is True
    assert summary["cond"] is None


def test_missing_config_file(tmp_path, capsys):
    code = run(["fit", "--config", str(tmp_path / "nope.ini"), "--out",
                str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("text", [
    b"[fit]\ndata = a.csv\n[fit]\ndata = b.csv\n",
    b"[fit]\ndata = a.csv\ndata = b.csv\n",
    b"data = a.csv\n[fit]\n",
    b"[fit]\ndata\n",
    b"[fit]\ndata = \xff\xfe.csv\n",
], ids=["duplicate-section", "duplicate-key", "no-section-header",
        "no-equals", "not-utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text + BASIS_BLOCK.encode())
    out = tmp_path / "o"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(cfg) in err
    assert not out.exists()


def test_fit_one_row_csv_is_a_rank_deficient_fit(tmp_path):
    data = tmp_path / "one.csv"
    _write(data, "x,y\n0.3,1.5\n")
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {data}\n{BASIS_BLOCK}")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    import json
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["n"], summary["rank"]) == (1, 1)
    assert summary["rank_deficient"] is True and summary["cond"] is None


@pytest.mark.parametrize("kind", ["header-only", "empty", "ragged",
                                  "directory"])
def test_fit_unusable_data_file_exits_2(tmp_path, capsys, kind):
    data = tmp_path / "data.csv"
    if kind == "directory":
        data.mkdir()
    else:
        _write(data, {"header-only": "x,y\n", "empty": "",
                      "ragged": "x,y\n0.1,1.0\n0.2,2.0,3.0\n"}[kind])
    cfg = tmp_path / "fit.ini"
    _write(cfg, f"[fit]\ndata = {data}\n{BASIS_BLOCK}")
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "`data`" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-file", "empty"])
@pytest.mark.parametrize("command", ["stability-study", "gram-report"])
def test_unusable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                              command, where):
    from sievereg import cli

    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "stability_study", never)
    monkeypatch.setattr(cli, "theoretical_gram", never)
    cfg = tmp_path / "cfg.ini"
    _write(cfg, STABILITY if command == "stability-study"
           else GRAM.format(extra="n = 50\n"))
    blocker = tmp_path / "blocker"
    _write(blocker, "keep")
    out = {"file": blocker, "under-file": blocker / "sub", "empty": ""}[where]
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--out" in err
    assert blocker.read_text() == "keep"


def test_numeric_error_exit_code(tmp_path, monkeypatch, capsys):
    from sievereg import cli
    from sievereg.gram import NumericError

    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    cfg = tmp_path / "gram.ini"
    _write(cfg, "[gram]\n\n[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 2\n")
    monkeypatch.setattr(cli, "theoretical_gram", boom)
    code = run(["gram-report", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "numeric error" in capsys.readouterr().err


# [basis] comes before [generator], so that a key appended to the text
# lands in [generator]
HAAR_BLOCK = "[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 2\n"
CONCENTRATION = ("[study]\nreps = {reps}\nt_max = 1.0\nt_count = {t}\n"
                 + HAAR_BLOCK + "[generator]\nkind = gram_deviation\n"
                 "n = {n}\n")
COVERAGE = ("[study]\nreps = {reps}\nn = {n}\n"
            "[functional]\nkind = point_eval\nx0 = 0.37\n"
            "[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 3\n")


@pytest.mark.parametrize("command,text,key", [
    ("concentration-study", CONCENTRATION.format(reps=0, t=5, n=50), "reps"),
    ("concentration-study", CONCENTRATION.format(reps=-5, t=5, n=50), "reps"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=0, n=50),
     "t_count"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=0), "n"),
    ("coverage-study", COVERAGE.format(reps=0, n=400), "reps"),
    ("coverage-study", COVERAGE.format(reps=5, n=0), "n"),
    ("rate-study", f"[study]\nreps = 0\nn_grid = 500\n{BASIS_BLOCK}", "reps"),
    ("rate-study", f"[study]\nreps = 2\nn_grid = 0,500\n{BASIS_BLOCK}",
     "n_grid"),
    ("stability-study",
     f"[study]\nreps = 0\nk_grid = 8\nn_grid = 400\n{BASIS_BLOCK}", "reps"),
    ("stability-study",
     f"[study]\nreps = 2\nk_grid = 0\nn_grid = 400\n{BASIS_BLOCK}", "k_grid"),
    *(("fit", f"[fit]\ndata = missing.csv\ngrid = {v}\n{BASIS_BLOCK}", "grid")
      for v in (0, -1)),
    *(("gram-report", f"[gram]\nn = {v}\n[basis]\nfamily = wavelet\n"
       "n_moments = 1\nlevel = 2\n", "n") for v in (0, -1)),
], ids=["concentration-reps-0", "concentration-reps-neg",
        "concentration-t_count-0", "concentration-n-0", "coverage-reps-0",
        "coverage-n-0", "rate-reps-0", "rate-n_grid-0", "stability-reps-0",
        "stability-k_grid-0", "fit-grid-0", "fit-grid-neg", "gram-n-0",
        "gram-n-neg"])
def test_study_counts_and_sizes_must_be_positive(tmp_path, capsys, command,
                                                 text, key):
    # the fit's curve grid and the gram-report sample size take the
    # studies' rule too, checked first (the fit's data file is not read)
    cfg = tmp_path / "study.ini"
    _write(cfg, text)
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"`{key}`" in err and "positive integer" in err
    assert not out.exists()


RATE = "[study]\nreps = 2\nn_grid = 200\n{extra}" + BASIS_BLOCK
CONCENTRATION_AR = ("[study]\nreps = 10\nt_max = 1.0\n" + HAAR_BLOCK
                    + "[generator]\nkind = gram_deviation\nn = 50\n"
                    "regressor = {regressor}\nrho = 0.5\nq = 2\n")
GRAM = "[gram]\n{extra}[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 2\n"


RATE2 = RATE.replace("n_grid = 200", "n_grid = 200,400")
STABILITY = f"[study]\nreps = 2\nk_grid = 8\nn_grid = 400\n{BASIS_BLOCK}"


STABILITY_D2_D3 = ("[study]\nreps = 2\nk_grid = 16\nn_grid = 2000\n"
                   "[basis]\nfamily = wavelet\nn_moments = 2\n"
                   "level = 3\n[basis2]\nfamily = wavelet\nn_moments = 3\n"
                   "level = 3\n")


@pytest.mark.parametrize("command,text,named", [
    ("rate-study", RATE.format(extra="[dgp]\nregressor = foo\n"), "'foo'"),
    ("rate-study", RATE.format(extra="[dgp]\nregressor = ar_copula\n"
                                     "rho = 1.5\n"), "rho"),
    ("rate-study", RATE.format(extra="[dgp]\nerror = student_t\ndf = 2\n"),
     "df"),
    ("rate-study", RATE.format(extra="[dgp]\nh0 = nope\n"), "'nope'"),
    ("rate-study", RATE.format(extra="[dgp]\ndim = 0\n"), "`dim`"),
    ("rate-study", RATE.format(extra="") + "dim = 2\n", "`dim`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400).replace("0.37", "1.5"),
     "`x0`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nlevel = 1.5\n"), "`level`"),
    ("gram-report", GRAM.format(extra="density = foo\n"), "'foo'"),
    ("gram-report", GRAM.format(extra="density = sine\namplitude = 1.5\n"),
     "amplitude"),
    ("gram-report", GRAM.format(extra="amplitude = 0.3\n"), "`amplitude`"),
    ("concentration-study", CONCENTRATION_AR.format(regressor="foo"),
     "'foo'"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     .replace("t_max = 1.0", "t_max = -1.0"), "`t_max`"),
    ("concentration-study", CONCENTRATION_AR.format(regressor="ar_copula")
     .replace("n = 50", "n = 400").replace("q = 2", "q = 7"), "`q`"),
    ("stability-study", STABILITY_D2_D3, "`k_grid`"),
    ("rate-study", RATE.format(extra="").replace("n_interior", "n_interor"),
     "`n_interor`"),
    ("gram-report", "[gram]\n[basis]\nfamily = trig\ndegree = 2\norder = 3\n"
     "level = 9\n", "`order`"),
    ("stability-study", STABILITY_D2_D3.replace(
        "n_moments = 3\n", "n_moments = 3\ndegree = 4\n"), "`degree`"),
    ("rate-study", RATE.format(extra="threads = 0\n"), "`threads`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nthreads = -2\n"), "`threads`"),
    ("stability-study", STABILITY_D2_D3.replace("[basis]", "threads = 0\n"
                                                "[basis]"), "`threads`"),
    ("stability-study", "[study]\nreps = 2\nk_grid = 1,1001\nn_grid = 200,400\n"
     + BASIS_BLOCK, "stream key 1001"),
    ("rate-study", RATE.format(extra="[dgp]\nsigma = nan\n"), "`sigma`"),
    ("rate-study", RATE.format(extra="[dgp]\nsigma = inf\n"), "`sigma`"),
    ("rate-study", RATE.format(extra="[dgp]\nerror = student_t\n"
                                     "scale = nan\n"), "`scale`"),
    ("rate-study", RATE.format(extra="[dgp]\nerror = student_t\ndf = nan\n"),
     "`df`"),
    ("rate-study", RATE.format(extra="[dgp]\nerror = student_t\ndf = inf\n"),
     "`df`"),
    ("rate-study", RATE.format(extra="[dgp]\np = nan\n"), "`p`"),
    ("rate-study", RATE.format(extra="[dgp]\np = -0.5\n"), "`p`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400) + "[dgp]\np = 0\n",
     "`p`"),
    ("gram-report", GRAM.format(extra="seed = 3\n"), "`seed`"),
    ("stability-study", "[study]\nreps = 2\nk_grid = 8\nn_grid = 400\n"
     "lebesgue = 0\n" + BASIS_BLOCK
     + "[acceptance]\nmax_median_lebesgue = 9\n", "`lebesgue`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("point_eval", "integral"), "`x0`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("x0 = 0.37\n", "x0 = 0.37\nweight = nonsense\n"), "`weight`"),
    ("rate-study", RATE.format(extra="[dgp]\nregressor = iid_uniform\n"
                                     "rho = 0.9\n"), "`rho`"),
    ("concentration-study", CONCENTRATION_AR.format(regressor="iid_uniform"),
     "`rho`"),
    ("stability-study", STABILITY + "[dgp]\nerror = student_t\ndf = 3\n"
     "h0 = holder\n", "regressor and `dim`"),
    ("stability-study", STABILITY + "[dgp]\nregressor = ar_copula\n"
     "rho = 0.5\nh0 = holder\n", "regressor and `dim`"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     .replace(HAAR_BLOCK, ""), "missing required config section [basis]"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     + "q = 7\n", "`q` applies only under a mixing regressor"),
    ("rate-study", RATE2.format(extra="[dgp]\nerror = student_t\n"
                                      "sigma = 5\n"), "`sigma`"),
    ("rate-study", RATE2.format(extra="[dgp]\nerror = heteroskedastic\n"
                                      "sigma = 4\n"), "`sigma`"),
    ("rate-study", RATE2.format(extra="[dgp]\ndf = 7\n"), "`df`"),
    ("rate-study", RATE2.format(extra="[dgp]\nerror = gaussian\n"
                                      "scale = 9\n"), "`scale`"),
    ("rate-study", RATE2.format(extra="krule_p = 2.0\n[dgp]\n"
                                      "h0 = smooth_trig\np = 7.5\n"), "`p`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nkrule_p = 1.0\n") + "[dgp]\np = 7.5\n",
     "`p`"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     .replace("gram_deviation", "zero"), "`kind`"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     .replace("gram_deviation", "rademacher"), "`kind`"),
    ("rate-study", RATE.format(extra="[dgp]\nsigma = -1.0\n"), "`sigma`"),
    ("rate-study", RATE.format(extra="[dgp]\nerror = student_t\n"
                                     "scale = 0.0\n"), "`scale`"),
], ids=["dgp-regressor", "dgp-rho", "dgp-df", "dgp-h0", "dgp-dim",
        "basis-dim", "coverage-x0", "coverage-level", "gram-density",
        "gram-amplitude", "gram-amplitude-without-sine", "concentration-regressor", "concentration-t_max",
        "concentration-q-not-dividing-n", "stability-cells-collide",
        "basis-typo", "basis-key-of-another-family",
        "basis2-key-of-another-family", "rate-threads-0",
        "coverage-threads-neg", "stability-threads-0",
        "stability-stream-keys-collide", "dgp-sigma-nan", "dgp-sigma-inf",
        "dgp-scale-nan", "dgp-df-nan", "dgp-df-inf", "dgp-p-nan",
        "dgp-p-neg", "coverage-dgp-p-0", "gram-seed-without-n",
        "stability-lebesgue-threshold-without-lebesgue",
        "coverage-x0-on-integral", "coverage-weight-key", "dgp-rho-on-iid",
        "generator-rho-on-iid", "stability-dgp-error-law",
        "stability-dgp-target", "concentration-without-basis",
        "concentration-q-without-mixing", "dgp-sigma-on-student_t",
        "dgp-sigma-on-heteroskedastic", "dgp-df-on-gaussian",
        "dgp-scale-on-gaussian", "rate-p-unread", "coverage-p-unread",
        "concentration-kind-zero", "concentration-kind-rademacher",
        "dgp-sigma-neg",
        "dgp-scale-0"])
def test_rejected_config_values_exit_2(tmp_path, capsys, command, text,
                                       named):
    # values that the library specs and study configs reject
    cfg = tmp_path / "bad.ini"
    _write(cfg, text)
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not out.exists()


RATE0 = RATE.format(extra="")


@pytest.mark.parametrize("command,text,named", [
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 200\nseed = -3"),
     "`seed`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nseed = -3\n"), "`seed`"),
    ("stability-study", STABILITY.replace("n_grid = 400", "n_grid = 400\n"
                                          "seed = -3"), "`seed`"),
    ("concentration-study", CONCENTRATION.format(reps=10, t=5, n=50)
     .replace("t_count = 5", "t_count = 5\nseed = -3"), "`seed`"),
    ("gram-report", GRAM.format(extra="n = 50\nseed = -3\n"), "`seed`"),
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 1,200"), "`n_grid`"),
    ("coverage-study", COVERAGE.format(reps=5, n=1), "`n`"),
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 200\nkrule_c = -1"),
     "`krule_c`"),
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 200\nkrule_c = nan"),
     "`krule_c`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nkrule_c = 0\n"), "`krule_c`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nkrule_c = inf\n"), "`krule_c`"),
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 200\nkrule_p = -0.5"),
     "`krule_p`"),
    ("rate-study", RATE0.replace("n_grid = 200", "n_grid = 200\nkrule_p = -2"),
     "`krule_p`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nkrule_p = nan\n"), "`krule_p`"),
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     .replace("n = 400\n", "n = 400\nkrule_p = 0\n"), "`krule_p`"),
], ids=["rate-seed", "coverage-seed", "stability-seed", "concentration-seed",
        "gram-seed", "rate-n_grid-1", "coverage-n-1", "rate-krule_c-neg",
        "rate-krule_c-nan", "coverage-krule_c-0", "coverage-krule_c-inf",
        "rate-krule_p-neg-half", "rate-krule_p-neg", "coverage-krule_p-nan",
        "coverage-krule_p-0"])
def test_negative_seed_short_samples_and_bad_krule_c_exit_2(
        tmp_path, capsys, command, text, named):
    cfg = tmp_path / "bad.ini"
    _write(cfg, text)
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not out.exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "gram.ini"
    _write(cfg, GRAM.format(extra="n = 50\n"))
    out = tmp_path / "o"
    assert run(["gram-report", "--config", str(cfg), "--out", str(out),
                "--seed", "-1"]) == 2
    assert "`seed`" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_flag_below_one_exits_2(tmp_path, capsys, threads):
    # 0 is a value like any other, not "unset"
    cfg = tmp_path / "rate.ini"
    _write(cfg, RATE0)
    out = tmp_path / "o"
    assert run(["rate-study", "--config", str(cfg), "--out", str(out),
                "--synthetic-oracle", "--threads", threads]) == 2
    assert "`threads`" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_grid", ["200", "2000", "2000,2000"])
@pytest.mark.parametrize("oracle", [[], ["--synthetic-oracle"]])
def test_rate_grid_of_one_size_exits_2_before_any_work(tmp_path, capsys,
                                                       n_grid, oracle):
    # one distinct size leaves no log-log slope to fit
    cfg = tmp_path / "rate.ini"
    _write(cfg, RATE0.replace("n_grid = 200", f"n_grid = {n_grid}"))
    out = tmp_path / "o"
    assert run(["rate-study", "--config", str(cfg), "--out", str(out),
                *oracle]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "`n_grid`" in err
    assert not out.exists()


def test_run_works_without_mallopt(tmp_path, monkeypatch):
    # a libc without mallopt (not glibc) keeps its own heap thresholds; the
    # study sets them, so the CLI run reaches the lookup through it
    class NoMallopt:
        def __getattr__(self, name):
            raise AttributeError(name)

    looked_up = []

    def cdll(name):
        looked_up.append(name)
        return NoMallopt()

    monkeypatch.setattr(simulate.ctypes, "CDLL", cdll)
    cfg = tmp_path / "rate.ini"
    _write(cfg, RATE2.format(extra=""))
    assert run(["rate-study", "--config", str(cfg), "--out",
                str(tmp_path / "o"), "--synthetic-oracle"]) == 0
    assert looked_up == [None]
    assert (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("command,flag", [
    ("fit", "--seed"), ("fit", "--threads"), ("gram-report", "--threads"),
    ("gram-report", "--seed"), ("concentration-study", "--threads")])
def test_flag_that_no_config_key_takes_exits_2(tmp_path, capsys, sample_csv,
                                              command, flag):
    # a flag must change the run or be refused, never be dropped (without
    # `n`, gram-report draws no sample to seed)
    text = {"fit": f"[fit]\ndata = {sample_csv}\n{BASIS_BLOCK}",
            "gram-report": GRAM.format(extra=""),
            "concentration-study": CONCENTRATION.format(reps=10, t=5, n=50)}
    cfg = tmp_path / "cfg.ini"
    _write(cfg, text[command])
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out),
                flag, "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"`{flag}`" in err
    assert not out.exists()


def test_fit_grid_key_on_2d_fit_exits_2(tmp_path, capsys):
    # a 2-D fit writes no curve, so its `grid` would be dropped
    rng = np.random.default_rng(1)
    rows = [f"{a!r},{b!r},{a + b!r}"
            for a, b in rng.uniform(0, 1, (60, 2)).tolist()]
    data = tmp_path / "xy.csv"
    _write(data, "\n".join(["x1,x2,y", *rows]) + "\n")
    text = (f"[fit]\ndata = {data}\n{{grid}}[basis]\nfamily = bspline\n"
            "order = 2\nn_interior = 1\ndim = 2\n")
    cfg, out = tmp_path / "fit.ini", tmp_path / "o"
    _write(cfg, text.format(grid="grid = 100\n"))
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "`grid`" in err
    assert not out.exists()
    _write(cfg, text.format(grid=""))
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "curve.csv").exists()


def test_stability_dgp_key_at_its_default_runs(tmp_path):
    # the study reads only the regressor and `dim`; like every rule inside
    # a spec, its refusal of the other DGP fields spares a default value
    cfg, out = tmp_path / "stab.ini", tmp_path / "o"
    _write(cfg, STABILITY + "[dgp]\nerror = gaussian\nh0 = smooth_trig\n")
    assert run(["stability-study", "--config", str(cfg),
                "--out", str(out)]) == 0


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DEMO_CONFIGS) if f.endswith(".ini")))
def test_demo_configs_build_their_library_configs(name, monkeypatch):
    # every key of a shipped config must be a field of its library config;
    # the study itself is not run: a recorder stands in for it
    from sievereg import cli
    from sievereg.basis import BasisSpec
    from sievereg.concentration import ConcentrationStudyConfig
    from sievereg.simulate import (CoverageStudyConfig, RateStudyConfig,
                                   StabilityStudyConfig)

    command = name[:-len(".ini")].replace("_", "-")
    args = cli.build_parser().parse_args(
        [command, "--config", os.path.join(DEMO_CONFIGS, name), "--out", "-"])
    cfg = cli._read_config(args)
    expected = {"rate-study": RateStudyConfig,
                "coverage-study": CoverageStudyConfig,
                "stability-study": StabilityStudyConfig,
                "concentration-study": ConcentrationStudyConfig}
    if command in expected:
        class Recorded(Exception):
            pass

        def record(config):
            raise Recorded(config)

        monkeypatch.setattr(cli, command.replace("-", "_"), record)
        with pytest.raises(Recorded) as seen:
            cli._COMMANDS[command][1](cfg, args)()
        assert isinstance(seen.value.args[0], expected[command])
    else:
        assert isinstance(BasisSpec(**cfg["basis"]), BasisSpec)


@pytest.mark.parametrize("command,text,key", [
    ("coverage-study", COVERAGE.format(reps=5, n=400)
     + "[acceptance]\ncoverage_min = nan\n", "coverage_min"),
    ("rate-study", RATE2.format(extra="")
     + "[acceptance]\nslope_sup_max = inf\n", "slope_sup_max"),
    ("stability-study", STABILITY
     + "[acceptance]\nmax_median_lebesgue = -inf\n", "max_median_lebesgue"),
], ids=["coverage-nan", "rate-inf", "stability-neg-inf"])
def test_non_finite_acceptance_threshold_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, text, key):
    # a NaN threshold fails every comparison: the study would run to the
    # end and report a violation that no result could avoid
    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, command.replace("-", "_"), never)
    cfg, out = tmp_path / "cfg.ini", tmp_path / "o"
    _write(cfg, text)
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"`{key}`" in err
    assert not out.exists()


# every command's config keys, `*` marking a required key: the schema is
# read off library signatures, so a renamed field must fail here instead
# of renaming a key of every user's config
BASIS_KEYS = "family* dim order n_interior n_moments level degree"
DGP_KEYS = "regressor rho error sigma df scale h0 p dim"
CONFIG_KEYS = {
    "fit": {"fit": "data* grid", "basis": BASIS_KEYS},
    "rate-study": {
        "study": "reps* n_grid* seed krule_c krule_p threads",
        "dgp": DGP_KEYS, "basis": BASIS_KEYS,
        "acceptance": "slope_sup_min slope_sup_max slope_l2_min "
                      "slope_l2_max"},
    "coverage-study": {
        "study": "reps* n* level seed krule_c krule_p threads",
        "functional": "kind* x0", "dgp": DGP_KEYS, "basis": BASIS_KEYS,
        "acceptance": "coverage_min coverage_max ks_alpha"},
    "stability-study": {
        "study": "reps* k_grid* n_grid* seed threads", "dgp": DGP_KEYS,
        "basis": BASIS_KEYS, "basis2": BASIS_KEYS, "basis3": BASIS_KEYS,
        "acceptance": "max_median_lebesgue"},
    "concentration-study": {
        "study": "reps* t_max* t_count seed",
        "generator": "kind* n* regressor rho q", "basis": BASIS_KEYS,
        "acceptance": "max_violations"},
    "gram-report": {"gram": "density amplitude n seed", "basis": BASIS_KEYS},
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_are_pinned(command):
    pinned = {(section, key.rstrip("*"), key.endswith("*"))
              for section, keys in CONFIG_KEYS[command].items()
              for key in keys.split()}
    accepted = {(section, key, required)
                for section, keys in cli._COMMANDS[command][0].items()
                for key, (required, _) in keys.items()}
    assert accepted == pinned
    assert sorted(cli._COMMANDS) == sorted(CONFIG_KEYS)


def test_commands_match_demo_configs():
    # one demo config per command, so that running every demo config (as
    # CI does) runs every command's work and writer
    stems = {f[:-len(".ini")].replace("_", "-")
             for f in os.listdir(DEMO_CONFIGS) if f.endswith(".ini")}
    assert set(cli._COMMANDS) == stems
