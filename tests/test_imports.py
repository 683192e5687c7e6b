"""Each command imports only what it runs.

`scipy.stats` (directly, or through `scipy.signal`) costs more than the
rest of the package's imports together, and no command loads it: the
coverage study's KS p-value comes from the numpy port in
`sievereg._kolmogorov`.  Each check runs in a fresh interpreter, so
`sys.modules` starts clean.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

HEAVY = ("scipy.stats", "scipy.signal")


def loaded_after(body):
    """Run `body` in a fresh interpreter; the HEAVY modules then loaded."""
    code = textwrap.dedent(body) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_and_cli_import_no_stats_or_signal():
    assert loaded_after("import sievereg, sievereg.cli") == []


def test_iid_rate_and_ar_concentration_studies_skip_stats():
    assert loaded_after("""
        from sievereg import BasisSpec, DgpSpec, RateStudyConfig, rate_study
        rate_study(RateStudyConfig(
            dgp=DgpSpec(), basis_spec=BasisSpec.bspline(3, 2),
            n_grid=(200, 400), reps=2))
    """) == []
    assert loaded_after("""
        from sievereg import (BasisSpec, ConcentrationStudyConfig,
                              concentration_study)
        concentration_study(ConcentrationStudyConfig(
            kind="gram_deviation", n=64, reps=128, t_max=2.0, t_count=4,
            regressor="ar_copula", rho=0.7, q=8,
            basis_spec=BasisSpec.wavelet(1, 3)))
    """) == []


def test_coverage_study_run_skips_stats(tmp_path):
    cfg = tmp_path / "coverage.ini"
    cfg.write_text("[study]\nreps = 5\nn = 200\nkrule_p = 1.0\nkrule_c = 4.0\n"
                   "[functional]\nkind = point_eval\nx0 = 0.37\n"
                   "[basis]\nfamily = wavelet\nn_moments = 1\nlevel = 3\n")
    out = tmp_path / "out"
    assert loaded_after(f"""
        from sievereg.cli import run
        assert run(["coverage-study", "--config", {str(cfg)!r},
                    "--out", {str(out)!r}]) == 0
    """) == []
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert 0.0 < summary["ks_stat"] < 1.0 and 0.0 <= summary["ks_pvalue"] <= 1.0
