"""Workload table and correctness gates of the benchmark.

Each workload is one or more *variants*: an INI config for one
`sievereg.cli.run` study command.  One child process runs one variant at
the workload's size.  The first round of a run uses each variant's pinned
anchor seed (the acceptance suite's seed), whose outputs are compared with
values recorded on the seed commit (``reference.json``) and held to the
paper's windows exactly.  Later rounds take seeds derived from the
benchmark's ``--seed``; a single such child is a small Monte Carlo sample,
so its windows are widened by five standard deviations: binomial for
coverage, and for slopes and Lebesgue constants the across-seed spread
measured on the seed commit (``seeded_margin`` in ``reference.json``).
The KS test is held on anchors only: at a fixed level it fails on a fixed
share of random seeds.
"""

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

_COVERAGE = """[study]
reps = {reps}
n = 2000
level = 0.95
seed = {seed}
krule_p = 1.0
krule_c = 10.0
[functional]
kind = {kind}
x0 = 0.37
[dgp]
h0 = holder
p = 1.5
[basis]
family = wavelet
n_moments = 1
level = 4
"""

_RATE = """[study]
reps = {reps}
n_grid = 2000,4000,8000,16000,32000
seed = {seed}
krule_c = 4.0
krule_p = 2.0
[dgp]
{dgp}
[basis]
family = bspline
order = 3
n_interior = 2
"""

_STABILITY = """[study]
reps = {reps}
k_grid = 16,64,128
n_grid = 20000
seed = {seed}
[dgp]
regressor = ar_copula
rho = 0.7
[basis]
family = bspline
order = 3
n_interior = 5
[basis2]
family = wavelet
n_moments = 2
level = 3
[basis3]
family = power
degree = 3
"""

_TAIL = """[study]
reps = {reps}
t_max = 2.4
t_count = 20
seed = {seed}
[generator]
kind = gram_deviation
n = 400
regressor = ar_copula
rho = 0.7
q = 8
[basis]
family = wavelet
n_moments = 1
level = 5
"""


@dataclass(frozen=True)
class Variant:
    name: str
    command: str
    template: str
    anchor_seed: int
    fields: tuple = ()

    def ini(self, seed, reps):
        return self.template.format(seed=seed, reps=reps, **dict(self.fields))


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple
    reps: int            # the study's `reps` at full size
    smoke_reps: int
    units_per_rep: int   # replications per unit of `reps` (n or (family, K) grid)
    pool_threads: int    # 0: the command has no replication pool
    min_rounds: int

    def argv(self, variant, config, out, threads):
        argv = [variant.command, "--config", config, "--out", out]
        return argv + (["--threads", str(threads)] if threads else [])


WORKLOADS = {w.name: w for w in (
    Workload("coverage_haar", (
        Variant("point", "coverage-study", _COVERAGE, 42,
                (("kind", "point_eval"),)),
        Variant("exp", "coverage-study", _COVERAGE, 42,
                (("kind", "nonlinear_exp_eval"),)),
    ), reps=300, smoke_reps=20, units_per_rep=1, pool_threads=2,
        min_rounds=1),
    Workload("rate_spline", (
        Variant("iid_gauss", "rate-study", _RATE, 42,
                (("dgp", "regressor = iid_uniform\nerror = gaussian"),)),
        Variant("ar_t3", "rate-study", _RATE, 42,
                (("dgp", "regressor = ar_copula\nrho = 0.7\n"
                         "error = student_t\ndf = 3"),)),
    ), reps=40, smoke_reps=2, units_per_rep=5, pool_threads=2,
        min_rounds=1),
    Workload("stability_lebesgue", (
        Variant("c7", "stability-study", _STABILITY, 77),
    ), reps=2, smoke_reps=1, units_per_rep=9, pool_threads=2, min_rounds=1),
    Workload("tail_gram", (
        Variant("ar_q8", "concentration-study", _TAIL, 59),
    ), reps=10000, smoke_reps=500, units_per_rep=1, pool_threads=0,
        min_rounds=2),
)}


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Output parsing


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity (RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def _detail_column(out_dir, column):
    with open(os.path.join(out_dir, "detail.csv")) as fh:
        header = fh.readline().strip().split(",")
        idx = header.index(column)
        return [float(line.split(",")[idx]) for line in fh if line.strip()]


def extract(workload, summary, out_dir):
    """The values compared with the seed commit's reference, by name."""
    s = summary["summary"]
    if workload == "coverage_haar":
        keys = ("coverage", "ks_pvalue", "mean_ci_length", "f0",
                "degenerate", "k")
        return {k: s[k] for k in keys}
    if workload == "rate_spline":
        out = {"slope_sup": s["slope_sup"], "slope_l2": s["slope_l2"]}
        for i, n in enumerate(s["n_grid"]):
            out[f"median_sup.{n}"] = s["median_sup"][i]
            out[f"median_l2.{n}"] = s["median_l2"][i]
        return out
    if workload == "stability_lebesgue":
        out = {}
        for m in s["medians"]:
            key = f"{m['family']}.{m['k']}"
            out[key + ".dev"] = m["dev"]
            out[key + ".lebesgue"] = m["lebesgue_empirical"]
            out[key + ".rank_deficient"] = m["rank_deficient"]
        return out
    out = {"violations": s["violations"]}
    for i, f in enumerate(_detail_column(out_dir, "freq")):
        out[f"freq.{i}"] = f
    return out


def failed_reps(workload, out_dir):
    """Replications the study itself reports as failed."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        s = strict_json(fh.read())["summary"]
    if workload == "coverage_haar":
        return int(s["degenerate"])
    if workload == "stability_lebesgue":
        return sum(int(m["rank_deficient"]) for m in s["medians"])
    return 0


def _windows(workload, variant, summary, reps, exact, ref):
    """Problems with the paper windows the workload mirrors.

    exact=False widens them for a small sample (see the module docstring).
    """
    s = summary["summary"]
    win = ref["windows"]
    problems = []

    def check(name, value, lo, hi):
        if not (value is not None and lo <= value <= hi):
            problems.append(f"{name}={value} outside [{lo}, {hi}]")

    if workload == "coverage_haar":
        lo, hi = win["coverage"]
        if not exact:
            se = math.sqrt(0.95 * 0.05 / reps)
            lo, hi = lo - 5.0 * se, hi + 5.0 * se
        check("coverage", s["coverage"], lo, hi)
        if exact and variant == "point":
            check("ks_pvalue", s["ks_pvalue"], win["ks_pvalue_min"], 1.0)
    elif workload == "rate_spline":
        lo, hi = win["rate_slope"]
        if not exact:
            pad = ref["seeded_margin"]["rate_slope"] * math.sqrt(
                ref["seeded_margin"]["rate_slope_reps"] / reps)
            lo, hi = lo - pad, hi + pad
        check("slope_sup", s["slope_sup"], lo, hi)
        check("slope_l2", s["slope_l2"], lo, hi)
    elif workload == "stability_lebesgue":
        cap = win["lebesgue_local_max"]
        if not exact:
            cap += ref["seeded_margin"]["lebesgue_local_max"]
        power = {}
        for m in s["medians"]:
            if m["family"] == "power":
                power[m["k"]] = m["lebesgue_empirical"]
            else:
                check(f"lebesgue {m['family']} K={m['k']}",
                      m["lebesgue_empirical"], 0.0, cap)
        ratio = power[max(power)] / power[min(power)]
        floor = win["power_growth_min"] if exact else 1.0
        check("power lebesgue growth", ratio, floor, math.inf)
    else:
        check("violations", s["violations"], 0, win["tail_violations_max"])
    return problems


def gate(workload, variant, out_dir, seed, reps, anchor, full_size, ref):
    """Correctness gate for one child's outputs; returns a list of problems.

    The summary must parse as strict JSON and describe the configured run;
    the paper windows must hold (exactly for a full-size anchor, widened
    otherwise); an anchor child must also agree with the
    seed commit's values to the tolerance in ``reference.json``, which
    allows last-digit changes (another factorization, another BLAS thread
    count) but not a changed result.
    """
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = strict_json(fh.read())
        cfg = summary["config"]
        if cfg["seed"] != seed:
            return [f"summary config seed {cfg['seed']} != {seed}"]
        reported = summary["summary"].get("reps", cfg.get("reps"))
        if reported != reps:
            return [f"summary reps {reported} != {reps}"]
        problems = _windows(workload, variant, summary, reps,
                            anchor and full_size, ref)
        if anchor:
            expected = ref["values"].get(f"{workload}.{variant}.{reps}")
            if expected is None:
                return problems + [f"no reference for {variant} at reps={reps}"]
            problems += compare(expected, extract(workload, summary, out_dir),
                                ref["tolerance"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"summary.json: {exc!r}"]
    return problems


def compare(expected, actual, tol):
    """Names whose values differ beyond rtol/atol (counts must match exactly)."""
    problems = []
    if set(expected) != set(actual):
        return [f"reference keys differ: {sorted(set(expected) ^ set(actual))}"]
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, (bool, int)) and isinstance(got, (bool, int)):
            ok = int(want) == int(got)
        else:
            ok = (got is not None and math.isfinite(got)
                  and abs(got - want) <= tol["atol"] + tol["rtol"] * abs(want))
        if not ok:
            problems.append(f"{key}: {got} differs from reference {want}")
    return problems
