"""Command-line driver: fits, studies, and Gram diagnostics.

Commands read a flat INI config (sections mirror the library modules) and
write ``summary.json`` plus ``detail.csv`` (and matrix CSVs where relevant)
into the output directory.  Unknown config keys are hard errors.  Exit
codes: 0 success, 2 config error, 3 embedded acceptance threshold violated,
4 numeric failure.
"""

import argparse
import configparser
import os
import sys
from operator import ge, gt, itemgetter, le

import numpy as np

from .basis import BasisSpec, ConfigurationError, build_basis
from .concentration import (GramDeviationGenerator, RademacherGenerator,
                            TailBoundInput, ZeroGenerator, empirical_tail,
                            mixing_bound, tropp_bound)
from .daubechies import CascadeError
from .estimator import fit as fit_ls
from .gram import NumericError, empirical_gram, theoretical_gram
from .inference import FunctionalSpec
from .quadrature import density_by_name, sup_grid
from .reporting import (fmt, write_detail_csv, write_matrix_csv,
                        write_report, write_summary_json)
from .simulate import (CoverageStudyConfig, DgpSpec, ErrorSpec,
                       RateStudyConfig, RegressorSpec, StabilityStudyConfig,
                       StudyReport, coverage_study, rate_study,
                       stability_study)


class AcceptanceFailure(RuntimeError):
    """An acceptance threshold embedded in the config was violated."""


_COMMANDS = ("fit", "rate-study", "coverage-study", "stability-study",
             "concentration-study", "gram-report")


def _positive_int(raw):
    """Parser of counts and sample sizes: an integer >= 1."""
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _positive_ints(raw):
    """Parser of a comma-separated grid of sizes, each an integer >= 1."""
    return tuple(_positive_int(v) for v in raw.split(",") if v.strip())


# section -> key -> (required, parser); sections themselves may be optional
_BASIS_KEYS = {"family": (True, str), "dim": (False, int),
               "order": (False, int), "n_interior": (False, int),
               "n_moments": (False, int), "level": (False, int),
               "degree": (False, int)}
_DGP_KEYS = {"regressor": (False, str), "rho": (False, float),
             "error": (False, str), "sigma": (False, float),
             "df": (False, float), "scale": (False, float),
             "h0": (False, str), "p": (False, float), "dim": (False, int)}

# command -> [acceptance] key -> (parser, summary value, passes(value, threshold))
_ACCEPTANCE = {
    "rate-study": {
        "slope_sup_min": (float, itemgetter("slope_sup"), ge),
        "slope_sup_max": (float, itemgetter("slope_sup"), le),
        "slope_l2_min": (float, itemgetter("slope_l2"), ge),
        "slope_l2_max": (float, itemgetter("slope_l2"), le),
    },
    "coverage-study": {
        "coverage_min": (float, itemgetter("coverage"), ge),
        "coverage_max": (float, itemgetter("coverage"), le),
        "ks_alpha": (float, itemgetter("ks_pvalue"), gt),
    },
    "stability-study": {
        "max_median_lebesgue": (
            float,
            lambda summary: max(m["lebesgue_empirical"]
                                for m in summary["medians"]),
            le),
    },
    "concentration-study": {
        "max_violations": (int, itemgetter("violations"), le),
    },
}


def _acceptance_section(command):
    """Schema entry of the optional [acceptance] section, from the table."""
    table = _ACCEPTANCE[command]
    return {key: (False, parse) for key, (parse, _, _) in table.items()}, False


_SCHEMAS = {
    "fit": {
        "fit": ({"data": (True, str), "grid": (False, _positive_int)}, True),
        "basis": (_BASIS_KEYS, True),
    },
    "rate-study": {
        "study": ({"reps": (True, _positive_int),
                   "n_grid": (True, _positive_ints), "seed": (False, int),
                   "krule_c": (False, float), "krule_p": (False, float),
                   "threads": (False, int)}, True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
        "acceptance": _acceptance_section("rate-study"),
    },
    "coverage-study": {
        "study": ({"reps": (True, _positive_int), "n": (True, _positive_int),
                   "level": (False, float), "seed": (False, int),
                   "krule_c": (False, float), "krule_p": (False, float),
                   "threads": (False, int)}, True),
        "functional": ({"kind": (True, str), "x0": (False, str),
                        "weight": (False, str)}, True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
        "acceptance": _acceptance_section("coverage-study"),
    },
    "stability-study": {
        "study": ({"reps": (True, _positive_int),
                   "k_grid": (True, _positive_ints),
                   "n_grid": (True, _positive_ints), "seed": (False, int),
                   "threads": (False, int), "lebesgue": (False, int)}, True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
        "basis2": (_BASIS_KEYS, False),
        "basis3": (_BASIS_KEYS, False),
        "acceptance": _acceptance_section("stability-study"),
    },
    "concentration-study": {
        "study": ({"reps": (True, _positive_int), "t_max": (True, float),
                   "t_count": (False, _positive_int),
                   "seed": (False, int)}, True),
        "generator": ({"kind": (True, str), "n": (True, _positive_int),
                       "regressor": (False, str), "rho": (False, float),
                       "q": (False, int)}, True),
        "basis": (_BASIS_KEYS, False),
        "acceptance": _acceptance_section("concentration-study"),
    },
    "gram-report": {
        "gram": ({"density": (False, str), "amplitude": (False, float),
                  "n": (False, _positive_int), "seed": (False, int)}, True),
        "basis": (_BASIS_KEYS, True),
    },
}


def _read_config(path, command):
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(path)
    schema = _SCHEMAS[command]
    out = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigurationError(
                f"unknown config section [{section}] for command {command}")
        keys, _required = schema[section]
        block = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigurationError(
                    f"unknown config key `{key}` in section [{section}]")
            _, parse = keys[key]
            try:
                block[key] = parse(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"config key `{key}` in [{section}]: {exc}") from exc
        out[section] = block
    for section, (keys, required) in schema.items():
        if section not in out:
            if required:
                raise ConfigurationError(
                    f"missing required config section [{section}]")
            continue
        for key, (req, _) in keys.items():
            if req and key not in out[section]:
                raise ConfigurationError(
                    f"missing required config key `{key}` in [{section}]")
    return out


def _basis_spec(block):
    return BasisSpec.from_config({k: str(v) for k, v in block.items()})


def _dgp_spec(block, default_p=2.0):
    reg = RegressorSpec(kind=block.get("regressor", "iid_uniform"),
                        rho=block.get("rho", 0.0))
    err = ErrorSpec(kind=block.get("error", "gaussian"),
                    sigma=block.get("sigma", 1.0),
                    df=block.get("df", 3.0),
                    scale=block.get("scale", 1.0))
    return DgpSpec(regressor=reg, error=err,
                   h0_name=block.get("h0", "smooth_trig"),
                   smoothness=block.get("p", default_p),
                   dim=block.get("dim", 1))


def _functional_spec(block, dim):
    kind = block["kind"]
    if kind in ("point_eval", "nonlinear_exp_eval"):
        if "x0" not in block:
            raise ConfigurationError(
                "missing required config key `x0` in [functional]")
        x0 = np.array([float(v) for v in str(block["x0"]).split(",")])
        if x0.size != dim:
            raise ConfigurationError(
                f"config key `x0` has {x0.size} coordinates, expected {dim}")
        if kind == "point_eval":
            return FunctionalSpec.point_eval(x0)
        return FunctionalSpec.nonlinear_exp_eval(x0)
    if kind == "integral":
        name = block.get("weight", "one")
        if name != "one":
            raise ConfigurationError(
                f"config key `weight`: unknown weight {name!r} (only 'one')")
        return FunctionalSpec.integral(lambda pts: np.ones(pts.shape[0]))
    raise ConfigurationError(f"config key `kind`: unknown functional {kind!r}")


def _print_table(title, pairs):
    width = max(len(k) for k, _ in pairs)
    print(title)
    for key, val in pairs:
        print(f"  {key:<{width}}  {val}")


def _cmd_fit(cfg, out_dir, args):
    spec = _basis_spec(cfg["basis"])
    path = cfg["fit"]["data"]
    if not os.path.exists(path):
        raise ConfigurationError(f"config key `data`: file not found: {path}")
    table = np.genfromtxt(path, delimiter=",", names=True)
    names = list(table.dtype.names)
    if len(names) != spec.dim + 1:
        raise ConfigurationError(
            f"config key `data`: {len(names)} columns, expected "
            f"{spec.dim} regressors + 1 response")
    x = np.column_stack([table[c] for c in names[:-1]])
    y = np.asarray(table[names[-1]], dtype=float)
    finite = np.all(np.isfinite(x), axis=1) & np.isfinite(y)
    inside = np.all((x >= 0.0) & (x <= 1.0), axis=1)
    bad = ~(finite & inside)
    if np.any(bad):
        row = int(np.argmax(bad))
        problem = ("an empty or non-finite cell" if not finite[row]
                   else "a regressor outside [0, 1]")
        raise ConfigurationError(
            f"config key `data`: data row {row + 1} has {problem}")
    basis = build_basis(spec)
    result = fit_ls(basis, x, y)
    os.makedirs(out_dir, exist_ok=True)
    write_detail_csv(os.path.join(out_dir, "coeffs.csv"), ["k", "value"],
                     list(enumerate(result.coeffs)))
    n_grid = cfg["fit"].get("grid", 512)
    if spec.dim == 1:
        grid = np.linspace(0.0, 1.0, n_grid).reshape(-1, 1)
        curve = result.predict(grid)
        write_detail_csv(os.path.join(out_dir, "curve.csv"), ["x", "value"],
                         list(zip(grid[:, 0], curve)))
    summary = {
        "kind": "fit", "n": int(y.size), "k": basis.size,
        "rank": result.rank, "rank_deficient": result.rank_deficient,
        "cond": result.cond,
        "residual_rms": float(np.sqrt(np.mean(result.residuals ** 2))),
    }
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    _print_table("fit", [("n", y.size), ("K", basis.size),
                         ("rank", result.rank),
                         ("residual rms", fmt(summary["residual_rms"]))])
    return 0


def _acceptance(command, cfg, summary):
    """Evaluate the config's [acceptance] thresholds into summary["acceptance"]."""
    checks = {}
    for key, threshold in cfg.get("acceptance", {}).items():
        _, value, passes = _ACCEPTANCE[command][key]
        checks[key] = bool(passes(value(summary), threshold))
    summary["acceptance"] = checks
    return checks


def _check(checks):
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AcceptanceFailure(
            "acceptance threshold violated: " + ", ".join(sorted(failed)))


def _cmd_rate_study(cfg, out_dir, args):
    study = cfg["study"]
    dgp = _dgp_spec(cfg.get("dgp", {}))
    config = RateStudyConfig(
        dgp=dgp,
        basis_spec=_basis_spec(cfg["basis"]),
        n_grid=study["n_grid"],
        reps=study["reps"],
        krule_c=study.get("krule_c", 1.0),
        krule_p=study.get("krule_p"),
        seed=args.seed if args.seed is not None else study.get("seed", 0),
        threads=args.threads if args.threads else study.get("threads", 1),
        synthetic_oracle=bool(getattr(args, "synthetic_oracle", False)),
    )
    report = rate_study(config)
    summary = report.summary
    checks = _acceptance("rate-study", cfg, summary)
    report.config = {"seed": config.seed, "reps": config.reps,
                     "krule_c": config.krule_c,
                     "synthetic_oracle": config.synthetic_oracle}
    write_report(report, out_dir)
    _print_table("rate-study", [
        ("n grid", ",".join(str(n) for n in config.n_grid)),
        ("sup slope", fmt(summary["slope_sup"])),
        ("L2 slope", fmt(summary["slope_l2"])),
        ("sup slope R2", fmt(summary["slope_sup_r2"])),
        ("rank-deficient fits", summary["rank_deficient"]),
        ("max cond", fmt(summary["max_cond"])),
    ])
    _check(checks)
    return 0


def _cmd_coverage_study(cfg, out_dir, args):
    study = cfg["study"]
    dgp = _dgp_spec(cfg.get("dgp", {}))
    functional = _functional_spec(cfg["functional"], dgp.dim)
    config = CoverageStudyConfig(
        dgp=dgp,
        basis_spec=_basis_spec(cfg["basis"]),
        n=study["n"],
        functional=functional,
        reps=study["reps"],
        level=study.get("level", 0.95),
        krule_c=study.get("krule_c", 1.0),
        krule_p=study.get("krule_p"),
        seed=args.seed if args.seed is not None else study.get("seed", 0),
        threads=args.threads if args.threads else study.get("threads", 1),
    )
    report = coverage_study(config)
    summary = report.summary
    checks = _acceptance("coverage-study", cfg, summary)
    report.config = {"seed": config.seed, "reps": config.reps, "n": config.n,
                     "functional": functional.kind}
    write_report(report, out_dir)
    _print_table("coverage-study", [
        ("n / K", f"{summary['n']} / {summary['k']}"),
        ("coverage", fmt(summary["coverage"])),
        ("mean CI length", fmt(summary["mean_ci_length"])),
        ("KS p-value", fmt(summary["ks_pvalue"])),
        ("degenerate reps", summary["degenerate"]),
    ])
    _check(checks)
    return 0


def _cmd_stability_study(cfg, out_dir, args):
    study = cfg["study"]
    dgp = _dgp_spec(cfg.get("dgp", {}))
    specs = [_basis_spec(cfg["basis"])]
    for extra in ("basis2", "basis3"):
        if extra in cfg:
            specs.append(_basis_spec(cfg[extra]))
    config = StabilityStudyConfig(
        dgp=dgp,
        basis_specs=tuple(specs),
        k_grid=study["k_grid"],
        n_grid=study["n_grid"],
        reps=study["reps"],
        seed=args.seed if args.seed is not None else study.get("seed", 0),
        threads=args.threads if args.threads else study.get("threads", 1),
        lebesgue=bool(study.get("lebesgue", 1)),
    )
    report = stability_study(config)
    summary = report.summary
    checks = _acceptance("stability-study", cfg, summary)
    report.config = {"seed": config.seed, "reps": config.reps}
    write_report(report, out_dir)
    rows = [(f"{m['family']} K={m['k']} n={m['n']}",
             f"dev={fmt(m['dev'])} leb={fmt(m['lebesgue_empirical'])}")
            for m in summary["medians"][:12]]
    _print_table("stability-study", rows or [("rows", "0")])
    _check(checks)
    return 0


def _cmd_concentration_study(cfg, out_dir, args):
    study = cfg["study"]
    gen_cfg = cfg["generator"]
    seed = args.seed if args.seed is not None else study.get("seed", 0)
    n = gen_cfg["n"]
    kind = gen_cfg["kind"]
    reg = RegressorSpec(kind=gen_cfg.get("regressor", "iid_uniform"),
                        rho=gen_cfg.get("rho", 0.0))
    if kind == "gram_deviation":
        if "basis" not in cfg:
            raise ConfigurationError(
                "missing required config section [basis] for gram_deviation")
        basis = build_basis(_basis_spec(cfg["basis"]))
        gram_th = theoretical_gram(basis, density_by_name("uniform",
                                                          basis.spec.dim))
        generator = GramDeviationGenerator(basis, gram_th, n, regressor=reg)
    elif kind == "rademacher":
        generator = RademacherGenerator(n)
    elif kind == "zero":
        generator = ZeroGenerator(n)
    else:
        raise ConfigurationError(f"config key `kind`: unknown generator {kind!r}")
    t_count = study.get("t_count", 20)
    t_grid = np.linspace(0.0, study["t_max"], t_count)
    mixing = reg.kind == "ar_copula" and reg.rho != 0.0
    q = gen_cfg.get("q", 1)
    if mixing and not 1 <= q <= n // 2:
        raise ConfigurationError(
            f"config key `q` must be in [1, n/2] = [1, {n // 2}], got {q}")
    tail = empirical_tail(generator, t_grid, study["reps"], seed)
    rows = []
    violations = 0
    for t, f, s in zip(tail.t_grid, tail.freq, tail.se):
        if mixing:
            inp = TailBoundInput(
                d1=generator.input.d1, d2=generator.input.d2, n=n,
                r_bound=generator.input.r_bound, s2=generator.input.s2,
                q=q, beta_q=generator.beta_envelope(q))
            bound = mixing_bound(inp, t / 6.0)
        else:
            bound = tropp_bound(generator.input, t)
        ok = f <= bound + 3.0 * s
        violations += int(not ok)
        rows.append((t, bound, f, s, tail.reps))
    summary = {"generator": kind, "n": n, "reps": tail.reps, "q": q,
               "mixing": mixing, "violations": violations}
    checks = _acceptance("concentration-study", cfg, summary)
    report = StudyReport(kind="concentration", summary=summary, rows=rows,
                         columns=["t", "bound", "freq", "se", "reps"],
                         config={"seed": seed})
    write_report(report, out_dir)
    _print_table("concentration-study", [
        ("generator", kind), ("n / reps", f"{n} / {tail.reps}"),
        ("bound violations", violations),
    ])
    _check(checks)
    return 0


def _cmd_gram_report(cfg, out_dir, args):
    spec = _basis_spec(cfg["basis"])
    basis = build_basis(spec)
    block = cfg["gram"]
    density = density_by_name(block.get("density", "uniform"), spec.dim)
    if block.get("density") == "sine" and "amplitude" in block:
        from .quadrature import sine_density
        density = sine_density(block["amplitude"], dim=spec.dim)
    gram_th = theoretical_gram(basis, density)
    os.makedirs(out_dir, exist_ok=True)
    write_matrix_csv(os.path.join(out_dir, "gram.csv"), gram_th)
    summary = {"kind": "gram-report", "k": basis.size,
               "density": density.name,
               "matrices": {"gram": "gram.csv"}}
    if "n" in block:
        seed = args.seed if args.seed is not None else block.get("seed", 0)
        rng = np.random.default_rng([int(seed), 7])
        x = density.sample(rng, block["n"], spec.dim)
        summ = empirical_gram(basis, x, gram_th, grid=sup_grid(basis))
        write_matrix_csv(os.path.join(out_dir, "gram_emp.csv"), summ.gram_emp)
        summary.update(summ.to_jsonable())
        summary["matrices"]["gram_emp"] = "gram_emp.csv"
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    pairs = [("K", basis.size), ("density", density.name)]
    if "dev" in summary:
        pairs += [("dev", fmt(summary["dev"])), ("zeta", fmt(summary["zeta"]))]
    _print_table("gram-report", pairs)
    return 0


_HANDLERS = {
    "fit": _cmd_fit,
    "rate-study": _cmd_rate_study,
    "coverage-study": _cmd_coverage_study,
    "stability-study": _cmd_stability_study,
    "concentration-study": _cmd_concentration_study,
    "gram-report": _cmd_gram_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievereg",
        description="series least-squares fits, Monte Carlo studies, and "
                    "Gram diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads for replications")
        if name == "rate-study":
            p.add_argument("--synthetic-oracle", action="store_true",
                           help="replace the estimator by an exact-rate oracle")
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    try:
        cfg = _read_config(args.config, args.command)
        return _HANDLERS[args.command](cfg, args.out, args)
    except (ConfigurationError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AcceptanceFailure as exc:
        print(f"acceptance failure: {exc}", file=sys.stderr)
        return 3
    except (NumericError, CascadeError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
