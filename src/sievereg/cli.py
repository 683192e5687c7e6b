"""Command-line driver: fits, studies, and Gram diagnostics.

Commands read a flat INI config (sections mirror the library modules) and
write ``summary.json`` plus ``detail.csv`` (and matrix CSVs where relevant)
into the output directory.  Unknown config keys are hard errors.  For the
three studies and the concentration study the schema here only parses
types; the library's specs, study configs and name lookups hold the
defaults and check the values, and every one of them refuses with
``ConfigurationError`` (a ``ValueError``), which is a config error here.
`fit` and `gram-report` have no study config: their handlers default
and check their `grid`, `n`, `seed`, `density` and `amplitude` keys
through the same checks.  Exit codes: 0 success, 2 config error, 3
embedded acceptance threshold violated, 4 numeric failure.
"""

import argparse
import configparser
import ctypes
import os
import sys
from operator import ge, gt, itemgetter, le

import numpy as np

from .basis import BasisSpec, ConfigurationError, _check_at_least, build_basis
from .concentration import ConcentrationStudyConfig, concentration_study
from .estimator import fit as fit_ls
from .gram import NumericError, empirical_gram, theoretical_gram
from .inference import FunctionalSpec
from .quadrature import density_by_name, sine_density
from .reporting import (fmt, write_detail_csv, write_matrix_csv,
                        write_report, write_summary_json)
from .simulate import (CoverageStudyConfig, DgpSpec, ErrorSpec,
                       RateStudyConfig, RegressorSpec, StabilityStudyConfig,
                       coverage_study, derived_rng, rate_study,
                       stability_study)


class AcceptanceFailure(RuntimeError):
    """An acceptance threshold embedded in the config was violated."""


def _list_of(parse):
    """Parser of a comma-separated list of parse(item)."""
    return lambda raw: tuple(parse(v) for v in raw.split(",") if v.strip())


# section -> key -> (required, parser); sections themselves may be optional
_BASIS_KEYS = {"family": (True, str), "dim": (False, int),
               "order": (False, int), "n_interior": (False, int),
               "n_moments": (False, int), "level": (False, int),
               "degree": (False, int)}
# [dgp] key -> (parser, spec, field): present keys become keyword arguments
# of RegressorSpec, ErrorSpec and DgpSpec
_DGP_FIELDS = {"regressor": (str, "regressor", "kind"),
               "rho": (float, "regressor", "rho"),
               "error": (str, "error", "kind"),
               "sigma": (float, "error", "sigma"), "df": (float, "error", "df"),
               "scale": (float, "error", "scale"),
               "h0": (str, "dgp", "h0_name"), "p": (float, "dgp", "smoothness"),
               "dim": (int, "dgp", "dim")}
_DGP_KEYS = {key: (False, parse) for key, (parse, _, _) in _DGP_FIELDS.items()}

_SCHEMAS = {
    "fit": {
        "fit": ({"data": (True, str), "grid": (False, int)}, True),
        "basis": (_BASIS_KEYS, True),
    },
    "rate-study": {
        "study": ({"reps": (True, int), "n_grid": (True, _list_of(int)),
                   "seed": (False, int), "krule_c": (False, float),
                   "krule_p": (False, float), "threads": (False, int)}, True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
    },
    "coverage-study": {
        "study": ({"reps": (True, int), "n": (True, int),
                   "level": (False, float), "seed": (False, int),
                   "krule_c": (False, float), "krule_p": (False, float),
                   "threads": (False, int)}, True),
        "functional": ({"kind": (True, str), "x0": (False, _list_of(float))},
                       True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
    },
    "stability-study": {
        "study": ({"reps": (True, int), "k_grid": (True, _list_of(int)),
                   "n_grid": (True, _list_of(int)), "seed": (False, int),
                   "threads": (False, int)}, True),
        "dgp": (_DGP_KEYS, False),
        "basis": (_BASIS_KEYS, True),
        "basis2": (_BASIS_KEYS, False),
        "basis3": (_BASIS_KEYS, False),
    },
    "concentration-study": {
        "study": ({"reps": (True, int), "t_max": (True, float),
                   "t_count": (False, int), "seed": (False, int)}, True),
        "generator": ({"kind": (True, str), "n": (True, int),
                       "regressor": (False, str), "rho": (False, float),
                       "q": (False, int)}, True),
        "basis": (_BASIS_KEYS, False),
    },
    "gram-report": {
        "gram": ({"density": (False, str), "amplitude": (False, float),
                  "n": (False, int), "seed": (False, int)}, True),
        "basis": (_BASIS_KEYS, True),
    },
}


def _read_config(args):
    """The command's config, parsed against its schema, with the --seed and
    --threads flags applied to the section that has those keys (a flag
    that no section takes is a config error)."""
    path, command = args.config, args.command
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"unreadable config file {path}: {exc}") from exc
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
    for key, flag in (("seed", args.seed), ("threads", args.threads)):
        if flag is None:
            continue
        owners = [name for name, (keys, _) in schema.items() if key in keys]
        if not owners:
            raise ConfigurationError(f"`--{key}` does not apply to {command}")
        for section in owners:
            out[section][key] = flag
    return out


def _dgp_spec(block):
    kwargs = {"regressor": {}, "error": {}, "dgp": {}}
    for key, value in block.items():
        _, spec, name = _DGP_FIELDS[key]
        kwargs[spec][name] = value
    return DgpSpec(regressor=RegressorSpec(**kwargs["regressor"]),
                   error=ErrorSpec(**kwargs["error"]), **kwargs["dgp"])


def _check_out(out_dir):
    """An --out that is empty, a file or under a file is a config error."""
    if not out_dir:
        raise ConfigurationError("--out is empty")
    head = os.path.abspath(out_dir)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigurationError(f"--out {out_dir}: {head} is not a directory")


def _print_table(title, pairs):
    width = max(len(k) for k, _ in pairs)
    print(title)
    for key, val in pairs:
        print(f"  {key:<{width}}  {val}")


def _cmd_fit(cfg, out_dir, args):
    n_grid = cfg["fit"].get("grid", 512)
    _check_at_least(1, grid=n_grid)
    spec = BasisSpec(**cfg["basis"])
    if spec.dim > 1 and "grid" in cfg["fit"]:
        raise ConfigurationError(f"config key `grid` applies only to dim = 1 "
                                 f"fits (the curve), not dim = {spec.dim}")
    path = cfg["fit"]["data"]
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        raise ConfigurationError(f"config key `data`: no such file, or it "
                                 f"is empty: {path}")
    try:
        table = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    except ValueError as exc:
        raise ConfigurationError(
            f"config key `data`: unreadable CSV {path}: {exc}") from exc
    names = list(table.dtype.names)
    if len(names) != spec.dim + 1:
        raise ConfigurationError(
            f"config key `data`: {len(names)} columns, expected "
            f"{spec.dim} regressors + 1 response")
    if table.size == 0:
        raise ConfigurationError(f"config key `data`: no data rows in {path}")
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
    _check_out(out_dir)
    basis = build_basis(spec)
    result = fit_ls(basis, x, y)
    os.makedirs(out_dir, exist_ok=True)
    write_detail_csv(os.path.join(out_dir, "coeffs.csv"), ["k", "value"],
                     list(enumerate(result.coeffs)))
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


def _rate_config(cfg, args):
    return RateStudyConfig(dgp=_dgp_spec(cfg.get("dgp", {})),
                           basis_spec=BasisSpec(**cfg["basis"]),
                           synthetic_oracle=args.synthetic_oracle,
                           **cfg["study"])


def _coverage_config(cfg, args):
    return CoverageStudyConfig(dgp=_dgp_spec(cfg.get("dgp", {})),
                               basis_spec=BasisSpec(**cfg["basis"]),
                               functional=FunctionalSpec(**cfg["functional"]),
                               **cfg["study"])


def _stability_config(cfg, args):
    specs = [BasisSpec(**cfg[section])
             for section in ("basis", "basis2", "basis3") if section in cfg]
    return StabilityStudyConfig(dgp=_dgp_spec(cfg.get("dgp", {})),
                                basis_specs=tuple(specs), **cfg["study"])


def _concentration_config(cfg, args):
    basis = cfg.get("basis")
    return ConcentrationStudyConfig(
        basis_spec=None if basis is None else BasisSpec(**basis),
        **cfg["study"], **cfg["generator"])


# command -> (config builder, study function name, stdout rows of the
# summary, [acceptance] key -> (parser, summary value, passes(value,
# threshold))).  The study is looked up by name when it runs, so a wrapper
# installed on this module's attribute sees the call.
_STUDIES = {
    "rate-study": (_rate_config, "rate_study", lambda s: [
        ("n grid", ",".join(str(n) for n in s["n_grid"])),
        ("sup slope", fmt(s["slope_sup"])),
        ("L2 slope", fmt(s["slope_l2"])),
        ("sup slope R2", fmt(s["slope_sup_r2"])),
        ("rank-deficient fits", s["rank_deficient"]),
        ("max cond", fmt(s["max_cond"])),
    ], {
        "slope_sup_min": (float, itemgetter("slope_sup"), ge),
        "slope_sup_max": (float, itemgetter("slope_sup"), le),
        "slope_l2_min": (float, itemgetter("slope_l2"), ge),
        "slope_l2_max": (float, itemgetter("slope_l2"), le),
    }),
    "coverage-study": (_coverage_config, "coverage_study", lambda s: [
        ("n / K", f"{s['n']} / {s['k']}"),
        ("coverage", fmt(s["coverage"])),
        ("mean CI length", fmt(s["mean_ci_length"])),
        ("KS p-value", fmt(s["ks_pvalue"])),
        ("degenerate reps", s["degenerate"]),
        ("clamped reps", s["clamped"]),
        ("rank-deficient", s["rank_deficient"]),
    ], {
        "coverage_min": (float, itemgetter("coverage"), ge),
        "coverage_max": (float, itemgetter("coverage"), le),
        "ks_alpha": (float, itemgetter("ks_pvalue"), gt),
    }),
    "stability-study": (_stability_config, "stability_study", lambda s: [
        (f"{m['family']} K={m['k']} n={m['n']}",
         f"dev={fmt(m['dev'])} leb={fmt(m['lebesgue_empirical'])}")
        for m in s["medians"][:12]] or [("rows", "0")], {
        "max_median_lebesgue": (
            float, lambda s: max(m["lebesgue_empirical"]
                                 for m in s["medians"]), le),
    }),
    "concentration-study": (
        _concentration_config, "concentration_study", lambda s: [
            ("generator", s["generator"]),
            ("n / reps", f"{s['n']} / {s['reps']}"),
            ("bound violations", s["violations"]),
        ], {"max_violations": (int, itemgetter("violations"), le)}),
}

# every study takes an optional [acceptance] section of its row's keys
for _command, (*_, _checks) in _STUDIES.items():
    _SCHEMAS[_command]["acceptance"] = (
        {key: (False, parse) for key, (parse, _, _) in _checks.items()}, False)


def _cmd_study(cfg, out_dir, args):
    """Run the study and write its report with its [acceptance] checks."""
    build, study, rows, acceptance = _STUDIES[args.command]
    config = build(cfg, args)
    _check_out(out_dir)
    report = globals()[study](config)
    checks = {}
    for key, threshold in cfg.get("acceptance", {}).items():
        _, value, passes = acceptance[key]
        checks[key] = bool(passes(value(report.summary), threshold))
    report.summary["acceptance"] = checks
    write_report(report, out_dir)
    _print_table(args.command, rows(report.summary))
    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        raise AcceptanceFailure(
            "acceptance threshold violated: " + ", ".join(failed))
    return 0


def _cmd_gram_report(cfg, out_dir, args):
    block = cfg["gram"]
    _check_at_least(1, n=block.get("n", 1))
    spec = BasisSpec(**cfg["basis"])
    basis = build_basis(spec)
    if "seed" in block and "n" not in block:
        raise ConfigurationError("config key `seed` (or `--seed`) applies "
                                 "only with `n`: without it no sample is drawn")
    _check_at_least(0, seed=block.get("seed", 0))
    density = density_by_name(block.get("density", "uniform"))
    if "amplitude" in block:
        if density.name != "sine":
            raise ConfigurationError(f"config key `amplitude` applies only "
                                     f"to density = sine, not "
                                     f"{density.name!r}")
        density = sine_density(block["amplitude"])
    _check_out(out_dir)
    gram_th = theoretical_gram(basis, density)
    os.makedirs(out_dir, exist_ok=True)
    write_matrix_csv(os.path.join(out_dir, "gram.csv"), gram_th)
    summary = {"kind": "gram-report", "k": basis.size,
               "density": density.name,
               "matrices": {"gram": "gram.csv"}}
    if "n" in block:
        rng = derived_rng(block.get("seed", 0), "gram-report")
        x = density.sample(rng, block["n"], spec.dim)
        gram_emp, report = empirical_gram(basis, x, gram_th)
        write_matrix_csv(os.path.join(out_dir, "gram_emp.csv"), gram_emp)
        summary.update(report)
        summary["matrices"]["gram_emp"] = "gram_emp.csv"
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    pairs = [("K", basis.size), ("density", density.name)]
    if "dev" in summary:
        pairs += [("dev", fmt(summary["dev"])), ("zeta", fmt(summary["zeta"]))]
    _print_table("gram-report", pairs)
    return 0


_HANDLERS = {"fit": _cmd_fit, "gram-report": _cmd_gram_report,
             **{command: _cmd_study for command in _STUDIES}}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievereg",
        description="series least-squares fits, Monte Carlo studies, and "
                    "Gram diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override the config's replication worker threads")
        if name == "rate-study":
            p.add_argument("--synthetic-oracle", action="store_true",
                           help="replace the estimator by an exact-rate oracle")
    return parser


def _set_heap_thresholds():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MB: under its
    dynamic rule the heap of a study's per-fit arrays is trimmed and
    faulted in again on every fit.  Setting either turns the rule off for
    both, so both are set; a libc without `mallopt` is left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def run(argv):
    args = build_parser().parse_args(argv)
    _set_heap_thresholds()
    try:
        cfg = _read_config(args)
        return _HANDLERS[args.command](cfg, args.out, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AcceptanceFailure as exc:
        print(f"acceptance failure: {exc}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
