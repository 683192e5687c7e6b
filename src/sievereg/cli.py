"""Command-line driver: fits, studies, and Gram diagnostics.

Commands read a flat INI config (sections mirror the library modules) and
write ``summary.json`` plus ``detail.csv`` (and matrix CSVs where relevant)
into the output directory.  The schema is the signatures of the callables
that the sections feed, the library's specs and study configs, `_fit` and
`_gram_report`: their parameters of a type in `_PARSERS` are the keys,
required when they have no default, and other keys are hard errors.  The
callables hold every default and check and refuse with
``ConfigurationError`` (a ``ValueError``), a config error here.  Exit
codes: 0 success, 2 config error, 3 embedded acceptance threshold
violated, 4 numeric failure.
"""

import argparse
import configparser
import inspect
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


def _finite(raw):
    """Parser of a finite float."""
    if not np.isfinite(value := float(raw)):
        raise ValueError(f"must be a finite number, got {raw}")
    return value


# parameter annotation -> parser of its INI value; a parameter of any other
# type (a spec, the bool `synthetic_oracle`) is not a config key
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _list_of(int),
            np.ndarray: _list_of(float)}


def _keys(target):
    """key -> (required, parser) of the parameters that a config sets."""
    return {name: (p.default is p.empty, _PARSERS[p.annotation])
            for name, p in inspect.signature(target).parameters.items()
            if p.annotation in _PARSERS}


# sections that a config may leave out; every other section is required
_OPTIONAL = ("dgp", "basis2", "basis3", "acceptance")
# [dgp] key -> (spec, field): present keys become keyword arguments of
# RegressorSpec, ErrorSpec and DgpSpec
_DGP_FIELDS = {"regressor": (RegressorSpec, "kind"),
               "rho": (RegressorSpec, "rho"),
               "error": (ErrorSpec, "kind"), "sigma": (ErrorSpec, "sigma"),
               "df": (ErrorSpec, "df"), "scale": (ErrorSpec, "scale"),
               "h0": (DgpSpec, "h0_name"), "p": (DgpSpec, "smoothness"),
               "dim": (DgpSpec, "dim")}


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
        block = {}
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise ConfigurationError(
                    f"unknown config key `{key}` in section [{section}]")
            _, parse = schema[section][key]
            try:
                block[key] = parse(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"config key `{key}` in [{section}]: {exc}") from exc
        out[section] = block
    for section, keys in schema.items():
        if section not in out and section not in _OPTIONAL:
            raise ConfigurationError(
                f"missing required config section [{section}]")
        for key, (required, _) in keys.items():
            if required and section in out and key not in out[section]:
                raise ConfigurationError(
                    f"missing required config key `{key}` in [{section}]")
    for key, flag in (("seed", args.seed), ("threads", args.threads)):
        if flag is None:
            continue
        owners = [name for name, keys in schema.items() if key in keys]
        if not owners:
            raise ConfigurationError(f"`--{key}` does not apply to {command}")
        for section in owners:
            out[section][key] = flag
    return out


def _dgp_spec(block):
    kwargs = {RegressorSpec: {}, ErrorSpec: {}, DgpSpec: {}}
    for key, value in block.items():
        spec, name = _DGP_FIELDS[key]
        kwargs[spec][name] = value
    return DgpSpec(regressor=RegressorSpec(**kwargs[RegressorSpec]),
                   error=ErrorSpec(**kwargs[ErrorSpec]), **kwargs[DgpSpec])


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


def _fit(out_dir, spec, data: str, grid: int = None):
    """Fit the CSV `data`; write the coefficients and the 1-D curve."""
    _check_at_least(1, grid=512 if grid is None else grid)
    if spec.dim > 1 and grid is not None:
        raise ConfigurationError(f"config key `grid` applies only to dim = 1 "
                                 f"fits (the curve), not dim = {spec.dim}")
    if not os.path.isfile(data) or os.path.getsize(data) == 0:
        raise ConfigurationError(f"config key `data`: no such file, or it "
                                 f"is empty: {data}")
    try:
        table = np.genfromtxt(data, delimiter=",", names=True, ndmin=1)
    except ValueError as exc:
        raise ConfigurationError(
            f"config key `data`: unreadable CSV {data}: {exc}") from exc
    names = list(table.dtype.names)
    if len(names) != spec.dim + 1:
        raise ConfigurationError(
            f"config key `data`: {len(names)} columns, expected "
            f"{spec.dim} regressors + 1 response")
    if table.size == 0:
        raise ConfigurationError(f"config key `data`: no data rows in {data}")
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
        points = np.linspace(0.0, 1.0, grid or 512)
        curve = result.predict(points.reshape(-1, 1))
        write_detail_csv(os.path.join(out_dir, "curve.csv"), ["x", "value"],
                         list(zip(points, curve)))
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


# study config parameter -> its value from the other sections or the flags
_SPECS = {
    "dgp": lambda cfg, args: _dgp_spec(cfg.get("dgp", {})),
    "basis_spec": lambda cfg, args: BasisSpec(**cfg["basis"]),
    "basis_specs": lambda cfg, args: tuple(
        BasisSpec(**cfg[section])
        for section in ("basis", "basis2", "basis3") if section in cfg),
    "functional": lambda cfg, args: FunctionalSpec(**cfg["functional"]),
    "synthetic_oracle": lambda cfg, args: args.synthetic_oracle,
}


def _build(config_class):
    """(cfg, args) -> config_class of its keys and `_SPECS` parameters."""
    params = inspect.signature(config_class).parameters
    return lambda cfg, args: config_class(
        **{name: spec(cfg, args) for name, spec in _SPECS.items()
           if name in params}, **cfg["study"], **cfg.get("generator", {}))


# command -> (config builder, stdout rows of the summary, [acceptance] key
# -> (parser, summary value, passes(value, threshold))).  The study function
# is the command's name with underscores, looked up when it runs, so a
# wrapper installed on this module's attribute sees the call.
_STUDIES = {
    "rate-study": (_build(RateStudyConfig), lambda s: [
        ("n grid", ",".join(str(n) for n in s["n_grid"])),
        ("sup slope", fmt(s["slope_sup"])),
        ("L2 slope", fmt(s["slope_l2"])),
        ("sup slope R2", fmt(s["slope_sup_r2"])),
        ("rank-deficient fits", s["rank_deficient"]),
        ("max cond", fmt(s["max_cond"])),
    ], {
        "slope_sup_min": (_finite, itemgetter("slope_sup"), ge),
        "slope_sup_max": (_finite, itemgetter("slope_sup"), le),
        "slope_l2_min": (_finite, itemgetter("slope_l2"), ge),
        "slope_l2_max": (_finite, itemgetter("slope_l2"), le),
    }),
    "coverage-study": (_build(CoverageStudyConfig), lambda s: [
        ("n / K", f"{s['n']} / {s['k']}"),
        ("coverage", fmt(s["coverage"])),
        ("mean CI length", fmt(s["mean_ci_length"])),
        ("KS p-value", fmt(s["ks_pvalue"])),
        ("degenerate reps", s["degenerate"]),
        ("clamped reps", s["clamped"]),
        ("rank-deficient", s["rank_deficient"]),
    ], {
        "coverage_min": (_finite, itemgetter("coverage"), ge),
        "coverage_max": (_finite, itemgetter("coverage"), le),
        "ks_alpha": (_finite, itemgetter("ks_pvalue"), gt),
    }),
    "stability-study": (_build(StabilityStudyConfig), lambda s: [
        (f"{m['family']} K={m['k']} n={m['n']}",
         f"dev={fmt(m['dev'])} leb={fmt(m['lebesgue_empirical'])}")
        for m in s["medians"][:12]] or [("rows", "0")], {
        "max_median_lebesgue": (
            _finite, lambda s: max(m["lebesgue_empirical"]
                                   for m in s["medians"]), le),
    }),
    "concentration-study": (_build(ConcentrationStudyConfig), lambda s: [
        ("generator", s["generator"]),
        ("n / reps", f"{s['n']} / {s['reps']}"),
        ("bound violations", s["violations"]),
    ], {"max_violations": (int, itemgetter("violations"), le)}),
}


def _cmd_study(cfg, out_dir, args):
    """Run the study and write its report with its [acceptance] checks."""
    build, rows, acceptance = _STUDIES[args.command]
    config = build(cfg, args)
    _check_out(out_dir)
    report = globals()[args.command.replace("-", "_")](config)
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


def _gram_report(out_dir, spec, density: str = "uniform",
                 amplitude: float = None, n: int = None, seed: int = None):
    """Write the theoretical Gram, and an n-point sample's with `n`."""
    if n is not None:
        _check_at_least(1, n=n)
    elif seed is not None:
        raise ConfigurationError("config key `seed` (or `--seed`) applies "
                                 "only with `n`: without it no sample is drawn")
    _check_at_least(0, seed=seed or 0)
    density = density_by_name(density)
    if amplitude is not None:
        if density.name != "sine":
            raise ConfigurationError("config key `amplitude` applies only to "
                                     f"density = sine, not {density.name!r}")
        density = sine_density(amplitude)
    _check_out(out_dir)
    basis = build_basis(spec)
    gram_th = theoretical_gram(basis, density)
    os.makedirs(out_dir, exist_ok=True)
    write_matrix_csv(os.path.join(out_dir, "gram.csv"), gram_th)
    summary = {"kind": "gram-report", "k": basis.size,
               "density": density.name,
               "matrices": {"gram": "gram.csv"}}
    if n is not None:
        x = density.sample(derived_rng(seed or 0, "gram-report"), n, spec.dim)
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


_BASIS = _keys(BasisSpec)
_DGP = {key: _keys(spec)[name] for key, (spec, name) in _DGP_FIELDS.items()}
# the concentration study's [generator] keys; [study] takes the others
_CONCENTRATION = _keys(ConcentrationStudyConfig)
_GENERATOR = {key: _CONCENTRATION.pop(key)
              for key in ("kind", "n", "regressor", "rho", "q")}
# command -> section -> key -> (required, parser), each section read off the
# signature of the callable that it feeds
_SCHEMAS = {
    "fit": {"fit": _keys(_fit), "basis": _BASIS},
    "rate-study": {"study": _keys(RateStudyConfig), "dgp": _DGP,
                   "basis": _BASIS},
    "coverage-study": {"study": _keys(CoverageStudyConfig),
                       "functional": _keys(FunctionalSpec), "dgp": _DGP,
                       "basis": _BASIS},
    "stability-study": {"study": _keys(StabilityStudyConfig), "dgp": _DGP,
                        "basis": _BASIS, "basis2": _BASIS, "basis3": _BASIS},
    "concentration-study": {"study": _CONCENTRATION, "generator": _GENERATOR,
                            "basis": _BASIS},
    "gram-report": {"gram": _keys(_gram_report), "basis": _BASIS},
}
# every study takes an optional [acceptance] section of its row's keys
for _command, (*_, _checks) in _STUDIES.items():
    _SCHEMAS[_command]["acceptance"] = {
        key: (False, parse) for key, (parse, _, _) in _checks.items()}

_HANDLERS = {
    "fit": lambda cfg, out_dir, args: _fit(
        out_dir, BasisSpec(**cfg["basis"]), **cfg["fit"]),
    "gram-report": lambda cfg, out_dir, args: _gram_report(
        out_dir, BasisSpec(**cfg["basis"]), **cfg["gram"]),
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


def run(argv):
    args = build_parser().parse_args(argv)
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
