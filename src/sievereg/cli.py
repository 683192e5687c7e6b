"""Command-line driver: fits, studies, and Gram diagnostics.

Commands read a flat INI config (sections mirror the library modules).
Each command is one `_COMMANDS` row: its sections, each read off the
signature of the callable that it feeds (the library's specs and study
configs, `_fit` and `_gram_report`: parameters of a type in `_PARSERS`
are keys, required without a default, and other keys are hard errors),
and a prepare that checks all that the command reads and returns its
work.  The callables hold every default and check and refuse with
``ConfigurationError`` (a ``ValueError``), a config error here.
`_run_command` prepares, checks ``--out``, works, writes through
`reporting.write_report`, prints, and then fails on a violated
``[acceptance]`` threshold.  Exit codes: 0 success, 2 config error, 3
embedded acceptance threshold violated, 4 numeric failure.
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
from .reporting import fmt, matrix_table, write_report
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
    # no INI header names the empty section, so [DEFAULT] is an unknown
    # section instead of keys copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"unreadable config file {path}: {exc}") from exc
    schema = _COMMANDS[command][0]
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


def _fit(spec, data: str, grid: int = None):
    """Check the CSV `data`; the work fits it and gives the coefficients
    and the 1-D curve."""
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

    def work():
        basis = build_basis(spec)
        result = fit_ls(basis, x, y)
        tables = {"coeffs.csv": (["k", "value"], enumerate(result.coeffs))}
        if spec.dim == 1:
            points = np.linspace(0.0, 1.0, grid or 512)
            curve = result.predict(points.reshape(-1, 1))
            tables["curve.csv"] = (["x", "value"], zip(points, curve))
        summary = {
            "kind": "fit", "n": int(y.size), "k": basis.size,
            "rank": result.rank, "rank_deficient": result.rank_deficient,
            "cond": result.cond,
            "residual_rms": float(np.sqrt(np.mean(result.residuals ** 2))),
        }
        return summary, tables, [
            ("n", y.size), ("K", basis.size), ("rank", result.rank),
            ("residual rms", fmt(summary["residual_rms"]))], {}
    return work


def _gram_report(spec, density: str = "uniform", amplitude: float = None,
                 n: int = None, seed: int = None):
    """Check the density; the work gives the theoretical Gram, and an
    n-point sample's with `n`."""
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

    def work():
        basis = build_basis(spec)
        gram_th = theoretical_gram(basis, density)
        tables = {"gram.csv": matrix_table(gram_th)}
        summary = {"kind": "gram-report", "k": basis.size,
                   "density": density.name,
                   "matrices": {"gram": "gram.csv"}}
        rows = [("K", basis.size), ("density", density.name)]
        if n is not None:
            x = density.sample(derived_rng(seed or 0, "gram-report"), n,
                               spec.dim)
            gram_emp, report = empirical_gram(basis, x, gram_th)
            tables["gram_emp.csv"] = matrix_table(gram_emp)
            summary.update(report)
            summary["matrices"]["gram_emp"] = "gram_emp.csv"
            rows += [("dev", fmt(summary["dev"])),
                     ("zeta", fmt(summary["zeta"]))]
        return summary, tables, rows, {}
    return work


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


def _study(config_class, sections, rows, acceptance):
    """A study's row: `sections`, an optional [acceptance] of the keys of
    `acceptance`, key -> (parser, summary value, passes(value, threshold)),
    and a prepare that builds config_class.  Its work runs the study of the
    command's name, looked up when it runs so that a wrapper installed on
    this module's attribute sees the call; `rows` gives its stdout rows."""
    params = inspect.signature(config_class).parameters

    def prepare(cfg, args):
        config = config_class(
            **{name: spec(cfg, args) for name, spec in _SPECS.items()
               if name in params}, **cfg["study"], **cfg.get("generator", {}))

        def work():
            report = globals()[args.command.replace("-", "_")](config)
            checks = {}
            for key, threshold in cfg.get("acceptance", {}).items():
                _, value, passes = acceptance[key]
                checks[key] = bool(passes(value(report.summary), threshold))
            report.summary["acceptance"] = checks
            return ({"kind": report.kind, "summary": report.summary,
                     "config": report.config},
                    {"detail.csv": (report.columns, report.rows)},
                    rows(report.summary), checks)
        return work
    return ({**sections, "acceptance": {key: (False, parse) for key, (
        parse, _, _) in acceptance.items()}}, prepare)


_BASIS = _keys(BasisSpec)
_DGP = {key: _keys(spec)[name] for key, (spec, name) in _DGP_FIELDS.items()}
# the concentration study's [generator] keys; [study] takes the others
_CONCENTRATION = _keys(ConcentrationStudyConfig)
_GENERATOR = {key: _CONCENTRATION.pop(key)
              for key in ("kind", "n", "regressor", "rho", "q")}
# command -> (section -> key -> (required, parser), prepare(cfg, args) ->
# work() -> (summary.json payload, CSV name -> (columns, rows), stdout
# rows, [acceptance] key -> passed)); each section is read off the
# signature of the callable that it feeds
_COMMANDS = {
    "fit": ({"fit": _keys(_fit), "basis": _BASIS}, lambda cfg, args: _fit(
        BasisSpec(**cfg["basis"]), **cfg["fit"])),
    "rate-study": _study(RateStudyConfig, {
        "study": _keys(RateStudyConfig), "dgp": _DGP, "basis": _BASIS,
    }, lambda s: [
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
    "coverage-study": _study(CoverageStudyConfig, {
        "study": _keys(CoverageStudyConfig),
        "functional": _keys(FunctionalSpec), "dgp": _DGP, "basis": _BASIS,
    }, lambda s: [
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
    "stability-study": _study(StabilityStudyConfig, {
        "study": _keys(StabilityStudyConfig), "dgp": _DGP, "basis": _BASIS,
        "basis2": _BASIS, "basis3": _BASIS,
    }, lambda s: [
        (f"{m['family']} K={m['k']} n={m['n']}",
         f"dev={fmt(m['dev'])} leb={fmt(m['lebesgue_empirical'])}")
        for m in s["medians"][:12]] or [("rows", "0")], {
        "max_median_lebesgue": (
            _finite, lambda s: max(m["lebesgue_empirical"]
                                   for m in s["medians"]), le),
    }),
    "concentration-study": _study(ConcentrationStudyConfig, {
        "study": _CONCENTRATION, "generator": _GENERATOR, "basis": _BASIS,
    }, lambda s: [
        ("generator", s["generator"]),
        ("n / reps", f"{s['n']} / {s['reps']}"),
        ("bound violations", s["violations"]),
    ], {"max_violations": (int, itemgetter("violations"), le)}),
    "gram-report": ({"gram": _keys(_gram_report), "basis": _BASIS},
                    lambda cfg, args: _gram_report(
                        BasisSpec(**cfg["basis"]), **cfg["gram"])),
}


def _run_command(cfg, args):
    """Prepare the command, check --out, do the work, write its files and
    print its table; a violated [acceptance] threshold fails only then."""
    work = _COMMANDS[args.command][1](cfg, args)
    _check_out(args.out)
    summary, tables, rows, checks = work()
    write_report(args.out, summary, tables)
    _print_table(args.command, rows)
    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        raise AcceptanceFailure(
            "acceptance threshold violated: " + ", ".join(failed))
    return 0


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
        p.add_argument("--threads", type=int, default=None,
                       help="override the config's replication worker threads")
        if name == "rate-study":
            p.add_argument("--synthetic-oracle", action="store_true",
                           help="replace the estimator by an exact-rate oracle")
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    try:
        return _run_command(_read_config(args), args)
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
