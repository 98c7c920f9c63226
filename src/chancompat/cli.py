"""Command-line front end.

Subcommands:
  figure    reproduce the data series behind one of the built-in figures
  sweep     robustness/witness sweep for a chosen pair of maps
  teleport  teleportation-fidelity curve for one family
  measure   CP-indivisibility measure of a family against a reference
  validate  run the named end-to-end checks

Every named map family is built from figures.FAMILIES at the --lam/--omega/
--alpha flags. `sweep` takes each of its two maps as a family (--family,
--family2) or as the constant map around a JSON channel (--choi, --choi2);
a map that is missing, given twice or named `custom` is a usage error that
argparse raises before any file is opened.

CSV output uses 9 significant digits, '\\n' line endings, and a fixed column
order, so repeated runs with the same configuration are byte-identical. A
command whose solves did not all converge names their times on stderr and
exits 1. Bad input exits 2, an unreadable --choi/--choi2 among it, with a
message that names the flag; an -o that cannot be written exits 1 before
any solve. A run that ends in an error removes an -o file that it created.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .channels import DynamicalMap, channel_from_json, constant_map
from .figures import ALPHA, FAMILIES, FIGURES, LAM, OMEGA, T_MAX, T_STEP, default_t_grid
from .robustness import DR, NoiseClass, sweep
from .validation import run_checks
from .witness import cp_indivisibility_measure, teleport_fidelity


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _family_map(name: str, args) -> DynamicalMap:
    return FAMILIES[name](args.lam, args.omega, args.alpha)


def _sweep_map(args, position: str) -> DynamicalMap:
    """The map of --family<position>, or the constant map of --choi<position>."""
    path = getattr(args, f"choi{position}")
    if path is None:
        return _family_map(getattr(args, f"family{position}"), args)
    try:
        return constant_map(channel_from_json(Path(path).read_text()))
    except (OSError, ValueError) as exc:    # an input: exit 2, naming its flag
        raise ValueError(f"--choi{position}: {exc}") from exc


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=T_MAX)
    p.add_argument("--t-step", type=float, default=T_STEP)


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float, default=LAM, help="depolarizing decay rate")
    p.add_argument("--omega", type=float, default=OMEGA, help="oscillation frequency")
    p.add_argument("--alpha", type=float, default=ALPHA, help="damping decay rate")


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    _add_grid_args(p)
    p.add_argument("--noise", choices=[*(nc.value for nc in NoiseClass), "both"], default="both")
    p.add_argument("--refine", action="store_true", help=f"report the solver's r, not its grid value (r rounded up to a multiple of {DR})")
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="chancompat",
        description="Incompatibility robustness of quantum channels along dynamical maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="reproduce a built-in figure as CSV")
    p_fig.add_argument("--id", type=int, required=True, choices=sorted(FIGURES))
    _add_sweep_args(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="robustness sweep for a chosen map pair")
    for position in ("", "2"):    # each map is a family or a constant channel, never both
        one_map = p_sweep.add_mutually_exclusive_group(required=True)
        one_map.add_argument(f"--family{position}", choices=FAMILIES)
        one_map.add_argument(f"--choi{position}", help=f"channel JSON of a constant map{position or 1}")
    _add_family_args(p_sweep)
    _add_sweep_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tel = sub.add_parser("teleport", help="teleportation fidelity curve")
    p_tel.add_argument("--family", choices=FAMILIES, default="depolarizing-indiv")
    _add_family_args(p_tel)
    _add_grid_args(p_tel)
    p_tel.add_argument("--output", "-o")
    p_tel.set_defaults(func=cmd_teleport)

    p_meas = sub.add_parser("measure", help="CP-indivisibility measure")
    p_meas.add_argument("--family", choices=FAMILIES, default="depolarizing-indiv")
    p_meas.add_argument("--reference", choices=FAMILIES, default="identity")
    p_meas.add_argument("--noise", choices=[nc.value for nc in NoiseClass], default="generic")
    _add_family_args(p_meas)
    _add_grid_args(p_meas)
    p_meas.add_argument("--output", "-o", help="optional CSV of the robustness curve")
    p_meas.set_defaults(func=cmd_measure)

    p_val = sub.add_parser("validate", help="run the end-to-end checks")
    p_val.add_argument("--only", help="run only checks whose name contains this string")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _sweep_to_csv(records, teleport_columns: bool = False) -> list[str]:
    r_cols = [f"r_{nc.value}" for nc in NoiseClass if records[0].r(nc) is not None]
    cols = ["t", *r_cols, "trace_distance"]
    lines = [",".join(cols + (["n_value", "f_max"] if teleport_columns else []))]
    for rec in records:
        row = [_fmt(getattr(rec, col)) for col in cols]
        if teleport_columns:
            row += map(_fmt, teleport_fidelity(rec.channel))
        lines.append(",".join(row))
    return lines


def _run_sweep(args, map1, map2, teleport_columns: bool = False) -> int:
    grid = default_t_grid(args.t_min, args.t_max, args.t_step)
    records = sweep(map1, map2, grid, noise=args.noise, refine=args.refine)
    _write_lines(args.output, _sweep_to_csv(records, teleport_columns))
    return _report_indeterminate([rec.t for rec in records if rec.indeterminate])


def _report_indeterminate(ts: list[float]) -> int:
    """Name the times of indeterminate values on stderr and return the exit code."""
    if not ts:
        return 0
    print(f"indeterminate solves at t = {ts}", file=sys.stderr)
    return 1


def cmd_figure(args) -> int:
    spec = FIGURES[args.id]
    return _run_sweep(args, spec.map1, spec.map2, spec.teleport_columns)


def cmd_sweep(args) -> int:
    return _run_sweep(args, _sweep_map(args, ""), _sweep_map(args, "2"))


def cmd_teleport(args) -> int:
    map_ = _family_map(args.family, args)
    lines = ["t,n_value,f_max"]
    for t in default_t_grid(args.t_min, args.t_max, args.t_step):
        n, f = teleport_fidelity(map_.evaluate(t))
        lines.append(",".join([_fmt(t), _fmt(n), _fmt(f)]))
    _write_lines(args.output, lines)
    return 0


def cmd_measure(args) -> int:
    map_ = _family_map(args.family, args)
    reference = _family_map(args.reference, args)
    grid = default_t_grid(args.t_min, args.t_max, args.t_step)
    report = cp_indivisibility_measure(map_, grid, reference=reference, noise=args.noise)
    print(f"family:          {map_.label}")
    print(f"reference:       {reference.label}")
    print(f"measure_raw:     {_fmt(report.n_raw)}")
    print(f"measure_norm:    {_fmt(report.n_normalized)}")
    print(f"rising_segments: {[(round(a, 6), round(b, 6)) for a, b in report.rising_segments]}")
    if args.output:
        _write_lines(args.output, ["t,robustness", *(f"{_fmt(t)},{_fmt(r)}" for t, r in report.curve)])
    return _report_indeterminate(list(report.indeterminate))


def cmd_validate(args) -> int:
    results = run_checks(args.only)
    width = max(len(res.name) for res in results)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"[{mark}] {res.name:<{width}}  {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "output", None)
    made = path is not None and not Path(path).exists()    # a failed run removes the -o it made
    try:
        if path is not None:
            open(path, "a").close()    # fail before any solve, truncating nothing
        return args.func(args)
    except (ValueError, OSError) as exc:
        if made:
            Path(path).unlink(missing_ok=True)
        # an OSError is -o's: _sweep_map reads every input
        code, label = (2, "error") if isinstance(exc, ValueError) else (1, "I/O error")
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
