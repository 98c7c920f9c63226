"""Command-line front end.

Subcommands:
  figure    reproduce the data series behind one of the built-in figures
  sweep     robustness/witness sweep for a chosen pair of map families
  teleport  teleportation-fidelity curve for one family
  measure   CP-indivisibility measure of a family against a reference
  validate  run the named end-to-end checks

CSV output uses 9 significant digits, '\\n' line endings, and a fixed column
order, so repeated runs with the same configuration are byte-identical. The
environment variable SOLVER_MAX_ITERS overrides the solver iteration cap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channels import (
    ConstantMap,
    amplitude_damping_map,
    channel_from_json,
    depolarizing_map,
    eternal_map,
    identity_map,
)
from .figures import ALPHA, DR, FIGURES, LAM, OMEGA, T_MAX, T_STEP, default_t_grid
from .robustness import sweep
from .validation import run_checks
from .witness import teleport_fidelity

FAMILY_CHOICES = (
    "identity",
    "depolarizing-div",
    "depolarizing-indiv",
    "amplitude-damping",
    "eternal",
    "custom",
)


class SystemExit2(Exception):
    """Usage error discovered after argparse; mapped to exit code 2."""


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _resolve_family(name: str, args, choi_path: str | None):
    if name == "custom":
        if choi_path is None:
            raise SystemExit2("family 'custom' requires a --choi JSON file")
        return ConstantMap(channel_from_json(Path(choi_path).read_text()))
    if name == "identity":
        return identity_map()
    if name == "depolarizing-div":
        return depolarizing_map(args.lam)
    if name == "depolarizing-indiv":
        return depolarizing_map(args.lam, args.omega)
    if name == "amplitude-damping":
        return amplitude_damping_map(args.alpha, args.omega)
    if name == "eternal":
        return eternal_map()
    raise SystemExit2(f"unknown family {name!r}")


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
    p.add_argument("--dr", type=float, default=DR, help="robustness grid step")
    p.add_argument("--noise", choices=("generic", "cd", "both"), default="both")
    p.add_argument("--refine", action="store_true", help="report the solver's r instead of rounding it up to the dr grid")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    p_sweep.add_argument("--family2", choices=FAMILY_CHOICES, required=True)
    p_sweep.add_argument("--choi", help="channel JSON for family=custom")
    p_sweep.add_argument("--choi2", help="channel JSON for family2=custom")
    _add_family_args(p_sweep)
    _add_sweep_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tel = sub.add_parser("teleport", help="teleportation fidelity curve")
    p_tel.add_argument("--family", choices=FAMILY_CHOICES[:-1], default="depolarizing-indiv")
    _add_family_args(p_tel)
    _add_grid_args(p_tel)
    p_tel.add_argument("--output", "-o")
    p_tel.set_defaults(func=cmd_teleport)

    p_meas = sub.add_parser("measure", help="CP-indivisibility measure")
    p_meas.add_argument("--family", choices=FAMILY_CHOICES[:-1], default="depolarizing-indiv")
    p_meas.add_argument("--reference", choices=FAMILY_CHOICES[:-1], default="identity")
    p_meas.add_argument("--noise", choices=("generic", "cd"), default="generic")
    p_meas.add_argument("--integrand", choices=("robustness", "derivative"), default="robustness")
    _add_family_args(p_meas)
    _add_grid_args(p_meas)
    p_meas.add_argument("--dr", type=float, default=DR)
    p_meas.add_argument("--workers", type=int, default=1)
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


def _sweep_to_csv(records, noise: str, teleport_map=None) -> list[str]:
    cols = ["t"]
    if noise in ("generic", "both"):
        cols.append("r_generic")
    if noise in ("cd", "both"):
        cols.append("r_cd")
    cols.append("trace_distance")
    if teleport_map is not None:
        cols += ["n_value", "f_max"]
    lines = [",".join(cols)]
    for rec in records:
        row = [_fmt(rec.t)]
        if noise in ("generic", "both"):
            row.append(_fmt(rec.r_generic))
        if noise in ("cd", "both"):
            row.append(_fmt(rec.r_cd))
        row.append(_fmt(rec.trace_distance))
        if teleport_map is not None:
            n, f = teleport_fidelity(teleport_map, rec.t)
            row += [_fmt(n), _fmt(f)]
        lines.append(",".join(row))
    return lines


def _run_sweep(args, map1, map2, teleport_map=None) -> int:
    grid = default_t_grid(args.t_min, args.t_max, args.t_step)
    records = sweep(
        map1,
        map2,
        grid,
        noise=args.noise,
        dr=args.dr,
        refine=args.refine,
        workers=args.workers,
    )
    _write_lines(args.output, _sweep_to_csv(records, args.noise, teleport_map))
    bad = [rec.t for rec in records if rec.indeterminate]
    if bad:
        print(f"indeterminate solves at t = {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_figure(args) -> int:
    spec = FIGURES[args.id]
    teleport_map = spec.map2 if spec.teleport_columns else None
    return _run_sweep(args, spec.map1, spec.map2, teleport_map)


def cmd_sweep(args) -> int:
    map1 = _resolve_family(args.family, args, args.choi)
    map2 = _resolve_family(args.family2, args, args.choi2)
    return _run_sweep(args, map1, map2)


def cmd_teleport(args) -> int:
    map_ = _resolve_family(args.family, args, None)
    lines = ["t,n_value,f_max"]
    for t in default_t_grid(args.t_min, args.t_max, args.t_step):
        n, f = teleport_fidelity(map_, t)
        lines.append(",".join([_fmt(t), _fmt(n), _fmt(f)]))
    _write_lines(args.output, lines)
    return 0


def cmd_measure(args) -> int:
    from .witness import cp_indivisibility_measure

    map_ = _resolve_family(args.family, args, None)
    reference = _resolve_family(args.reference, args, None)
    grid = default_t_grid(args.t_min, args.t_max, args.t_step)
    report = cp_indivisibility_measure(
        map_,
        grid,
        reference=reference,
        noise="cd" if args.noise == "cd" else "generic",
        dr=args.dr,
        integrand=args.integrand,
        workers=args.workers,
    )
    print(f"family:          {map_.label()}")
    print(f"reference:       {reference.label()}")
    print(f"measure_raw:     {_fmt(report.n_raw)}")
    print(f"measure_norm:    {_fmt(report.n_normalized)}")
    print(f"rising_segments: {[(round(a, 6), round(b, 6)) for a, b in report.rising_segments]}")
    if args.output:
        lines = ["t,robustness"]
        lines += [",".join([_fmt(p.t), _fmt(p.value)]) for p in report.curve]
        _write_lines(args.output, lines)
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        parser.error(str(exc))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
