"""Command-line front end.

Subcommands: validate, solve, compare, campaign, fit-xi, preset.
Exit codes: 0 success, 1 degraded results, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as qio
from .ensemble import load_manifest, plan_from_manifest, run_campaign
from .graphs import SwitchDescriptor, edge_switch, load_graph, save_graph, validate
from .presets import preset, preset_names
from .solver import drop_levels, solve_spectra, solve_spectrum
from .stats import (
    XI_MAX,
    fit_xi,
    interlacing_degree,
    ks_distance,
    shift_distribution,
    spacing_histogram,
    weyl_count,
)
from .units import k_from_ghz


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    summary: str
    paths: tuple[str, ...] = ()


def _parse_pair(flag: str, text: str, sep: str, convert) -> tuple:
    """The two values of `flag`, written A<sep>B, each through `convert`."""
    try:
        first, second = map(convert, text.split(sep))
    except ValueError:
        raise ValueError(f"{flag} expects two values written A{sep}B, got {text!r}") from None
    return first, second


def _parse_window(args) -> tuple[float, float]:
    if args.window_k is None:
        return _parse_pair("--window-ghz", args.window_ghz, ":", lambda x: k_from_ghz(float(x)))
    return _parse_pair("--window-k", args.window_k, ":", float)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_validate(args) -> CommandOutcome:
    graph = load_graph(args.graph)
    violations = validate(graph)
    if violations:
        return CommandOutcome(2, "invalid graph:\n  " + "\n  ".join(violations))
    return CommandOutcome(
        0,
        f"graph ok: {len(graph.vertices)} vertices, {len(graph.edges)} edges, "
        f"total length {graph.total_length:.6f} m",
    )


def cmd_solve(args) -> CommandOutcome:
    graph = load_graph(args.graph)
    k_lo, k_hi = window = _parse_window(args)
    spectrum = solve_spectrum(graph, window)
    out = Path(args.out)
    qio.write_spectrum_csv(spectrum, out)
    weyl = weyl_count(graph.total_length, k_hi) - weyl_count(graph.total_length, k_lo)
    summary = (
        f"found {spectrum.count} levels in ({k_lo:.4f}, {k_hi:.4f}] rad/m; "
        f"Weyl estimate {weyl:.1f}; max |N_fl| = {spectrum.nfl_max:.2f}; "
        f"status {spectrum.status}"
    )
    summary = "\n  ".join([summary, *spectrum.messages])  # none when ok
    return CommandOutcome(0 if spectrum.status == "ok" else 1, summary, (str(out),))


def cmd_compare(args) -> CommandOutcome:
    graph = load_graph(args.graph)
    edge_a, edge_b = _parse_pair("--edges", args.edges, ",", int)
    descriptor = SwitchDescriptor(pivot=args.pivot, edge_a=edge_a, edge_b=edge_b)
    before, after = solve_spectra([graph, edge_switch(graph, descriptor)], _parse_window(args))
    if args.drop_level:
        after = drop_levels(after, [args.drop_level])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    sides = {"before": before, "after": after}
    for name, spec in sides.items():
        p = out / f"spectrum_{name}.csv"
        qio.write_spectrum_csv(spec, p)
        paths.append(str(p))
    counting_path = out / "counting.csv"
    qio.write_counting_csv(counting_path, before, after)
    paths.append(str(counting_path))
    shift = shift_distribution(before, after)
    shift_path = out / "shift_distribution.csv"
    qio.write_shift_csv(shift, shift_path)
    paths.append(str(shift_path))

    degree = interlacing_degree(before, after)
    lines = [f"interlacing degree: {degree}"]
    for name, spec in sides.items():
        if spec.status != "ok":
            lines.append("\n  ".join([f"{name}: status {spec.status}", *spec.messages]))
    degraded = not (before.status == after.status == "ok" and degree <= 1)
    return CommandOutcome(1 if degraded else 0, "\n".join(lines), tuple(paths))


def cmd_campaign(args) -> CommandOutcome:
    manifest = load_manifest(args.manifest)
    plan = plan_from_manifest(manifest)
    out_dir = args.out or manifest.get("out_dir")
    if not out_dir:
        raise ValueError("no output directory: pass --out or set out_dir in the manifest")
    result = run_campaign(plan, workers=args.workers)
    paths = qio.emit_campaign_outputs(result, out_dir, manifest)
    lines = [
        f"{len(result.pairs)} pairs solved; "
        f"levels before/after: {result.levels_before}/{result.levels_after}",
        "interlacing degrees: "
        + ", ".join(str(d) for d in result.interlacing_degrees),
        "shift probabilities: "
        + ", ".join(
            f"P({m}) = {p:.4f}"
            for m, p in sorted(result.shift.probabilities.items())
        ),
    ]
    if result.spacings.spacings.size:
        lines.append(
            f"KS(GOE) = {ks_distance(result.spacings, 'GOE'):.4f}, "
            f"KS(GUE) = {ks_distance(result.spacings, 'GUE'):.4f}"
        )
    if result.degraded:
        lines.append(f"DEGRADED pairs: {list(result.degraded_pairs)}")
    return CommandOutcome(1 if result.degraded else 0, "\n".join(lines), tuple(paths))


def cmd_fit_xi(args) -> CommandOutcome:
    sample = qio.read_spacings_csv(args.spacings)
    result = fit_xi(sample)
    paths = ()
    if args.out:
        centers, density = spacing_histogram(sample)
        qio.write_histogram_csv(args.out, centers, density, result.xi)
        paths = (str(args.out),)
    fit = f"(rss/dof = {result.goodness:.3e}, n = {sample.spacings.size})"
    if result.identified:
        summary = f"xi = {result.xi:.4f} +/- {result.xi_uncertainty:.4f} {fit}"
    else:
        summary = (
            f"the sample does not identify xi: the fit gives xi = {result.xi:.4f} "
            f"+/- {result.xi_uncertainty:.4g} on [0, XI_MAX = {XI_MAX:g}] {fit}"
        )
    return CommandOutcome(0, summary, paths)


def cmd_preset(args) -> CommandOutcome:
    if args.action == "list":
        if args.name is not None:
            raise ValueError(f"preset list takes no NAME, got {args.name!r}")
        lines = []
        for name in preset_names():
            p = preset(name)
            lines.append(f"{name}: total length {p.graph.total_length:.4f} m; {p.notes}")
        return CommandOutcome(0, "\n".join(lines))
    if args.name is None:
        raise ValueError("preset dump needs a NAME; `qgraph preset list` lists them")
    p = preset(args.name)
    if not args.out:
        raise ValueError("preset dump needs --out FILE")
    save_graph(p.graph, args.out)
    return CommandOutcome(0, f"wrote {args.name} to {args.out}", (str(args.out),))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Metric-graph spectra under the edge switch: solver, "
        "interlacing checks, and level statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    def add_window(sp):
        window = sp.add_mutually_exclusive_group(required=True)
        window.add_argument("--window-ghz", help="frequency window a:b in GHz")
        window.add_argument("--window-k", help="wavenumber window a:b in rad/m")

    p = sub.add_parser("solve", help="solve one spectrum to CSV")
    p.add_argument("graph")
    add_window(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="solve a switch pair and compare")
    p.add_argument("graph")
    p.add_argument("--pivot", type=int, required=True)
    p.add_argument("--edges", required=True, help="edge ids A,B to switch")
    add_window(p)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--drop-level",
        type=int,
        default=0,
        help="fault injection: drop the n-th level of the switched spectrum",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("campaign", help="run a campaign manifest")
    p.add_argument("manifest")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("fit-xi", help="fit the GOE-GUE transition parameter")
    p.add_argument("spacings", help="spacings CSV (columns index, s)")
    p.add_argument("--out", default=None, help="overlay histogram CSV")
    p.set_defaults(func=cmd_fit_xi)

    p = sub.add_parser("preset", help="list or dump built-in networks")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outcome = args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome.summary)
    for path in outcome.paths:
        print(f"  wrote {path}")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
