"""Command-line interface.

Subcommands: run (one walk, CSV + JSON), compare (multi-method report),
ft-table (recurrence coefficient tables), plot-data (SVG and gnuplot
output). Exit codes: 0 success, 1 verification failure, 2 usage or
config error, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import random
import sys

from .closedform_pure import SWEEP_BITS, working_precision
from .config import ConfigError, WalkConfig, parse_methods, parse_steps
from .core import Distribution
from .horner import f_explicit, f_sequence
from .verify import (
    MODES,
    canonical_json,
    compare_mixed,
    compare_pure,
    evaluate,
    reachable_parities,
)

__all__ = [
    "main",
    "format_probability",
    "emit_distribution_csv",
    "parse_distribution_csv",
    "emit_distribution_json",
    "render_svg",
    "emit_gnuplot",
    "FT_T_MAX",
]


def format_probability(p: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(p))


def _csv_positions(dist: Distribution, parities: set[int]) -> list[int]:
    """Ascending positions for CSV output: the reachable-parity sublattice
    when the walk has a single parity, the full grid otherwise."""
    xs = sorted(dist.positions)
    if len(parities) == 1:
        (par,) = parities
        xs = [x for x in xs if x % 2 == par]
    return xs


def emit_distribution_csv(pairs) -> str:
    lines = ["position,probability"]
    lines.extend(f"{x},{format_probability(p)}" for x, p in pairs)
    return "\n".join(lines) + "\n"


def parse_distribution_csv(text: str) -> list[tuple[int, float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "position,probability":
        raise ConfigError("not a distribution CSV (bad header)")
    out = []
    for line in lines[1:]:
        x, _, p = line.partition(",")
        out.append((int(x), float(p)))
    return out


def emit_distribution_json(dist: Distribution, pairs) -> str:
    doc = {
        "t": dist.t,
        "method": dist.method,
        "mode": dist.mode,
        "probabilities": {str(x): p for x, p in pairs},
    }
    return canonical_json(doc) + "\n"


def _out_base(args, cfg: WalkConfig | None, default: str) -> str:
    base = args.out or (cfg.output if cfg else None) or default
    for ext in (".csv", ".json", ".svg", ".dat"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    return base


def _write(base: str, texts: dict[str, str]) -> str:
    """Write each text to base + its suffix and return the "wrote A and B"
    line, all files or none: a path that is a directory is refused before
    anything is written, each text goes to a new temporary file beside
    its path, and the temporary files are renamed into place only once
    all are written. A file that cannot be written is a ConfigError, so
    the command exits 2; exit 1 is kept for a failed check."""
    paths = [base + suffix for suffix in texts]
    temps: list[str] = []
    try:
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, text in zip(paths, texts.values()):
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append(temp)
                fh.write(text)
        for path, temp in zip(paths, temps):
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps:
            with contextlib.suppress(OSError):  # renamed already, or gone
                os.remove(temp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return "wrote " + " and ".join(paths)


def _load_config(args) -> WalkConfig:
    if not args.config:
        raise ConfigError("--config PATH is required")
    overrides = {}
    if args.method:
        overrides["methods"] = parse_methods(args.method, "--method")
    if args.steps is not None:
        overrides["steps"] = parse_steps(args.steps, "--steps")
    if args.mode:
        overrides["mode"] = args.mode
    # the flags replace the file's fields before the one plan check, so a
    # plan the file names but the flags replace is not checked; compare
    # refuses a walk with nothing to compare before that check
    return WalkConfig.from_file(
        args.config, comparing=args.command == "compare", overrides=overrides
    )


def _one_walk(args) -> tuple[WalkConfig, Distribution]:
    """The config and the distribution of its one method, for run and
    plot-data."""
    cfg = _load_config(args)
    if len(cfg.methods) != 1:
        raise ConfigError(
            f"{args.command} takes exactly one method (use compare for several)"
        )
    return cfg, evaluate(cfg.methods[0], cfg.initial, cfg.params, cfg.steps, cfg.mode)


def cmd_run(args) -> int:
    cfg, dist = _one_walk(args)
    parities = reachable_parities(cfg.initial, cfg.steps)
    pairs = [(x, dist[x]) for x in _csv_positions(dist, parities)]
    print(_write(_out_base(args, cfg, "qwalk-run"), {
        ".csv": emit_distribution_csv(pairs),
        ".json": emit_distribution_json(dist, pairs),
    }))
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    try:
        if cfg.is_mixed:
            report = compare_mixed(
                cfg.initial,
                cfg.steps,
                methods=cfg.methods,
                params=cfg.params,
                tolerances=cfg.tolerances,
            )
        else:
            report = compare_pure(
                cfg.initial,
                cfg.params,
                cfg.steps,
                methods=cfg.methods,
                mode=cfg.mode,
                tolerances=cfg.tolerances,
            )
    except ValueError as exc:
        # a plan the comparison refuses before any route runs, such as a
        # single method: bad input
        raise ConfigError(str(exc)) from exc
    base = _out_base(args, cfg, "qwalk-compare")
    wrote = _write(base, {".json": report.to_json() + "\n"})
    # wall times vary from run to run, so they stay out of the report
    for name, seconds in report.timings.items():
        print(f"time {name}: {seconds:.6f} s", file=sys.stderr)
    if "closed-form" in report.timings and cfg.mode == "adaptive":
        t = cfg.steps
        print(
            f"precision closed-form: {working_precision(t)} bits "
            f"({SWEEP_BITS} + {t.bit_length()}, the bit length of t = {t})",
            file=sys.stderr,
        )

    failures = list(report.failures)
    if args.expect_discrepancy:
        # The literal evaluations are kept to demonstrate a deviation; in
        # this mode their disagreement is the expected outcome.
        literal_failures = [
            msg for msg in failures if "literal" in msg.split(":", 1)[0]
        ]
        other_failures = [m for m in failures if m not in literal_failures]
        if other_failures:
            for msg in other_failures:
                print(f"FAIL {msg}", file=sys.stderr)
            return 1
        if not literal_failures:
            print(
                "FAIL expected a literal-method discrepancy but all methods agree",
                file=sys.stderr,
            )
            return 1
        for msg in literal_failures:
            print(f"expected discrepancy confirmed: {msg}")
        print(wrote)
        return 0
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(wrote)
    return 1 if failures else 0


# the order r of the characteristic relation each --kind tabulates
_FT_ORDERS = {"quad": 2, "quartic": 4}

# The largest --t-max ft-table accepts. The explicit sum over partitions
# grows steeply with t for the quartic: on a 2-core Xeon it takes about
# 1.3 s at t = 100 and 20 s at t = 200.
FT_T_MAX = 100


def _parse_coeffs(text: str, kind: str, want: int) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--coeffs: {exc}") from exc
    if len(values) != want:
        raise ConfigError(f"--coeffs: {kind} needs {want} comma-separated values")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--coeffs: expected finite numbers, got {text}")
    return values


def cmd_ft_table(args) -> int:
    if args.t_max < 0:
        raise ConfigError("--t-max must be non-negative")
    if args.t_max > FT_T_MAX:
        raise ConfigError(f"--t-max {args.t_max} is above the limit of {FT_T_MAX}")
    r = _FT_ORDERS[args.kind]
    if args.coeffs:
        values = _parse_coeffs(args.coeffs, args.kind, r)
    else:
        rng = random.Random(args.seed)
        values = tuple(rng.uniform(-1.0, 1.0) for _ in range(r))
    explicit = [f_explicit(values, t) for t in range(args.t_max + 1)]
    recurrence = f_sequence(values, args.t_max)
    lines = ["t,f_explicit,f_recurrence,abs_diff"]
    for t in range(args.t_max + 1):
        e, rec = complex(explicit[t]), complex(recurrence[t])
        diff = abs(e - rec)
        lines.append(
            f"{t},{format_probability(e.real)},{format_probability(rec.real)},"
            f"{format_probability(diff)}"
        )
    wrote = _write(_out_base(args, None, "qwalk-ft"), {".csv": "\n".join(lines) + "\n"})
    print(f"{wrote} (coeffs: {', '.join(format_probability(v) for v in values)})")
    return 0


def emit_gnuplot(pairs) -> str:
    lines = ["# position probability"]
    lines.extend(f"{x} {format_probability(p)}" for x, p in pairs)
    return "\n".join(lines) + "\n"


def render_svg(pairs, title: str = "") -> str:
    """Self-contained SVG bar chart of a distribution."""
    width, height = 800.0, 420.0
    left, right, top, bottom = 60.0, 20.0, 30.0, 50.0
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = [x for x, _ in pairs]
    ps = [p for _, p in pairs]
    if not xs:
        xs, ps = [0], [0.0]
        pairs = [(0, 0.0)]
    x_lo, x_hi = min(xs), max(xs)
    span = max(x_hi - x_lo, 1)
    p_max = max(max(ps), 1e-300)

    def sx(x: float) -> float:
        return left + (x - x_lo) / span * plot_w

    def sy(p: float) -> float:
        return top + plot_h * (1.0 - p / p_max)

    bar_w = max(plot_w / (len(pairs) + 1) * 0.8, 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black"/>'
    )
    for i in range(5):
        p = p_max * i / 4
        y = sy(p)
        parts.append(
            f'<line x1="{left - 4:.1f}" y1="{y:.1f}" x2="{left:.1f}" y2="{y:.1f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{p:.3g}</text>'
        )
    n_ticks = min(len(xs), 9)
    tick_positions = {
        xs[round(i * (len(xs) - 1) / max(n_ticks - 1, 1))] for i in range(n_ticks)
    }
    for x in sorted(tick_positions):
        px = sx(x)
        parts.append(
            f'<line x1="{px:.1f}" y1="{top + plot_h:.1f}" x2="{px:.1f}" '
            f'y2="{top + plot_h + 4:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{top + plot_h + 18:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{x}</text>'
        )
    for x, p in pairs:
        px = sx(x)
        py = sy(p)
        h = top + plot_h - py
        parts.append(
            f'<rect x="{px - bar_w / 2:.2f}" y="{py:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="#4477aa"/>'
        )
    if len(pairs) > 1:
        points = " ".join(f"{sx(x):.2f},{sy(p):.2f}" for x, p in pairs)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#cc6677" '
            'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot_data(args) -> int:
    cfg, dist = _one_walk(args)
    if args.drop_forbidden_sites:
        xs = _csv_positions(dist, reachable_parities(cfg.initial, cfg.steps))
    else:
        xs = sorted(dist.positions)
    pairs = [(x, dist[x]) for x in xs]
    print(_write(_out_base(args, cfg, "qwalk-plot"), {
        ".svg": render_svg(pairs, f"{dist.method}, t={dist.t}"),
        ".dat": emit_gnuplot(pairs),
    }))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Quantum walk distributions on the line by independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="walk config JSON file")
        p.add_argument("--method", help="method name, or comma-separated list")
        p.add_argument("--steps", type=int, default=None, help="override step count")
        p.add_argument(
            "--mode",
            choices=MODES,
            default=None,
            help="closed-form arithmetic mode",
        )
        p.add_argument("--out", help="output path (extension added per format)")

    p_run = sub.add_parser("run", help="run one walk, write CSV and JSON")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several methods and compare")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--expect-discrepancy",
        action="store_true",
        help="succeed only if the literal method deviates and the rest agree",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_ft = sub.add_parser("ft-table", help="tabulate f_t explicit vs recurrence")
    p_ft.add_argument("--kind", choices=tuple(_FT_ORDERS), default="quad")
    p_ft.add_argument("--coeffs", help="comma-separated coefficients")
    p_ft.add_argument("--t-max", type=int, default=20, dest="t_max")
    p_ft.add_argument("--seed", type=int, default=0, help="seed for random coeffs")
    p_ft.add_argument("--out", help="output path")
    p_ft.set_defaults(func=cmd_ft_table)

    p_plot = sub.add_parser("plot-data", help="emit SVG and gnuplot data")
    add_common(p_plot)
    p_plot.add_argument(
        "--drop-forbidden-sites",
        action="store_true",
        help="omit parity-forbidden sites from the plot",
    )
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
