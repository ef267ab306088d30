"""Command-line surface.

Verbs:

  exact      finite-sample df tables (marginal or joint) from gos-core
  limit      fixed-size limit family tables
  mix        random-index mixture tables
  simulate   seeded Monte Carlo report vs the analytic limit
  example    named reproductions of the published range/midrange limits
  selftest   run the invariant suite of `reference`

Numeric options accept the symbolic constants pi, e, ln2, ln4, inf
(optionally negated) next to plain floats; grids are min:max:count with
a default of 41 points.  Every emitted artifact embeds the fully
resolved configuration, so a run can be reproduced byte for byte.
Exit codes: 0 success, 1 usage error, 2 validation or numerical failure,
141 when the reader closes stdout early (as `| head` does).  A verb's
arguments are parsed by that verb's own parser; the top-level parser
serves only help, unknown verbs and arguments the verb leaves over.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import FAMILY_NAMES, example_model, parse_model
from .goscore import joint_df, marginal_lower_df, marginal_upper_df
from .limitlaws import TailTransform
from .montecarlo import SimConfig, analytic_limit_df, run_bivariate_sim
from .params import ExtremeSide, GosParams, RankPair, Regime, UsageError, parse_number, usage_line
from .randomindex import IndexLaw, IndexMode, realizing_mode
from .ranges import STATISTICS, RangeQuery, limit_df, run_statistic_sim

OUTPUT_DIR_ENV = "GOSEXTREME_OUTDIR"

def parse_grid(text: str) -> list[float]:
    """`min:max:count` (count optional), or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [parse_number(parts[0])]
    if len(parts) not in (2, 3):
        raise UsageError(f"grid spec {text!r} is not min:max[:count]")
    lo, hi = parse_number(parts[0]), parse_number(parts[1])
    try:
        count = int(parts[2]) if len(parts) == 3 else 41
    except ValueError as exc:
        raise UsageError(f"grid count in {text!r} is not an integer") from exc
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if count == 1:
        return [lo]
    if math.isinf(lo) or math.isinf(hi):
        raise UsageError(f"grid spec {text!r} spaces {count} points over an infinite range")
    return np.linspace(lo, hi, count).tolist()


@dataclass
class Table:
    """One list of values per name in `columns`, all of one length.  A
    table over the product of two grids passes them as `grid` = (xs, ys):
    `data` then holds the columns after x and y, one value per point,
    x-major."""

    columns: list[str]
    data: list[list[float]]
    config: dict
    grid: tuple[list[float], list[float]] | None = None

    def __post_init__(self):
        size = len(self.data[0]) if self.data else 0
        if not size:
            raise ValueError("refusing to emit an empty table")
        if any(len(column) != size for column in self.data):
            raise ValueError("the columns of a table differ in length")
        if self.grid is not None and size != len(self.grid[0]) * len(self.grid[1]):
            raise ValueError("an xy table needs one row per grid point")


def _interleave(columns: list) -> list:
    """The values of equally long columns, row by row, in one list."""
    flat = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return flat


def emit(table: Table, fmt: str) -> str:
    """Serialize a table; CSV carries the config as # comments."""
    if fmt == "json":
        rows = zip(*table.data)
        if table.grid is not None:
            rows = ((x, y, *values) for (x, y), values in zip(itertools.product(*table.grid), rows))
        return json.dumps(
            {"config": table.config, "columns": table.columns, "rows": list(rows)},
            sort_keys=True,
            indent=2,
        )
    if fmt == "csv":
        lines = [f"# {key}={table.config[key]}" for key in sorted(table.config)]
        lines.append(",".join(table.columns))
        size = len(table.data[0])
        row = ",".join(["%.15g"] * len(table.data)) + "\n"
        if table.grid is None:
            body = (row * size) % tuple(_interleave(table.data))
        else:  # each grid value is formatted once, and heads the rows of its points
            xs, ys = (["%.15g," % v for v in axis] for axis in table.grid)
            points = [x + y for x in xs for y in ys]
            body = (("%s" + row) * size) % tuple(_interleave([points, *table.data]))
        return "\n".join(lines) + "\n" + body
    raise UsageError(f"unknown format {fmt!r}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, in `main`, not at exit
        return
    if not os.path.isabs(out):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            out = os.path.join(base, out)
    with open(out, "w") as handle:
        handle.write(text)


_FIXED_SIZE = IndexLaw.degenerate(1.0)  # the `limit` verb's law, realized by simulate's default
_REGIMES = {"uu": Regime.UPPER_UPPER, "ll": Regime.LOWER_LOWER, "lu": Regime.LOWER_UPPER}


# --- verb runners -----------------------------------------------------------


def _run_exact(args) -> int:
    model = parse_model(args.dist)
    params = GosParams(m=args.m, k=args.k, n=args.n)
    config = {
        "verb": "exact", "dist": model.label(), "m": args.m, "k": args.k,
        "n": args.n, "format": args.format,
    }
    if args.marginal is not None:
        side = ExtremeSide(args.marginal)
        grid = parse_grid(args.grid)
        fn = marginal_upper_df if side == ExtremeSide.UPPER else marginal_lower_df
        values = fn(params, model, args.rank, np.array(grid))
        config.update({"marginal": side.value, "rank": args.rank, "grid": args.grid})
        _write(emit(Table(["x", "value"], [grid, values.tolist()], config), args.format),
               args.out)
        return 0
    if args.regime is None:
        raise UsageError("exact needs either --marginal/--rank or --regime/--r/--s")
    pair = RankPair(r=args.r, s=args.s, regime=_REGIMES[args.regime])
    config.update({
        "regime": args.regime, "r": args.r, "s": args.s,
        "x_grid": args.x_grid, "y_grid": args.y_grid,
    })
    return _xy_table(args, config, lambda x, y: joint_df(params, model, pair, x, y))


def _xy_table(args, config: dict, evaluate) -> int:
    """Write the table of `evaluate` over every (x, y) of the two grids,
    taken in one call with x as a column and y as a row."""
    xs, ys = parse_grid(args.x_grid), parse_grid(args.y_grid)
    values = evaluate(np.array(xs)[:, None], np.array(ys)[None, :])
    table = Table(["x", "y", "value"], [values.ravel().tolist()], config, grid=(xs, ys))
    _write(emit(table, args.format), args.out)
    return 0


def _run_limit_like(args, law: IndexLaw | None) -> int:
    # a limit reads no n; the least one that holds both ranks validates them
    params = GosParams(m=args.m, k=args.k, n=max(args.r, args.s) + 1)
    up = TailTransform.parse(args.upper_tail, ExtremeSide.UPPER) if args.upper_tail else None
    low = TailTransform.parse(args.lower_tail, ExtremeSide.LOWER) if args.lower_tail else None
    regime = _REGIMES[args.regime]
    for side, tail in ((ExtremeSide.UPPER, up), (ExtremeSide.LOWER, low)):
        if side in regime.sides and tail is None:
            raise UsageError(f"regime {args.regime} needs --{side.value}-tail")
    pair = RankPair(r=args.r, s=args.s, regime=regime)
    config = {
        "verb": "mix" if law is not None else "limit",
        "regime": args.regime, "m": args.m, "k": args.k, "r": args.r, "s": args.s,
        "upper_tail": args.upper_tail or "", "lower_tail": args.lower_tail or "",
        "x_grid": args.x_grid, "y_grid": args.y_grid, "format": args.format,
    }
    if law is not None:
        config["H"] = law.label()
    else:
        law = _FIXED_SIZE
    return _xy_table(args, config,
                     lambda x, y: analytic_limit_df(params, pair, up, low, law, x, y))


def _run_simulate(args) -> int:
    model = parse_model(args.dist)
    params = GosParams(m=args.m, k=args.k, n=args.n)
    pair = RankPair(r=args.r, s=args.s, regime=_REGIMES[args.regime])
    xs = parse_grid(args.x_grid)
    ys = parse_grid(args.y_grid) if args.y_grid else [math.inf]
    grid = tuple((x, y) for x in xs for y in ys)
    cfg = SimConfig(
        params=params, model=model, ranks=pair,
        index_mode=IndexMode.parse(args.index),
        replications=args.reps, seed=args.seed, eval_grid=grid,
    )
    report = run_bivariate_sim(cfg)
    if args.format == "json":
        _write(report.to_json(), args.out)
        return 0
    data = [report.empirical, report.analytic, report.standard_errors]
    config = {**report.config, "sup_distance": f"{report.sup_distance:.15g}"}
    table = Table(["x", "y", "empirical", "analytic", "standard_error"], data, config,
                  grid=(xs, ys))
    _write(emit(table, args.format), args.out)
    return 0


def example_names() -> list[str]:
    return sorted(f"{fam}-{stat}" for fam in FAMILY_NAMES for stat in STATISTICS)


def _run_example(args) -> int:
    name = args.name.lower()
    if name not in example_names():
        raise UsageError(
            f"unknown example {args.name!r}; available: {', '.join(example_names())}"
        )
    family, _, stat = name.rpartition("-")
    model = example_model(family, args.m, vars(args))
    law = IndexLaw.parse(args.law)
    n = args.sim_n if args.sim_n is not None else 500
    params = GosParams(m=args.m, k=args.k, n=n)
    query = RangeQuery(model=model, params=params, law=law, statistic=stat)

    if args.at is not None:
        grid = [parse_number(args.at)]
        grid_label = args.at
    else:
        grid_label = args.grid or STATISTICS[stat].grid
        grid = parse_grid(grid_label)

    config = {
        "verb": "example", "name": name, "dist": model.label(),
        "m": args.m, "k": args.k, "law": law.label(), "grid": grid_label,
        "format": args.format,
    }
    columns = ["t", "analytic"]
    analytic = limit_df(query, np.array(grid))
    data = [grid, analytic.tolist()]

    if args.sim_reps:
        mode = realizing_mode(law)
        if mode is None:
            raise UsageError("no built-in sampler realizes this index law")
        report = run_statistic_sim(query, mode, grid, args.sim_reps, args.sim_seed, analytic)
        config.update({
            "sim_n": params.n, "sim_reps": args.sim_reps, "sim_seed": args.sim_seed,
            "sim_index_mode": mode.label(),
            "sim_sup_distance": f"{report.sup_distance:.15g}",
        })
        columns += ["empirical", "stderr"]
        data += [report.empirical, report.standard_errors]
    _write(emit(Table(columns, data, config), args.format), args.out)
    return 0


def _run_selftest(args) -> int:
    from . import reference  # the one verb that reaches the reference routes
    _, failed, lines = reference.run(fast=args.fast)
    _write("\n".join(lines) + "\n", args.out)
    return 2 if failed else 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common_output(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help=f"output path (relative paths join ${OUTPUT_DIR_ENV})")


def _add_gos(p, with_n: bool):
    p.add_argument("--m", type=parse_number, default=0.0)
    p.add_argument("--k", type=parse_number, default=1.0)
    if with_n:
        p.add_argument("--n", type=int, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then kept for the process."""
    parser = _Parser(prog="gosextreme", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    laws, tails = usage_line(IndexLaw.spellings()), usage_line(TailTransform.spellings())
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("exact", help="finite-sample df tables")
    p.add_argument("--dist", "--model", dest="dist", required=True)
    _add_gos(p, with_n=True)
    p.add_argument("--marginal", choices=("upper", "lower"))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--grid", default="-3:3:41")
    p.add_argument("--regime", choices=("uu", "ll"))
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--x-grid", dest="x_grid", default="-3:3:11")
    p.add_argument("--y-grid", dest="y_grid", default="-3:3:11")
    _add_common_output(p)
    p.set_defaults(run=_run_exact)

    for verb in ("limit", "mix"):
        p = sub.add_parser(verb, help=f"{verb} df tables")
        p.add_argument("--regime", choices=("uu", "ll", "lu"), required=True)
        _add_gos(p, with_n=False)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--upper-tail", dest="upper_tail", default=None, help=tails)
        p.add_argument("--lower-tail", dest="lower_tail", default=None, help=tails)
        p.add_argument("--x-grid", dest="x_grid", default="-3:3:11")
        p.add_argument("--y-grid", dest="y_grid", default="-3:3:11")
        if verb == "mix":
            p.add_argument("--H", dest="law", required=True, help=laws)
        _add_common_output(p)
        p.set_defaults(run=(lambda a: _run_limit_like(a, IndexLaw.parse(a.law)))
                       if verb == "mix" else (lambda a: _run_limit_like(a, None)))

    p = sub.add_parser("simulate", help="Monte Carlo vs the analytic limit")
    p.add_argument("--dist", "--model", dest="dist", required=True)
    _add_gos(p, with_n=True)
    p.add_argument("--regime", choices=("uu", "ll", "lu"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--index", default=realizing_mode(_FIXED_SIZE).label(),
                   help=usage_line(IndexMode.spellings()))
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x-grid", dest="x_grid", required=True)
    p.add_argument("--y-grid", dest="y_grid", default=None)
    _add_common_output(p)
    p.set_defaults(run=_run_simulate, format="json")

    p = sub.add_parser("example", help="published range/midrange reproductions")
    p.add_argument("name", help=", ".join(example_names()))
    _add_gos(p, with_n=False)
    p.add_argument("--law", default=IndexLaw.unit_exponential().label(), help=laws)
    p.add_argument("--at", default=None, help="evaluate at a single point")
    p.add_argument("--grid", default=None)
    p.add_argument("--sigma", type=parse_number, default=1.0)
    p.add_argument("--theta", type=parse_number, default=1.0)
    p.add_argument("--alpha", type=parse_number, default=None)
    p.add_argument("--beta", type=parse_number, default=2.0)
    p.add_argument("--sim-n", dest="sim_n", type=int, default=None)
    p.add_argument("--sim-reps", dest="sim_reps", type=int, default=0)
    p.add_argument("--sim-seed", dest="sim_seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(run=_run_example)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--fast", action="store_true", help="skip the Monte Carlo tier")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_run_selftest)

    parser.verbs = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The verb's own parser reads its arguments.  Leftovers, help, an
    unknown verb and an empty line go through the whole parser, which
    reports them under its own usage line."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # QuadratureError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (`| head`): no message, a quiet flush at exit, 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
