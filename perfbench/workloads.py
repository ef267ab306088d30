"""The three workloads: CLI invocations generated from the workload seed.

A job is a JSON-ready dict:

  argv     the gosextreme argv (the worker appends --out)
  check    how the benchmark recomputes each value (see checks.py)
  tol      absolute tolerance against that reference
  finding  name of the recorded seed finding the job is subject to, or None
           (finding_below, when present, narrows it to points below that value)
  reps     replications, for the Monte Carlo jobs

The seed sets every --seed/--sim-seed, the tabulated index law and a small
jitter of the grid endpoints.  The program sees only the argv and the law
file.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("mix-tables", "fixed-tables", "mc-verify")

TOL_MIXTURE = 1e-7  # mixtures, ranges and exact dfs
TOL_DEGENERATE = 1e-10  # fixed-size limits: the degenerate-law reduction

EXP_LAW = ["exponential"]
UNIT_LAW = ["degenerate", 1.0]

# Families of `gosextreme example`, with the spec the CLI builds from its defaults.
EXAMPLE_FAMILIES = (
    "normal", "cauchy", "pareto", "uniform", "beta", "power",
    "lognormal", "exponential", "rayleigh", "logistic", "laplace",
)


class _Gen:
    def __init__(self, seed: int, tiny: bool):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny

    def count(self, n: int) -> int:
        return min(n, 3) if self.tiny else n

    def reps(self, n: int) -> int:
        return 400 if self.tiny else n

    def grid(self, lo: float, hi: float, count: int) -> str:
        """min:max:count with both endpoints jittered by up to 1% of the span."""
        span = hi - lo
        lo_j, hi_j = (round(v + 0.01 * span * float(self.rng.uniform(-1.0, 1.0)), 4)
                      for v in (lo, hi))
        return f"{lo_j!r}:{hi_j!r}:{self.count(count)}"

    def sim_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def table_law(self) -> list[list[float]]:
        """Five-node piecewise-linear H on roughly [0.3, 3]."""
        z = 0.2 + float(self.rng.uniform(0.0, 0.2))
        hs = sorted(float(h) for h in self.rng.uniform(0.05, 0.95, size=3))
        nodes = [[round(z, 4), 0.0]]
        for h in hs + [1.0]:
            z += 0.3 + float(self.rng.uniform(0.0, 0.5))
            nodes.append([round(z, 4), round(h, 4)])
        return nodes


def _job(argv, check, tol, finding=None, reps=0):
    return {"argv": argv, "check": check, "tol": tol, "finding": finding, "reps": reps}


def _mix_tables(g: _Gen, law_path: str) -> list[dict]:
    table = g.table_law()
    with open(law_path, "w") as handle:
        handle.write("z,H\n" + "".join(f"{z!r},{h!r}\n" for z, h in table))
    m, k = 0.5, 1.0
    jobs = []
    for h_arg, law in (("exponential", EXP_LAW), (f"table:{law_path}", ["table", table])):
        common = ["--m", str(m), "--k", str(k), "--H", h_arg]
        # The README upper-upper line on 4x4 of its 11x11 grid: at ~0.1-0.3 s
        # a point, the full grid alone would outlast a run.
        grid = g.grid(0.5, 4.0, 4)
        jobs.append(_job(
            ["mix", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "frechet:1",
             f"--x-grid={grid}", f"--y-grid={grid}", *common],
            {"kind": "uu21", "m": m, "k": k, "upper": "frechet:1", "law": law}, TOL_MIXTURE))
        grid = g.grid(0.2, 3.0, 11)
        jobs.append(_job(
            ["mix", "--regime", "ll", "--r", "1", "--s", "2", "--lower-tail", "weibull:1",
             f"--x-grid={grid}", f"--y-grid={grid}", *common],
            {"kind": "ll12", "lower": "weibull:1", "law": law}, TOL_MIXTURE))
        jobs.append(_job(
            ["mix", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:1",
             "--upper-tail", "frechet:1", f"--x-grid={g.grid(0.2, 3.0, 11)}",
             f"--y-grid={g.grid(0.5, 4.0, 11)}", *common],
            {"kind": "lu11", "m": m, "k": k, "lower": "weibull:1", "upper": "frechet:1",
             "law": law}, TOL_MIXTURE, finding="lu-product"))
    # 21 points rather than the 41-point default: shorter passes, more of them
    # in a run, steadier medians.
    for name, lo, hi in (("normal-range", -2.0, 6.0), ("cauchy-range", -2.0, 6.0),
                         ("logistic-midrange", -4.0, 4.0)):
        jobs.append(_job(["example", name, f"--grid={g.grid(lo, hi, 21)}"],
                         {"kind": "range_exp", "name": name}, TOL_MIXTURE))
    # The jittered grid puts a point in (0, 0.01) for a few seeds in a hundred.
    jobs[-2].update(finding="laguerre-near-zero", finding_below=0.05)
    return jobs


def _fixed_tables(g: _Gen) -> list[dict]:
    m, k = 0.5, 1.3
    mp1 = m + 1.0
    jobs = []
    gos = ["--dist", "logistic", "--m", str(m), "--k", str(k)]
    for n in (5, 50, 500, 2000):
        big_n = k / mp1 + n - 1.0
        up = math.log(big_n) / mp1  # where N * Lbar_m(x) is about 1
        low = -math.log(mp1 * big_n)  # where N * L_m(x) is about 1
        for side, centre in (("upper", up), ("lower", low)):
            lo, hi = (centre - 2.0, centre + 4.0) if side == "upper" else (centre - 4.0, centre + 2.0)
            jobs.append(_job(
                ["exact", *gos, "--n", str(n), "--marginal", side, "--rank", "1",
                 f"--grid={g.grid(lo, hi, 41)}"],
                {"kind": "exact_marginal", "side": side, "m": m, "k": k, "n": n, "rank": 1},
                TOL_MIXTURE))
        grid = g.grid(up - 2.0, up + 4.0, 11)
        jobs.append(_job(
            ["exact", *gos, "--n", str(n), "--regime", "uu", "--r", "2", "--s", "1",
             f"--x-grid={grid}", f"--y-grid={grid}"],
            {"kind": "exact_uu21", "m": m, "k": k, "n": n}, TOL_MIXTURE))
        grid = g.grid(low - 4.0, low + 2.0, 7)
        jobs.append(_job(
            ["exact", *gos, "--n", str(n), "--regime", "ll", "--r", "1", "--s", "2",
             f"--x-grid={grid}", f"--y-grid={grid}"],
            {"kind": "exact_ll12", "m": m, "k": k, "n": n}, TOL_MIXTURE))
    lim = ["--m", str(m), "--k", str(k)]
    grid_up, grid_low = g.grid(-2.0, 4.0, 41), g.grid(0.05, 3.0, 41)
    jobs.append(_job(
        ["limit", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "gumbel",
         f"--x-grid={grid_up}", f"--y-grid={grid_up}", *lim],
        {"kind": "uu21", "m": m, "k": k, "upper": "gumbel", "law": UNIT_LAW}, TOL_DEGENERATE))
    jobs.append(_job(
        ["limit", "--regime", "ll", "--r", "1", "--s", "2", "--lower-tail", "weibull:2",
         f"--x-grid={grid_low}", f"--y-grid={grid_low}", *lim],
        {"kind": "ll12", "lower": "weibull:2", "law": UNIT_LAW}, TOL_DEGENERATE))
    jobs.append(_job(
        ["limit", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:2",
         "--upper-tail", "gumbel", f"--x-grid={grid_low}", f"--y-grid={grid_up}", *lim],
        {"kind": "lu11", "m": m, "k": k, "lower": "weibull:2", "upper": "gumbel",
         "law": UNIT_LAW}, TOL_DEGENERATE))
    for family in EXAMPLE_FAMILIES:
        for stat, (lo, hi) in (("range", (-2.0, 6.0)), ("midrange", (-4.0, 4.0))):
            jobs.append(_job(
                ["example", f"{family}-{stat}", "--law", "degenerate:1",
                 f"--grid={g.grid(lo, hi, 41)}"],
                {"kind": "range_degenerate", "family": family, "statistic": stat},
                TOL_DEGENERATE))
    return jobs


def _mc_verify(g: _Gen) -> list[dict]:
    reps = g.reps(6000)
    jobs = []

    def simulate(dist, m, k, n, regime, index, xg, yg, check, tol, finding=None):
        r, s = {"uu": ("2", "1"), "ll": ("1", "2"), "lu": ("1", "1")}[regime]
        argv = ["simulate", "--dist", dist, "--m", str(m), "--k", str(k), "--n", str(n),
                "--regime", regime, "--r", r, "--s", s, "--index", index, "--reps", str(reps), "--seed", str(g.sim_seed()),
                f"--x-grid={g.grid(*xg, 4)}", f"--y-grid={g.grid(*yg, 4)}"]
        jobs.append(_job(argv, check, tol, finding, reps))

    # README simulate line: Cauchy upper pair under the geometric size.
    simulate("cauchy", 0.0, 1.0, 500, "uu", "geometric", (0.5, 6.0), (0.5, 6.0),
             {"kind": "uu21", "m": 0.0, "k": 1.0, "upper": "frechet:1", "law": EXP_LAW},
             TOL_MIXTURE)
    simulate("exponential(sigma=1)", 0.0, 1.0, 5000, "lu", "geometric", (0.1, 3.0), (-1.0, 3.0),
             {"kind": "lu11", "m": 0.0, "k": 1.0, "lower": "weibull:1", "upper": "gumbel",
              "law": EXP_LAW}, TOL_MIXTURE, finding="lu-product")
    # The carried W_1 path of the dependent index.
    simulate("logistic", 0.0, 1.0, 500, "ll", "dependent:uniform:0.5:1.5", (-2.0, 2.0),
             (-2.0, 2.0),
             {"kind": "ll12", "lower": "gumbel", "law": ["table", [[0.5, 0.0], [1.5, 1.0]]]},
             TOL_MIXTURE, finding="dependent-carry")
    simulate("power(alpha=1)", 0.5, 1.3, 5000, "uu", "fixed", (-3.0, -0.2), (-3.0, -0.2),
             {"kind": "uu21", "m": 0.5, "k": 1.3, "upper": "weibull:1", "law": UNIT_LAW},
             TOL_DEGENERATE)
    for name, lo, hi in (("pareto-range", 0.5, 6.0), ("logistic-midrange", -4.0, 4.0)):
        jobs.append(_job(
            ["example", name, f"--grid={g.grid(lo, hi, 21)}", "--sim-n", "500",
             "--sim-reps", str(reps), "--sim-seed", str(g.sim_seed())],
            {"kind": "range_exp", "name": name}, TOL_MIXTURE, reps=reps))
    return jobs


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """Jobs of one workload; writes any input file the program reads into workdir."""
    g = _Gen(seed, tiny)
    if workload == "mix-tables":
        return _mix_tables(g, os.path.join(workdir, "index_law.csv"))
    if workload == "fixed-tables":
        return _fixed_tables(g)
    if workload == "mc-verify":
        return _mc_verify(g)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
