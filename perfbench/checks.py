"""Reads the artifacts the program wrote and checks every value in them.

A value fails when it is missing, NaN, outside [0, 1] or farther than the
job's tolerance from the reference in references.py.  A simulated grid point
disagrees when |empirical - analytic| exceeds 5 binomial standard errors,
the error taken as the larger of the empirical and the analytic binomial
error and never below 1/reps, so that points at p = 0 or 1 keep a floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import references as ref

SIM_SE_LIMIT = 5.0

# Recorded seed findings (README.md): name -> (kinds of failure it explains,
# description).  A job tagged with a finding may narrow it to the points whose
# first coordinate lies below job["finding_below"].  Explained failures still
# count in every metric; they only do not make a run incorrect.
FINDINGS = {
    "lu-product": (
        ("reference", "simulation"),
        "mixture_lu returns the product of separately mixed marginals, not the joint "
        "mixture int Gamma_r(z rho)(1 - Gamma_R_s(z kappa^(m+1))) dH(z)"),
    "dependent-carry": (
        ("simulation",),
        "lower regimes under dependent:uniform miss their mixture limit: the carried W_1 "
        "sets the minimum"),
    "laguerre-near-zero": (
        ("reference",),
        "the Gauss-Laguerre fast path of the exponential-law mixture misses mass near "
        "z = 0: the Cauchy random range reads ~0 instead of ~t/3 for t below about 0.01"),
}


@dataclass
class JobResult:
    values: int = 0  # analytic values the job should deliver
    delivered: int = 0
    failed: int = 0  # of those, missing, invalid or off the reference
    sim_points: int = 0
    sim_disagree: int = 0
    bad: int = 0  # values that failed either check
    unexplained: int = 0  # failed checks no recorded finding explains
    worst_error: float = 0.0

    def add(self, other: "JobResult") -> None:
        for name in ("values", "delivered", "failed", "sim_points", "sim_disagree", "bad",
                     "unexplained"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.worst_error = max(self.worst_error, other.worst_error)


def read_artifact(path: str) -> dict:
    """CSV tables (with # config lines) or a simulate JSON report, as columns."""
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        report = json.loads(text)
        return {
            "xy": [tuple(p) for p in report["grid"]],
            "analytic": report["analytic"],
            "empirical": report["empirical"],
            "reps": report["config"]["replications"],
        }
    config, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    x = cols["t"] if "t" in cols else cols["x"]
    out = {"xy": list(zip(x, cols["y"])) if "y" in cols else [(v,) for v in x],
           "analytic": cols["analytic"] if "analytic" in cols else cols["value"]}
    if "empirical" in cols:
        out["empirical"] = cols["empirical"]
        out["reps"] = int(config["sim_reps"])
    return out


def expected_values(job: dict) -> int:
    """How many values a job delivers, from its argv grids."""
    argv = job["argv"]

    def count(flag):
        for item in argv:
            if item.startswith(flag + "="):
                spec = item.split("=", 1)[1].split(":")
                return int(spec[2]) if len(spec) == 3 else 1
        return 1

    if any(item.startswith("--x-grid=") for item in argv):
        return count("--x-grid") * count("--y-grid")
    return count("--grid")


def reference(check: dict, point: tuple) -> float:
    kind = check["kind"]
    if kind in ("uu21", "ll12", "lu11"):
        law = check["law"]
        x, y = point
        if kind == "ll12":
            tail = ref.parse_tail(check["lower"])
            return ref.ll12(ref.rho(*tail, x), ref.rho(*tail, y), law)
        mp1 = check["m"] + 1.0
        ell = check["k"] / mp1
        up = ref.parse_tail(check["upper"])
        if kind == "uu21":
            return ref.uu21(ell, ref.kappa(*up, x) ** mp1, ref.kappa(*up, y) ** mp1, law)
        low = ref.parse_tail(check["lower"])
        return ref.lu11(ell, ref.rho(*low, x), ref.kappa(*up, y) ** mp1, law)
    if kind == "exact_marginal":
        return ref.exact_marginal(check["side"], check["m"], check["k"], check["n"],
                                  check["rank"], point[0])
    if kind == "exact_uu21":
        return ref.exact_uu21(check["m"], check["k"], check["n"], *point)
    if kind == "exact_ll12":
        return ref.exact_ll12(check["m"], check["k"], check["n"], *point)
    if kind == "range_exp":
        fn = {"normal-range": ref.normal_range_exp, "cauchy-range": ref.cauchy_range_exp,
              "logistic-midrange": ref.logistic_midrange_exp,
              "pareto-range": ref.pareto_range_exp}[check["name"]]
        return fn(point[0])
    if kind == "range_degenerate":
        return ref.degenerate_range(check["family"], check["statistic"], point[0])
    raise ValueError(f"unknown check kind {kind!r}")


def check_job(job: dict, artifact: dict | None, reference_shift: float = 0.0) -> JobResult:
    """Check one job's artifact (None when the invocation failed).
    `reference_shift` is added to the first reference value; the smoke test
    uses it to plant a wrong reference."""
    res = JobResult(values=expected_values(job))
    points = artifact["xy"][: res.values] if artifact else []
    analytic = artifact["analytic"][: res.values] if artifact else []
    res.delivered = len(analytic)
    ok_ref = [False] * res.values
    for i, (point, value) in enumerate(zip(points, analytic)):
        want = reference(job["check"], point) + (reference_shift if i == 0 else 0.0)
        err = abs(value - want)
        ok_ref[i] = 0.0 <= value <= 1.0 and err <= job["tol"]
        if math.isfinite(err):
            res.worst_error = max(res.worst_error, err)
    ok_sim = [True] * res.values
    if job["reps"]:
        res.sim_points = res.values
        ok_sim = [False] * res.values
        empirical = artifact["empirical"] if artifact else []
        reps = artifact["reps"] if artifact else 1
        for i, (emp, ana) in enumerate(zip(empirical, analytic)):
            p_emp, p_ana = (min(max(p, 0.0), 1.0) for p in (emp, ana))
            se = max(math.sqrt(p_emp * (1.0 - p_emp) / reps),
                     math.sqrt(p_ana * (1.0 - p_ana) / reps), 1.0 / reps)
            ok_sim[i] = abs(emp - ana) <= SIM_SE_LIMIT * se
    res.failed = ok_ref.count(False)
    res.sim_disagree = ok_sim.count(False) if job["reps"] else 0
    res.bad = sum(1 for a, b in zip(ok_ref, ok_sim) if not (a and b))
    kinds = FINDINGS[job["finding"]][0] if job["finding"] else ()
    for i, (a, b) in enumerate(zip(ok_ref, ok_sim)):
        covered = "finding_below" not in job or (
            i < len(points) and points[i][0] < job["finding_below"])
        res.unexplained += (not a and not (covered and "reference" in kinds)) + (
            not b and not (covered and "simulation" in kinds))
    return res
