"""Benchmark of the gosextreme CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's src/ in fresh interpreters, so nothing needs installing.

A run (1) builds the workload's invocations from the seed (workloads.py),
(2) measures setup_s: the median, over SETUP_SPAWNS fresh interpreters after
one warm-up, of the time from spawning one until `import gosextreme.cli`
has returned in it, (3) runs worker.py, which drives gosextreme.cli.main in
one single-threaded process for about S seconds, and (4) checks every value
of the first pass against references.py, untimed.  Every time is rescaled to
a reference machine speed by the yardstick in calibrate.py.  Lines before the last
describe the run; the last line is the JSON result.  With --trace 0 its
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-module ones.
"""

from __future__ import annotations

import os

# Single-threaded numerics in this process and, through the environment, in
# every interpreter it starts.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, reference_work  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 150
WRONG_REFERENCE_SHIFT = 1e-3

class RunError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # A fixed string-hash seed removes one source of process-to-process timing
    # noise (dict and set layouts).
    env["PYTHONHASHSEED"] = "0"
    env.pop("GOSEXTREME_OUTDIR", None)
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median setup time over the spawns, rescaled and raw."""
    code = "import gosextreme.cli; print('ready', flush=True)"
    scaled, raw = [], []
    reference_work()  # warm-up
    before = reference_work()
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RunError("a fresh interpreter could not import gosextreme.cli")
        after = reference_work()
        if i:  # the first spawn also writes the bytecode caches
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S * 2.0 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workdir: str, jobs: list[dict], seconds: int, trace: bool, env: dict) -> dict:
    plan = {"src": SRC, "jobs": [job["argv"] for job in jobs], "seconds": seconds,
            "trace": trace}
    with open(os.path.join(workdir, "plan.json"), "w") as handle:
        json.dump(plan, handle)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir],
                              env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    with open(os.path.join(workdir, "worker.json")) as handle:
        return json.load(handle)


def _median_sum(times: list[list[float]], rows: list[int]) -> float:
    """Sum over jobs of each job's median time across the given passes."""
    return sum(statistics.median(times[p][j] for p in rows) for j in range(len(times[0])))


def _rescaled(result: dict) -> list[list[float]]:
    """Call times rescaled to the reference machine speed (see calibrate.py)."""
    return [[t * REFERENCE_S / y for t, y in zip(row_t, row_y)]
            for row_t, row_y in zip(result["times"], result["yardstick"])]


def _provenance(args, versions: dict) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = out.stdout.strip() or commit
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), **versions,
            "git_commit": commit, **PINNED_THREADS}


def check_all(jobs, workdir, ok_jobs, wrong_reference):
    """Totals over the jobs, totals per finding, and the unexplained failures."""
    totals = checks.JobResult()
    by_finding = {name: checks.JobResult() for name in checks.FINDINGS}
    unexplained = []
    for j, job in enumerate(jobs):
        artifact = checks.read_artifact(os.path.join(workdir, f"job{j}.out")) if ok_jobs[j] \
            else None
        shift = WRONG_REFERENCE_SHIFT if wrong_reference and j == 0 else 0.0
        res = checks.check_job(job, artifact, reference_shift=shift)
        totals.add(res)
        if job["finding"]:
            by_finding[job["finding"]].add(res)
        if res.unexplained or not ok_jobs[j]:
            unexplained.append(
                f"job {j} ({' '.join(job['argv'][:2])}): exit codes and reruns "
                f"{'ok' if ok_jobs[j] else 'FAILED'}, {res.failed} of {res.values} values off "
                f"the reference (worst {res.worst_error:.2e}), {res.sim_disagree} simulated "
                "points beyond 5 SE")
    return totals, by_finding, unexplained


def measure(args) -> tuple[dict, list[str]]:
    if not os.path.isfile(os.path.join(SRC, "gosextreme", "cli.py")):
        raise RunError(f"no gosextreme sources under {SRC}; run from a checkout root")
    env = _child_env()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
        setup_s, setup_raw = measure_setup(env) if not args.trace else (None, None)
        result = run_worker(workdir, jobs, args.seconds, bool(args.trace), env)
        ok_jobs = [all(rc[j] == 0 for rc in result["rc"]) and all(s[j] for s in result["same"])
                   for j in range(len(jobs))]
        totals, by_finding, unexplained = check_all(jobs, workdir, ok_jobs, args.wrong_reference)
        untraced = [p for p, t in enumerate(result["traced"]) if not t]
        traced = [p for p, t in enumerate(result["traced"]) if t]
        times = _rescaled(result)
        fail_frac = totals.failed / totals.values
        sim_frac = totals.sim_disagree / totals.sim_points if totals.sim_points else 0.0
        lines = []
        if args.trace:
            import spans

            metrics = spans.derive(os.path.join(workdir, "spans.npz"), len(traced))
            units = _declared_units("per_layer")
            speed = REFERENCE_S / statistics.median(
                y for p in traced for y in result["yardstick"][p])
            metrics = {name: value * speed if units[name] in ("s", "ms") else value
                       for name, value in metrics.items()}
            metrics["trace.overhead_frac"] = (
                _median_sum(times, traced) / _median_sum(times, untraced) - 1.0)
            metrics["check.fail_frac"] = fail_frac
            metrics["check.sim_disagree_frac"] = sim_frac
        else:
            wall = _median_sum(times, untraced)
            metrics = {
                "setup_s": setup_s,
                "points_per_s": totals.delivered / wall,
                "pass_frac": 1.0 - totals.bad / totals.values,
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            }
            units = _declared_units("end_to_end")
            reps = sum(job["reps"] for job in jobs)
            lines.append(f"reps_per_s {reps / wall:.6g} reps/s" if reps else
                         "reps_per_s n/a (no simulation in this workload)")
            lines.append(f"passes {len(untraced)}; one pass takes {wall:.4f} s rescaled, "
                         f"{_median_sum(result['times'], untraced):.4f} s raw (sums of "
                         f"per-invocation medians); setup {setup_s:.4f} s rescaled, "
                         f"{setup_raw:.4f} s raw")
        lines.append(f"fail_frac {fail_frac:.6g} ratio ({totals.failed} of {totals.values} values)")
        lines.append(f"sim_disagree_frac {sim_frac:.6g} ratio "
                     f"({totals.sim_disagree} of {totals.sim_points} simulated points)")
        for name, agg in by_finding.items():
            if agg.values:
                lines.append(
                    f"finding {name}: {agg.failed} of {agg.values} values off the reference "
                    f"(worst {agg.worst_error:.3g}), {agg.sim_disagree} of {agg.sim_points} "
                    f"simulated points beyond 5 SE -- {checks.FINDINGS[name][1]}")
        lines += [f"UNEXPECTED {msg}" for msg in unexplained]
        lines.append("provenance " + json.dumps(_provenance(args, result["versions"]),
                                                sort_keys=True))
        out = {
            "correct": not unexplained,
            "attempted": sum(len(rc) for rc in result["rc"]),
            "failed": sum(1 for rc in result["rc"] for code in rc if code != 0),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return out, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared_units(group: str) -> dict[str, str]:
    """name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[group]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: small grids and few replications")
    parser.add_argument("--wrong-reference", action="store_true",
                        help=f"smoke test: shift one reference value by {WRONG_REFERENCE_SHIFT}")
    args = parser.parse_args(argv)
    try:
        out, lines = measure(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
