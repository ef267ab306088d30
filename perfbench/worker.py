"""Runs one workload's invocations through gosextreme.cli.main in this process.

    python3 worker.py WORKDIR

WORKDIR/plan.json names the package source directory, the argv of each job,
the measuring time and whether to trace.  The worker runs whole passes over
the jobs, timing each call of cli.main, while another pass fits in the time,
and at least MIN_PASSES passes.  Pass 0 keeps its artifacts as job<i>.out; later
passes write to rerun.out and are compared with them byte for byte, outside
the timed region.  calibrate.reference_work runs between consecutive calls,
and each call is reported with the mean of the yardstick times on either
side of it.  With tracing on, untraced and traced passes alternate
(untraced first) and the spans of the traced ones go to WORKDIR/spans.npz.
Results go to WORKDIR/worker.json.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

from calibrate import reference_work

MIN_PASSES = 3


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def main() -> int:
    workdir = sys.argv[1]
    with open(os.path.join(workdir, "plan.json")) as handle:
        plan = json.load(handle)
    src = plan["src"]
    import gosextreme
    import gosextreme.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"gosextreme imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    jobs = plan["jobs"]
    tracing = plan["trace"]
    if tracing:
        import spans as tracer

        recorder = tracer.Recorder()
        modules = [sys.modules[name] for name in tracer.LAYERS if name in sys.modules]

    times, yardstick, traced, rcs, same = [], [], [], [], []
    reference_work()  # warm-up
    before = reference_work()
    start = time.perf_counter()
    while True:
        p = len(times)
        pass_start = time.perf_counter()
        traced_pass = tracing and p % 2 == 1
        if traced_pass:
            undo = tracer.install(recorder, modules)
        row_t, row_y, row_rc, row_same = [], [], [], []
        for j, argv in enumerate(jobs):
            first = os.path.join(workdir, f"job{j}.out")
            out = first if p == 0 else os.path.join(workdir, "rerun.out")
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv + ["--out", out])
            except Exception:  # a crash of one invocation is a result, not a stop
                traceback.print_exc()
                rc = -1
            row_t.append(time.perf_counter() - t0)
            after = reference_work()
            row_y.append((before + after) / 2.0)
            before = after
            row_rc.append(rc)
            row_same.append(p == 0 or _read(out) == _read(first))
        if traced_pass:
            tracer.uninstall(undo)
        times.append(row_t)
        yardstick.append(row_y)
        traced.append(traced_pass)
        rcs.append(row_rc)
        same.append(row_same)
        untraced = traced.count(False)
        enough = min(untraced, traced.count(True)) >= 1 if tracing else untraced >= MIN_PASSES
        now = time.perf_counter()
        # Stop once enough passes are done and another would overrun the time.
        if enough and now - start + (now - pass_start) > plan["seconds"]:
            break
    if tracing:
        recorder.dump(os.path.join(workdir, "spans.npz"))
    result = {
        "times": times,
        "yardstick": yardstick,
        "traced": traced,
        "rc": rcs,
        "same": same,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gosextreme": getattr(gosextreme, "__version__", "unknown"),
        },
    }
    with open(os.path.join(workdir, "worker.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
