"""Machine-speed yardstick for timings on a shared, noisy machine.

On a machine shared with other tenants the same work can take anywhere from
1x to 2.5x its best time within a few minutes, which no number of repeats
evens out.  The benchmark therefore times `reference_work` next to every
measured interval and rescales the interval to a machine on which
`reference_work` takes REFERENCE_S:

    t_reported = t_measured * REFERENCE_S / t_reference_work

`reference_work` does the same kinds of work as the program (argument
parsing, QUADPACK with a Python integrand calling scipy.special, dict and
list churn) and none of the program's code, so a change to gosextreme moves
t_measured and not the yardstick.  Of the yardsticks tried (a pure-Python
arithmetic loop, a memory sweep over a 16 MB array, and this one), this one
tracked the workloads' slowdowns closest: it cut the quartile spread of
repeated passes from 25-28% raw to 4-9%.
"""

from __future__ import annotations

import argparse
import math
import time

from scipy import integrate, special

REFERENCE_S = 0.0026  # fastest reference_work seen on a 2-core x86-64 Linux container


def reference_work() -> float:
    """Seconds taken by one fixed unit of program-like work."""
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    verbs = parser.add_subparsers(dest="verb")
    for v in range(4):
        sub = verbs.add_parser(f"verb{v}")
        for o in range(10):
            sub.add_argument(f"--opt{o}", type=float, default=1.0)
    parser.parse_args(["verb1", "--opt3", "2.5"])
    for a in (0.5, 1.5, 2.5):
        integrate.quad(lambda u: math.exp(-u) * u**a / (1.0 + special.gammaincc(a, u)),
                       0.0, 20.0, epsabs=1e-10)
    table = {}
    for i in range(2000):
        table[str(i)] = [i, float(i)]
    return time.perf_counter() - t0
