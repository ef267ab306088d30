"""Adaptive quadrature for the range rule's fallback and the reference routes.

Each integral is one QUADPACK call (scipy.integrate.quad, at most 800
subintervals) whose error estimate is checked against the caller's
absolute tolerance; a miss raises QuadratureError.  scipy.integrate is
imported on the first call, so importing the package does not load it.
"""

from __future__ import annotations

import warnings
from typing import Callable


class QuadratureError(ArithmeticError):
    """Quadrature did not reach the requested absolute tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


def integrate(f: Callable[[float], float], lo: float, hi: float, abs_tol: float) -> float:
    """Integral of f over (lo, hi); hi may be +inf."""
    if lo == hi:
        return 0.0
    from scipy import integrate as sci

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sci.IntegrationWarning)
        value, err = sci.quad(f, lo, hi, epsabs=abs_tol / 10.0, epsrel=0.0, limit=800)
    if err > abs_tol:
        raise QuadratureError(
            f"integral over ({lo}, {hi}) did not converge to {abs_tol:.1e}", err
        )
    return value
