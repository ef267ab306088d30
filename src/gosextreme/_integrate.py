"""Thin quadrature layer used by the distribution-function evaluators.

Adaptive panels are delegated to one QUADPACK call (scipy.integrate.quad,
at most 800 subintervals), whose returned error estimate is checked against
the caller's absolute tolerance; a miss raises QuadratureError with the
achieved error.  Every mixture, limit and exact joint df is a finite
sum, and the two-sided range and midrange limits take a fixed
Gauss-Legendre rule over the whole grid (`ranges`); the only serving
caller is that rule's fallback for a point whose two-order estimate
misses its target.  The rest are reference routes (`omega_uu`,
`omega_ll`, `joint_df_direct`, `ranges.adaptive_pair_df`).
"""

from __future__ import annotations

import warnings
from typing import Callable

from scipy import integrate as _sci


class QuadratureError(ArithmeticError):
    """Quadrature did not reach the requested absolute tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


def integrate(f: Callable[[float], float], lo: float, hi: float, abs_tol: float) -> float:
    """Integral of f over (lo, hi); hi may be +inf."""
    if lo == hi:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sci.IntegrationWarning)
        value, err = _sci.quad(f, lo, hi, epsabs=abs_tol / 10.0, epsrel=0.0, limit=800)
    if err > abs_tol:
        raise QuadratureError(
            f"integral over ({lo}, {hi}) did not converge to {abs_tol:.1e}", err
        )
    return value
