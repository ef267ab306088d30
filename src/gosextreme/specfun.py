"""Regularized incomplete gamma and beta ratio kernels.

Everything downstream (exact GOS distribution functions, the limit
families and the index-law kernels of the mixtures) evaluates through these two
ratios.  They are thin wrappers over scipy's Cephes kernels
`gammainc`, `gammaincc` and `betainc`, called through
`scipy.special.cython_special` rather than the `scipy.special` ufuncs:
the callers pass one Python float at a time, and a ufunc call on a
scalar costs about ten times as much as the kernel itself, while the
scalar entry points cost a fraction of a microsecond at any shape.
`cython_special.betainc` is fused over float and double and rejects
ints, so its arguments are coerced with float().

Conventions owned here, so callers need no guards of their own:

* NaN arguments and arguments outside the domain raise ValueError
  (r <= 0 or x < 0 for the gamma ratios, a, b <= 0 or x outside [0, 1]
  for the beta ratio);
* x = +inf is first-class: Gamma_r(+inf) = 1 and 1 - Gamma_r(+inf) = 0;
* every evaluator returns through `clip_probability`.
"""

from __future__ import annotations

import math

from scipy.special import cython_special as _cs

# Slack within which a probability outside [0, 1] is taken as roundoff.
ROUNDOFF = 1e-9


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def reg_inc_gamma(r: float, x: float) -> float:
    """Regularized lower incomplete gamma ratio Gamma_r(x).

    Gamma_r(x) = (1/Gamma(r)) * integral_0^x t^(r-1) e^(-t) dt, r > 0, x >= 0.
    """
    if not r > 0.0:
        raise ValueError(f"reg_inc_gamma requires r > 0, got r={r}")
    if not x >= 0.0:
        raise ValueError(f"reg_inc_gamma requires x >= 0, got x={x}")
    return _cs.gammainc(r, x)


def reg_inc_gamma_upper(r: float, x: float) -> float:
    """Complement 1 - Gamma_r(x), computed without cancellation for large x."""
    if not r > 0.0:
        raise ValueError(f"reg_inc_gamma_upper requires r > 0, got r={r}")
    if not x >= 0.0:
        raise ValueError(f"reg_inc_gamma_upper requires x >= 0, got x={x}")
    return _cs.gammaincc(r, x)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta ratio I_x(a, b) for real a, b > 0.

    Satisfies I_x(a, b) = 1 - I_{1-x}(b, a); monotone nondecreasing in x.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got x={x}")
    return _cs.betainc(float(a), float(b), float(x))


def clip_probability(p: float) -> float:
    """p clipped to [0, 1]; ArithmeticError when it lies farther out than ROUNDOFF."""
    if not -ROUNDOFF <= p <= 1.0 + ROUNDOFF:
        raise ArithmeticError(f"computed probability {p!r} lies outside [0, 1]")
    return min(max(p, 0.0), 1.0)
