"""Regularized incomplete gamma and beta ratio kernels.

Everything downstream (exact GOS distribution functions, the limit
families and the index-law kernels of the mixtures) evaluates through these two
ratios.  They are thin wrappers over scipy's Cephes kernels
`gammainc`, `gammaincc` and `betainc`: each wrapper is one validated
`scipy.special` ufunc call, on Python floats or on numpy arrays (which
broadcast), so whole-grid evaluation pays the call overhead once.  A float
in gives a numpy float (a `float` subclass) out.  `beta_tail`, the tail
P(V > p) of a beta variable, routes the beta ratio at p = 1/2 for the
exact dfs and the unit-exponential index kernel.

Conventions owned here, so callers need no guards of their own, the same
for a float and for every element of an array:

* NaN arguments and arguments outside the domain raise ValueError
  (r <= 0 or x < 0 for the gamma ratios, a, b <= 0 or x outside [0, 1]
  for the beta ratio);
* x = +inf is first-class: Gamma_r(+inf) = 1 and 1 - Gamma_r(+inf) = 0;
* each ratio returns the scipy ufunc's value as it is, unclipped, but for
  the beta ratio at a huge second shape: where `betainc` returns NaN at
  b >= 1e150 and a <= 1e-17 b, I_x(a, b) is its gamma limit Gamma_a(b x),
  whose relative error O(a/b) is below an ulp.  Any other NaN stays NaN,
  and the dfs built from the ratios clip their sums through
  `clip_probability`, which reports it as a numerical failure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc

# Slack within which a probability outside [0, 1] is taken as roundoff.
ROUNDOFF = 1e-9


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def reg_inc_gamma(r, x):
    """Regularized lower incomplete gamma ratio Gamma_r(x).

    Gamma_r(x) = (1/Gamma(r)) * integral_0^x t^(r-1) e^(-t) dt, r > 0, x >= 0.
    """
    ok = np.asarray((r > 0.0) & (x >= 0.0))
    if not ok.all():
        raise domain_error("reg_inc_gamma requires r > 0 and x >= 0", ok, r=r, x=x)
    return _sc.gammainc(r, x)


def reg_inc_gamma_upper(r, x):
    """Complement 1 - Gamma_r(x), computed without cancellation for large x."""
    ok = np.asarray((r > 0.0) & (x >= 0.0))
    if not ok.all():
        raise domain_error("reg_inc_gamma_upper requires r > 0 and x >= 0", ok, r=r, x=x)
    return _sc.gammaincc(r, x)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta ratio I_x(a, b) for real a, b > 0.

    Satisfies I_x(a, b) = 1 - I_{1-x}(b, a); monotone nondecreasing in x.
    """
    ok = np.asarray((a > 0.0) & (b > 0.0) & (0.0 <= x) & (x <= 1.0))
    if not ok.all():
        raise domain_error("reg_inc_beta requires a, b > 0 and x in [0, 1]", ok, x=x, a=a, b=b)
    value = _sc.betainc(a, b, x)
    if np.isnan(value).any():
        # scipy returns NaN from about b = 1e155; at a <= 1e-17 b the ratio
        # is the gamma limit Gamma_a(b x), within O(a/b) relative, below an ulp
        limit = np.isnan(value) & (b >= 1e150) & (a <= 1e-17 * b)
        value = np.where(limit, _sc.gammainc(a, b * x), value)[()]
    return value


def beta_tail(a, b, p, pc):
    """P(V > p) for V ~ Beta(a, b), with pc = 1 - p: 1 - I_p(a, b) below
    p = 1/2 and I_pc(b, a) from there up, so that the ratio taken is the
    one whose argument carries its digits.  Arrays broadcast."""
    low = p < 0.5
    ratio = reg_inc_beta(np.where(low, p, pc), np.where(low, a, b), np.where(low, b, a))
    return np.where(low, 1.0 - ratio, ratio)


def domain_error(requirement: str, ok, **args) -> ValueError:
    """The ValueError for a broken `requirement`: the arguments `args` (which
    broadcast to the shape of the mask `ok`) at its first False element, and
    how many elements are False when there are several, so that a large
    array does not print in full."""
    ok = np.asarray(ok)
    bad = np.flatnonzero(~ok)
    got = ", ".join(f"{name}={float(np.broadcast_to(value, ok.shape).flat[bad[0]])!r}"
                    for name, value in args.items())
    count = f" (the first of {bad.size} of {ok.size} elements)" if ok.size > 1 else ""
    return ValueError(f"{requirement}, got {got}{count}")


def clip_probability(p):
    """p clipped to [0, 1]; ArithmeticError when it (or an element of it)
    lies farther out than ROUNDOFF."""
    inside = np.asarray((-ROUNDOFF <= p) & (p <= 1.0 + ROUNDOFF))
    if not inside.all():
        raise ArithmeticError(
            f"computed probability {float(np.asarray(p)[~inside][0])!r} lies outside [0, 1]")
    return np.clip(p, 0.0, 1.0)
