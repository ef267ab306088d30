"""Regularized incomplete gamma and beta ratio kernels.

Everything downstream (exact GOS distribution functions, the limit
families and the index-law kernels of the mixtures) evaluates through these two
ratios.  They are thin wrappers over scipy's Cephes kernels
`gammainc`, `gammaincc` and `betainc`.  Each wrapper takes Python floats
or numpy arrays (which broadcast):

* floats go through `scipy.special.cython_special`, whose scalar entry
  points cost a fraction of a microsecond, where a ufunc call on a scalar
  costs about ten times the kernel itself; `cython_special.betainc` is
  fused over float and double and rejects ints, so its arguments are
  coerced with float();
* arrays go through the `scipy.special` ufuncs, one call per array, so
  whole-grid evaluation pays that call overhead once.

Conventions owned here, so callers need no guards of their own, the same
for a float and for every element of an array:

* NaN arguments and arguments outside the domain raise ValueError
  (r <= 0 or x < 0 for the gamma ratios, a, b <= 0 or x outside [0, 1]
  for the beta ratio);
* x = +inf is first-class: Gamma_r(+inf) = 1 and 1 - Gamma_r(+inf) = 0;
* every evaluator returns through `clip_probability`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc
from scipy.special import cython_special as _cs

# Slack within which a probability outside [0, 1] is taken as roundoff.
ROUNDOFF = 1e-9

_ARRAY = np.ndarray


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def reg_inc_gamma(r, x):
    """Regularized lower incomplete gamma ratio Gamma_r(x).

    Gamma_r(x) = (1/Gamma(r)) * integral_0^x t^(r-1) e^(-t) dt, r > 0, x >= 0.
    """
    if r.__class__ is _ARRAY or x.__class__ is _ARRAY:
        if np.all(r > 0.0) and np.all(x >= 0.0):
            return _sc.gammainc(r, x)
    elif r > 0.0 and x >= 0.0:
        return _cs.gammainc(r, x)
    raise ValueError(f"reg_inc_gamma requires r > 0 and x >= 0, got r={r}, x={x}")


def reg_inc_gamma_upper(r, x):
    """Complement 1 - Gamma_r(x), computed without cancellation for large x."""
    if r.__class__ is _ARRAY or x.__class__ is _ARRAY:
        if np.all(r > 0.0) and np.all(x >= 0.0):
            return _sc.gammaincc(r, x)
    elif r > 0.0 and x >= 0.0:
        return _cs.gammaincc(r, x)
    raise ValueError(f"reg_inc_gamma_upper requires r > 0 and x >= 0, got r={r}, x={x}")


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta ratio I_x(a, b) for real a, b > 0.

    Satisfies I_x(a, b) = 1 - I_{1-x}(b, a); monotone nondecreasing in x.
    """
    if x.__class__ is _ARRAY or a.__class__ is _ARRAY or b.__class__ is _ARRAY:
        if np.all(a > 0.0) and np.all(b > 0.0) and np.all((0.0 <= x) & (x <= 1.0)):
            return _sc.betainc(a, b, x)
    elif a > 0.0 and b > 0.0 and 0.0 <= x <= 1.0:
        return _cs.betainc(float(a), float(b), float(x))
    raise ValueError(f"reg_inc_beta requires a, b > 0 and x in [0, 1], got x={x}, a={a}, b={b}")


def clip_probability(p):
    """p clipped to [0, 1]; ArithmeticError when it (or an element of it)
    lies farther out than ROUNDOFF."""
    if p.__class__ is _ARRAY:
        inside = (-ROUNDOFF <= p) & (p <= 1.0 + ROUNDOFF)
        if not inside.all():
            raise ArithmeticError(
                f"computed probability {float(p[~inside][0])!r} lies outside [0, 1]")
        return np.clip(p, 0.0, 1.0)
    if not -ROUNDOFF <= p <= 1.0 + ROUNDOFF:
        raise ArithmeticError(f"computed probability {p!r} lies outside [0, 1]")
    return min(max(p, 0.0), 1.0)
