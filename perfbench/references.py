"""Reference values for every analytic df the benchmark asks the program for.

None of this imports gosextreme.  Each value comes from a route that shares
no code with the one under test:

* closed forms of the limit families at the rank pairs the workloads use
  (upper-upper (r, s) = (2, 1), lower-lower (1, 2), lower-upper (1, 1)),
  obtained from the gamma/exponential representation of the limit points;
* the index-law mixture of those closed forms, integrated in closed form
  against the unit-exponential law and against piecewise-linear tabulated
  laws (the latter by antiderivatives on each segment);
* the exact m-GOS joints from the product representation
  U_(j) = 1 - prod_{i<=j} W_i^(1/gamma_i), which for the rank pairs used
  reduces to incomplete-beta and power expressions;
* one-dimensional integrals, written here in a different variable from
  the program's, for the range/midrange limits that have no closed form.

Special functions come from scipy.special; quadrature from scipy's QUADPACK
binding with tolerances far below the acceptance tolerances.
"""

from __future__ import annotations

import math

from scipy import integrate as sci_integrate
from scipy import special as sc

INF = math.inf
_QUAD_TOL = 1e-13


def _quad(f, lo: float, hi: float) -> float:
    value, _ = sci_integrate.quad(f, lo, hi, epsabs=_QUAD_TOL, epsrel=1e-13, limit=400)
    return value


# --- tail transforms -----------------------------------------------------


def kappa(kind: str, alpha: float | None, x: float) -> float:
    """Upper-side transform (nonincreasing in x)."""
    if kind == "frechet":
        return x**-alpha if x > 0.0 else INF
    if kind == "weibull":
        return (-x) ** alpha if x <= 0.0 else 0.0
    return math.exp(-x)


def rho(kind: str, alpha: float | None, x: float) -> float:
    """Lower-side transform (nondecreasing in x)."""
    if kind == "frechet":
        return (-x) ** -alpha if x < 0.0 else INF
    if kind == "weibull":
        return x**alpha if x >= 0.0 else 0.0
    return math.exp(x)


def parse_tail(text: str) -> tuple[str, float | None]:
    parts = text.split(":")
    return parts[0], (float(parts[1]) if len(parts) == 2 else None)


# --- index laws -----------------------------------------------------------
# A law is ("exponential",), ("degenerate", c) or ("table", ((z, H), ...)).


def _segments(nodes):
    for (z0, h0), (z1, h1) in zip(nodes, nodes[1:]):
        if h1 > h0:
            yield z0, z1, (h1 - h0) / (z1 - z0)


def _mix_antiderivative(law, at_z, exp_mean: float) -> float:
    """int g dH for g with antiderivative at_z and exponential-law mean exp_mean."""
    kind = law[0]
    if kind == "exponential":
        return exp_mean
    if kind == "degenerate":
        raise ValueError("degenerate laws are evaluated at their point mass")
    return sum(slope * (at_z(z1) - at_z(z0)) for z0, z1, slope in _segments(law[1]))


# --- upper-upper, (r, s) = (2, 1) --------------------------------------------
# With R_1 = ell the top limit point is V_1 ~ Gamma(ell) and V_2 = V_1 + E,
# E ~ Exp(1) independent, so P(V_2 > K1, V_1 > K2) for K1 > K2 is
# Q(ell, K1) + e^{-K1} (K1^ell - K2^ell) / Gamma(ell + 1).


def uu21(ell: float, k1: float, k2: float, law) -> float:
    """Mixture (or, for a degenerate law, the limit) of the upper-upper df."""
    if law[0] == "degenerate":
        c = law[1]
        k1, k2 = c * k1, c * k2
        if k1 <= k2:
            return 0.0 if math.isinf(k2) else float(sc.gammaincc(ell, k2))
        if math.isinf(k1):
            return 0.0
        extra = math.exp(-k1 - sc.gammaln(ell + 1.0)) * (k1**ell - k2**ell)
        return float(sc.gammaincc(ell, k1)) + extra
    if k1 <= k2:
        k = k2
        exp_mean = 1.0 - (k / (1.0 + k)) ** ell

        def at_z(z):
            return z * sc.gammaincc(ell, z * k) + ell / k * sc.gammainc(ell + 1.0, z * k)

        return _mix_antiderivative(law, at_z, exp_mean)
    gap = k1**ell - k2**ell
    exp_mean = 1.0 - (k1 / (1.0 + k1)) ** ell + gap / (1.0 + k1) ** (ell + 1.0)

    def at_z(z):
        p = sc.gammainc(ell + 1.0, z * k1)
        return z * sc.gammaincc(ell, z * k1) + ell / k1 * p + gap / k1 ** (ell + 1.0) * p

    return _mix_antiderivative(law, at_z, exp_mean)


# --- lower-lower, (r, s) = (1, 2) --------------------------------------------
# W_1 ~ Exp(1), W_2 = W_1 + Exp(1): P(W_1 <= a, W_2 <= b) = 1 - e^{-a} - a e^{-b}
# for a < b, and Gamma_2(b) = 1 - e^{-b}(1 + b) otherwise.


def ll12(rho1: float, rho2: float, law) -> float:
    a = min(rho1, rho2)
    b = rho2
    if law[0] == "degenerate":
        a, b = law[1] * a, law[1] * b
        if math.isinf(b):
            return 1.0 if a > 0.0 or rho1 >= rho2 else 0.0
        return -math.expm1(-a) - a * math.exp(-b)
    exp_mean = 1.0 - 1.0 / (1.0 + a) - a / (1.0 + b) ** 2

    def at_z(z):
        return z + math.exp(-z * a) / a + a * math.exp(-z * b) * (z * b + 1.0) / b**2

    return _mix_antiderivative(law, at_z, exp_mean)


# --- lower-upper, (r, s) = (1, 1): the joint mixture ------------------------
# int Gamma_1(z rho) Q(ell, z K) dH(z); for a degenerate law this is the
# product of the two fixed-size marginals.


def lu11(ell: float, rho1: float, k2: float, law) -> float:
    if law[0] == "degenerate":
        c = law[1]
        lower = 1.0 if math.isinf(rho1) else -math.expm1(-c * rho1)
        upper = 0.0 if math.isinf(k2) else float(sc.gammaincc(ell, c * k2))
        return lower * upper
    r, k = rho1, k2
    exp_mean = (1.0 - (k / (1.0 + k)) ** ell) - (1.0 - (k / (k + 1.0 + r)) ** ell) / (1.0 + r)
    scale = (k / (k + r)) ** ell / r

    def at_z(z):
        q = sc.gammaincc(ell, z * k)
        whole = z * q + ell / k * sc.gammainc(ell + 1.0, z * k)
        damped = -math.exp(-z * r) * q / r - scale * sc.gammainc(ell, z * (k + r))
        return whole - damped

    return _mix_antiderivative(law, at_z, exp_mean)


# --- exact m-GOS dfs with a logistic parent ---------------------------------


def _logistic_logsf(x: float) -> float:
    return -float(sc.logsumexp([0.0, x]))


def exact_marginal(side: str, m: float, k: float, n: int, rank: int, x: float) -> float:
    """Upper: I_{L_m(x)}(N - R_r + 1, R_r); lower: I_{L_m(x)}(r, N - r + 1)."""
    mp1 = m + 1.0
    ell = k / mp1
    big_n = ell + n - 1.0
    log_lbar = mp1 * _logistic_logsf(x)
    lbar = math.exp(log_lbar)
    if side == "upper":
        rr = ell + rank - 1.0
        return float(sc.betaincc(rr, big_n - rr + 1.0, lbar))
    lm = -math.expm1(log_lbar)
    return float(sc.betainc(float(rank), big_n - rank + 1.0, lm))


def exact_uu21(m: float, k: float, n: int, x: float, y: float) -> float:
    """P(2nd from top < x, max < y).

    T = Lbar_m(2nd from top) ~ Beta(R_2, n - 1) and the max exceeds it
    through one independent factor W^(1/k), which gives
    I^c_c(R_2, n - 1) - q^ell (1 - c)^(n-1) / ((n - 1) B(R_2, n - 1))
    with p = Lbar_m(x), q = Lbar_m(y), c = max(p, q).
    """
    mp1 = m + 1.0
    ell = k / mp1
    r2 = ell + 1.0
    beta_b = n - 1.0
    log_p = mp1 * _logistic_logsf(x)
    log_q = mp1 * _logistic_logsf(y)
    log_c = max(log_p, log_q)
    c = math.exp(log_c)
    head = float(sc.betaincc(r2, beta_b, c))
    log_tail = (
        ell * log_q + beta_b * math.log1p(-c) - math.log(beta_b) - float(sc.betaln(r2, beta_b))
    ) if c < 1.0 else -INF
    return head - math.exp(log_tail)


def exact_ll12(m: float, k: float, n: int, x: float, y: float) -> float:
    """P(min < x, 2nd from bottom < y) from U_(1), U_(2) of the product form:
    1 - c^g1 - g1 b^g2 (1 - c^(m+1)) / (m+1), with a = 1 - F(x), b = 1 - F(y),
    c = max(a, b), g_j = k + (n - j)(m + 1)."""
    mp1 = m + 1.0
    g1 = k + (n - 1.0) * mp1
    g2 = k + (n - 2.0) * mp1
    log_a = _logistic_logsf(x)
    log_b = _logistic_logsf(y)
    log_c = max(log_a, log_b)
    return (
        -math.expm1(g1 * log_c)
        - g1 * math.exp(g2 * log_b) * -math.expm1(mp1 * log_c) / mp1
    )


# --- range and midrange limits ---------------------------------------------


def normal_range_exp(t: float) -> float:
    """Published piecewise form of the standard-normal random range limit
    (m = 0, k = 1, geometric size)."""
    ln4 = math.log(4.0)
    if t == ln4:
        return 2.0 / 3.0
    e = 4.0 * math.exp(-t)
    if t < ln4:
        root = math.sqrt(e - 1.0)
        return (e * math.atan(root) / root - 1.0) / (e - 1.0)
    root = math.sqrt(1.0 - e)
    return (1.0 - 0.5 * e / root * math.log((1.0 + root) / (1.0 - root))) / (1.0 - e)


def cauchy_range_exp(t: float) -> float:
    """Cauchy (m = 0) random range under the geometric size: the mixed
    conditional df int_0^t (y + y/(t-y) + 1)^-2 dy."""
    if t <= 0.0:
        return 0.0
    return _quad(lambda y: (y + y / (t - y) + 1.0) ** -2, 0.0, t)


def logistic_midrange_exp(v: float) -> float:
    return float(sc.expit(v))


def pareto_range_exp(t: float, sigma: float = 1.0) -> float:
    """Max-dominated range (eta = inf) under the geometric size, m = 0, k = 1:
    E[exp(-Z t^-sigma)] = 1 / (1 + t^-sigma)."""
    return 1.0 / (1.0 + t**-sigma) if t > 0.0 else 0.0


_BETA_DEFAULT = 2.0


def _weibull_pair_eta(alpha: float, beta_p: float) -> float:
    c = math.exp(sc.gammaln(alpha + beta_p) - sc.gammaln(alpha) - sc.gammaln(beta_p))
    return (beta_p / c) ** (1.0 / beta_p) * (c / alpha) ** (1.0 / alpha)


def degenerate_range(family: str, statistic: str, t: float) -> float:
    """Fixed-size (degenerate index law at 1) range/midrange limit of the
    CLI example defaults: m = 0, k = 1, sigma = theta = 1, beta = 2."""
    midrange = statistic == "midrange"
    if family in ("lognormal", "exponential", "rayleigh"):
        return math.exp(-math.exp(-t))
    if family == "pareto":
        return math.exp(-1.0 / t) if t > 0.0 else 0.0
    if family == "cauchy":
        # Min-side variable u = 1/y with density e^-u, max factor e^{-1/(v+y)}.
        if midrange:
            upper = -1.0 / t if t < 0.0 else INF
            return _quad(lambda u: math.exp(-u - u / (1.0 + t * u)) if 1.0 + t * u > 0.0
                         else 0.0, 0.0, upper)
        if t <= 0.0:
            return 0.0
        return _quad(lambda u: math.exp(-u - u / (t * u - 1.0)) if t * u > 1.0 else 0.0,
                     1.0 / t, INF)
    if family in ("uniform", "beta", "power"):
        # beta takes alpha = (m + 1) * beta with the CLI's beta = 2
        alpha, beta_p = {"uniform": (1.0, 1.0), "power": (1.0, 1.0),
                         "beta": (_BETA_DEFAULT, _BETA_DEFAULT)}[family]
        eta = 1.0 if family == "uniform" else _weibull_pair_eta(alpha, beta_p)
        # Min-side variable w with density alpha w^(alpha-1) e^(-w^alpha).
        dens = lambda w: alpha * w ** (alpha - 1.0) * math.exp(-(w**alpha))  # noqa: E731
        if midrange:
            ws = t * eta if t > 0.0 else 0.0
            head = -math.expm1(-(ws**alpha))
            return head + _quad(lambda w: math.exp(-((w / eta - t) ** alpha)) * dens(w), ws, INF)
        if t >= 0.0:
            return 1.0
        ws = -t * eta
        head = math.exp(-(ws**alpha))
        return head + _quad(
            lambda w: math.exp(-(max(-(t + w / eta), 0.0) ** alpha)) * dens(w), 0.0, ws
        )
    if family in ("normal", "logistic", "laplace"):
        if midrange:
            arg = 2.0 * t if family == "normal" else t
            return float(sc.expit(arg))
        # int_0^inf exp(-b/tau - tau) dtau = 2 sqrt(b) K_1(2 sqrt(b)), b = e^-t
        root = 2.0 * math.exp(-t / 2.0)
        return float(root * sc.k1e(root) * math.exp(-root))
    raise ValueError(f"no reference for family {family!r}")
