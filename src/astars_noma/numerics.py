"""Special-function and quadrature kernel for the closed-form evaluators.

Everything in this module is a pure function of its arguments (no module
state), so it is safe to call concurrently from any number of threads.
Only numpy is required.

Contents
--------
* the regularized lower incomplete gamma and e^x E1(x): a Horner series
  and one backward continued fraction, each at one depth per call
* modified Bessel functions: exponentially scaled I0/I1 and general K_nu
* the half-order Laguerre polynomial L_{1/2}(x), x <= 0, used by Rician
  moments
* Golub-Welsch Gauss rules, nodes the Jacobi-matrix eigenvalues: generalized
  Laguerre (weight t^alpha e^{-t}) and Jacobi (0, 1) for the density 2v on [0, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericIntegrityError",
    "QuadratureRule",
    "bessel_k",
    "exp_e1",
    "gauss_laguerre_rule",
    "gauss_jacobi_rule",
    "laguerre_half",
    "reg_lower_gamma",
]

_EULER_GAMMA = 0.57721566490153286061
_TOL = 1.0e-15
_MAX_ITER = 20000


class NumericIntegrityError(ArithmeticError):
    """A value breaks a structural bound or an iteration fails to converge."""


@dataclass(frozen=True)
class QuadratureRule:
    """Abscissae and weights of a fixed quadrature rule.

    kind is "laguerre" (the Gamma(alpha+1) density t^alpha e^{-t}/Gamma(alpha+1)
    on (0, inf)) or "jacobi" (the density 2v on [0, 1]); either way the
    weights sum to 1.  Nodes are stored strictly increasing and the
    arrays are read-only.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# Incomplete gamma and the exponential integral E1(x) = Gamma(0, x)
# ---------------------------------------------------------------------------

def _p_series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a,x), 0 <= x < a + 1, by the series x^a e^{-x}/Gamma(a+1) sum_k x^k/((a+1)...(a+k))
    (DLMF 8.7.1), in place by Horner s = 1 + s x/(a+k), k = n..1; n puts the tail's
    geometric bound term x/(a+n+1-x) below _TOL at max(x), where terms fall slowest."""
    xmax, term, total = float(x.max()), 1.0, 1.0
    for depth in range(1, _MAX_ITER + 1):
        term *= xmax / (a + depth)
        total += term
        if term * xmax < _TOL * total * (a + depth + 1.0 - xmax):
            break
    else:
        raise NumericIntegrityError("incomplete gamma series failed to converge")
    s = np.ones_like(x)
    for k in range(depth, 0, -1):
        s *= x
        s /= a + k
        s += 1.0
    with np.errstate(divide="ignore"):  # x = 0: exp(-inf) = 0
        return np.exp(a * np.log(x) - x - math.lgamma(a + 1.0)) * s


def _gamma_contfrac(a: float, x: np.ndarray) -> np.ndarray:
    """t = x^a e^{-x}/Gamma(a, x), x >= a + 1 (or a = 0 < x), by the fraction
    t = x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...)) (DLMF 8.9.2), in place
    backward from t_n = x+2n+1-a by t_{i-1} = x+2i-1-a - i(i-a)/t_i; n is 2
    past where a scalar Lentz pass converges at min(x), the slowest."""
    b = float(x.min()) + 1.0 - a
    c, d = math.inf, 1.0 / b
    for depth in range(1, _MAX_ITER + 1):
        an = -depth * (depth - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(c * d - 1.0) < _TOL:
            break
    else:
        raise NumericIntegrityError("incomplete gamma continued fraction failed to converge")
    t = x + (2.0 * (depth + 2) + 1.0 - a)
    head = np.empty_like(x)
    for i in range(depth + 2, 0, -1):
        np.divide(i * (i - a), t, out=t)
        np.add(x, 2.0 * i - 1.0 - a, out=head)
        np.subtract(head, t, out=t)
    return t


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    The series above for x < a + 1, else 1 - x^a e^{-x}/(Gamma(a) t) from
    the fraction above; P(a, inf) = 1; ``x`` is a scalar or an ndarray.  The
    rounding of the exponent a ln x - x sets the error: against mpmath about
    1e-14 at a = 17, 5e-12 at a = 4020.  An a that is not positive and
    finite, or an x that is negative or NaN, raises ValueError."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"gamma shape must be positive and finite, got a={a}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(arr >= 0.0):
        raise ValueError("incomplete gamma argument must be nonnegative, not NaN")
    out = np.ones_like(arr)
    lo = arr < a + 1.0
    hi = ~lo & (arr < math.inf)
    if np.any(lo):
        out[lo] = _p_series(a, arr[lo])
    if np.any(hi):
        xs = arr[hi]
        out[hi] = 1.0 - np.exp(a * np.log(xs) - xs - math.lgamma(a)) / _gamma_contfrac(a, xs)
    return float(out[0]) if np.ndim(x) == 0 else out


# e^x E1(x): coefficients (-1)^k/(k k!), k <= 30, of the series below the
# branch point (later terms fall below 1e-23)
_E1_SERIES = np.array([0.0] + [(-1.0) ** k / (k * math.factorial(k)) for k in range(1, 31)])
_E1_BRANCH = 2.0


def exp_e1(x: np.ndarray) -> np.ndarray:
    """Scaled exponential integral e^x E1(x) for x > 0, elementwise (0 at
    x = inf); a value that is not positive (NaN included) raises ValueError.

    Below x = 2, e^x (-euler - ln x - sum_k (-x)^k/(k k!)) (DLMF 6.6.2), the
    sum by in-place Horner; from 2 on, 1/t of ``_gamma_contfrac`` at a = 0
    (DLMF 6.9), on [2, 10) and [10, inf) apart, so that large arguments skip
    the depth x = 2 needs.  Within 4e-15 of mpmath below 2, 1e-15 above."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("e^x E1(x) needs positive arguments")
    out = np.zeros_like(x)
    lo = x < _E1_BRANCH
    xs = x[lo]
    poly = np.full_like(xs, _E1_SERIES[-1])
    for coef in _E1_SERIES[-2::-1]:
        poly *= xs
        poly += coef
    out[lo] = np.exp(xs) * (-_EULER_GAMMA - np.log(xs) - poly)
    for band in (~lo & (x < 10.0), (x >= 10.0) & (x < math.inf)):
        if np.any(band):
            out[band] = 1.0 / _gamma_contfrac(0.0, x[band])
    return out


# ---------------------------------------------------------------------------
# Modified Bessel functions
# ---------------------------------------------------------------------------

def _bessel_i01e(x: float) -> tuple[float, float]:
    """Exponentially scaled e^{-x} I0(x) and e^{-x} I1(x), x >= 0.

    Power series (all terms positive, no cancellation) below x = 20, the
    large-argument asymptotic expansion above.
    """
    if x < 0.0:
        raise ValueError("scaled Bessel I defined here for x >= 0 only")
    if x == 0.0:
        return 1.0, 0.0
    if x < 20.0:
        t = 0.25 * x * x
        term0 = 1.0
        s0 = 1.0
        term1 = 1.0
        s1 = 1.0
        k = 0
        while term0 > _TOL * s0 or term1 > _TOL * s1:
            k += 1
            term0 *= t / (k * k)
            term1 *= t / (k * (k + 1))
            s0 += term0
            s1 += term1
            if k > 500:  # pragma: no cover
                raise NumericIntegrityError("Bessel I series failed to converge")
        scale = math.exp(-x)
        return scale * s0, scale * s1 * 0.5 * x
    # asymptotic: e^{-x} I_nu(x) ~ (2 pi x)^{-1/2} sum_k (-)^k a_k(nu)/x^k
    out = []
    for mu in (0.0, 4.0):  # mu = 4 nu^2
        s = 1.0
        term = 1.0
        for k in range(1, 40):
            factor = -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
            new = term * factor
            if abs(new) >= abs(term):
                break
            term = new
            s += term
            if abs(term) < _TOL * abs(s):
                break
        out.append(s / math.sqrt(2.0 * math.pi * x))
    return out[0], out[1]


def laguerre_half(x: float) -> float:
    """Half-order Laguerre polynomial L_{1/2}(x) for x <= 0.

    Closed form e^{x/2} [(1 - x) I0(-x/2) - x I1(-x/2)].  At x = -kappa
    (the Rician-moment use, the only one) the Bessel factors are evaluated
    in scaled form so arbitrarily large kappa cannot overflow;
    L_{1/2}(-kappa) is then increasing in kappa with L_{1/2}(0) = 1.
    """
    if not x <= 0.0:
        raise ValueError(f"L_1/2 implemented for x <= 0 only, got x={x}")
    k = -x
    i0e, i1e = _bessel_i01e(0.5 * k)
    return (1.0 + k) * i0e + k * i1e


# mu^2 coefficient of Gamma1: -(euler^3/6 - euler pi^2/12 + zeta(3)/3)
_GAM1_C2 = 0.042002635034095235529


def _chepolsums(mu: float) -> tuple[float, float, float, float]:
    """gam1, gam2, 1/Gamma(1+mu), 1/Gamma(1-mu) for |mu| <= 1/2.

    gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu); the mu -> 0 limit is
    -euler_gamma, approached through a Taylor step to dodge the 0/0
    cancellation near integer orders.
    """
    gampl = 1.0 / math.gamma(1.0 + mu)
    gammi = 1.0 / math.gamma(1.0 - mu)
    if abs(mu) < 1.0e-5:
        gam1 = -_EULER_GAMMA + _GAM1_C2 * mu * mu
    else:
        gam1 = (gammi - gampl) / (2.0 * mu)
    gam2 = 0.5 * (gammi + gampl)
    return gam1, gam2, gampl, gammi


def bessel_k(order: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Real order, with the symmetry K_{-nu} = K_nu.  Temme's series is used
    for x <= 2 and a Steed-type continued fraction for x > 2, both for the
    fractional part |mu| <= 1/2 of the order, followed by the (stable)
    upward recurrence K_{mu+j+1} = K_{mu+j-1} + 2(mu+j)/x K_{mu+j}.
    """
    if x <= 0.0:
        raise ValueError(f"K_nu requires x > 0, got x={x}")
    nu = abs(float(order))
    nl = int(nu + 0.5)
    mu = nu - nl
    mu2 = mu * mu
    if x <= 2.0:
        # Temme series
        x2 = 0.5 * x
        pimu = math.pi * mu
        fact = 1.0 if abs(pimu) < 1.0e-15 else pimu / math.sin(pimu)
        d = -math.log(x2)
        e = mu * d
        fact2 = 1.0 if abs(e) < 1.0e-15 else math.sinh(e) / e
        gam1, gam2, gampl, gammi = _chepolsums(mu)
        ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
        total = ff
        e = math.exp(e)
        p = 0.5 * e / gampl
        q = 0.5 / (e * gammi)
        c = 1.0
        d = x2 * x2
        total1 = p
        for i in range(1, _MAX_ITER):
            ff = (i * ff + p + q) / (i * i - mu2)
            c *= d / i
            p /= (i - mu)
            q /= (i + mu)
            delta = c * ff
            total += delta
            total1 += c * (p - i * ff)
            if abs(delta) < abs(total) * _TOL:
                break
        else:  # pragma: no cover
            raise NumericIntegrityError("Bessel K series failed to converge")
        k_mu = total
        k_mu1 = total1 * 2.0 / x
    else:
        # Steed continued fraction CF2
        b = 2.0 * (1.0 + x)
        d = 1.0 / b
        h = delh = d
        q1 = 0.0
        q2 = 1.0
        a1 = 0.25 - mu2
        q = c = a1
        a = -a1
        s = 1.0 + q * delh
        for i in range(2, _MAX_ITER):
            a -= 2 * (i - 1)
            c = -a * c / i
            qnew = (q1 - b * q2) / a
            q1 = q2
            q2 = qnew
            q += c * qnew
            b += 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h += delh
            dels = q * delh
            s += dels
            if abs(dels / s) < _TOL:
                break
        else:  # pragma: no cover
            raise NumericIntegrityError("Bessel K continued fraction failed to converge")
        h = a1 * h
        k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
        k_mu1 = k_mu * (mu + x + 0.5 - h) / x
    for j in range(nl):
        k_mu, k_mu1 = k_mu1, (mu + j + 1.0) * (2.0 / x) * k_mu1 + k_mu
    return k_mu


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

def _laguerre_pair(size: int, alpha: float, y: np.ndarray):
    """L^alpha_size(y) and L^alpha_{size-1}(y) as (mantissa, mantissa,
    log-scale).

    Three-term recurrence with per-node renormalization so the true values
    mantissa * exp(scale) never overflow even for thousands of terms at
    arguments of a few thousand.
    """
    prev = np.ones_like(y)        # L_0
    cur = 1.0 + alpha - y         # L_1
    scale = np.zeros_like(y)
    for n in range(1, size):
        prev, cur = cur, (((2.0 * n + 1.0 + alpha - y) * cur - (n + alpha) * prev)
                          / (n + 1.0))
        mag = np.maximum(np.abs(cur), np.abs(prev))
        wild = (mag > 1.0e100) | ((mag > 0.0) & (mag < 1.0e-100))
        if np.any(wild):
            factor = np.where(wild, mag, 1.0)
            prev /= factor
            cur /= factor
            scale += np.log(factor)
    return cur, prev, scale


@lru_cache(maxsize=64)
def gauss_laguerre_rule(size: int, alpha: float = 0.0) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the Gamma(alpha+1) density:
    sum_k w_k f(y_k) = int_0^inf t^alpha e^{-t} f(t) dt / Gamma(alpha+1),
    exact for polynomials of degree <= 2K - 1; alpha > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (diagonal 2i+1+alpha, off-diagonal
    sqrt(i(i+alpha))), within about 2e-13 relative of the true zeros at
    K = 200.  Weights come from one Laguerre recurrence pass at the nodes,
    through w_k = Gamma(K+alpha+1)/(K! Gamma(alpha+1)) / (y_k L_K'(y_k)^2)
    with y L_K'(y) = K (L_K(y) - L_{K-1}(y)) - alpha L_{K-1}(y), in log
    form; tail weights whose true value sits below the float64 subnormal
    range are floored at the smallest subnormal so every weight stays
    strictly positive.  Weights sum to 1.
    """
    if not 1 <= size <= 2000:
        raise ValueError(f"Gauss-Laguerre size must be in [1, 2000], got {size}")
    if not alpha > -1.0:
        raise ValueError(f"Gauss-Laguerre alpha must exceed -1, got {alpha}")
    idx = np.arange(size, dtype=float)
    jacobi = np.diag(2.0 * idx + 1.0 + alpha)
    if size > 1:
        off = np.sqrt(idx[1:] * (idx[1:] + alpha))
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    lk, lkm1, scale = _laguerre_pair(size, alpha, nodes)
    log_deriv = np.log(np.abs(size * (lk - lkm1) - alpha * lkm1) / nodes) + scale
    log_w = (math.lgamma(size + alpha + 1.0) - math.lgamma(size + 1.0)
             - math.lgamma(alpha + 1.0) - np.log(nodes) - 2.0 * log_deriv)
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    weights = np.maximum(weights, np.finfo(float).smallest_subnormal)
    return QuadratureRule("laguerre", nodes.copy(), weights)


@lru_cache(maxsize=64)
def gauss_jacobi_rule(size: int) -> QuadratureRule:
    """Gauss-Jacobi (0, 1) rule for the disk-radius density 2v on [0, 1]:
    sum_k w_k f(v_k) = int_0^1 2v f(v) dv, exact for polynomials of degree
    <= 2V - 1.  Golub-Welsch for the weight 1 + x on [-1, 1]: the Jacobi
    matrix has diagonal 1/((2n+1)(2n+3)) and off-diagonal sqrt(n(n+1))/(2n+1)
    (n >= 1); its eigenvalues x give v = (1 + x)/2, the squared first
    components of its eigenvectors the weights, normalised to 1.
    """
    if not 1 <= size <= 2000:
        raise ValueError(f"Gauss-Jacobi size must be in [1, 2000], got {size}")
    n = np.arange(size, dtype=float)
    off = np.sqrt(n[1:] * (n[1:] + 1.0)) / (2.0 * n[1:] + 1.0)
    x, vectors = np.linalg.eigh(np.diag(1.0 / ((2.0 * n + 1.0) * (2.0 * n + 3.0)))
                                + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return QuadratureRule("jacobi", (1.0 + x) / 2.0, weights / weights.sum())
