"""Orthonormal Jacobi polynomials and Gauss-Jacobi quadrature rules.

Rule nodes are zeros of Pi_N, Newton-polished on the orthonormal recurrence
with the derivative from a closed-form Jacobi identity. Newton starts from
the eigenvalues of the dense Jacobi matrix up to order 64 and from Hale &
Townsend's asymptotic guesses above (interior formula plus Bessel-zero
formulas at both ends); weights are Christoffel weights
w = 1 / sum_{k<N} Pi_k(node)^2. Only numpy is needed.

Everything is normalized against the probability measure
dgamma_{alpha,beta}(x) = c_norm (1-x)^alpha (1+x)^beta dx on [-1, 1],
so Pi_0 = 1 and quadrature weights sum to 1. A JacobiBasis carries the
exponents and c_norm; every table, weighted sum and rule runs the one
recurrence generator _orthonormal.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NodeSolveError

__all__ = [
    "JacobiBasis",
    "QuadratureRule",
    "NodeSolveError",
    "MAX_EXPONENT",
    "jacobi_basis",
    "jacobi_eval_all",
    "jacobi_weighted_sums",
    "generalized_weight",
    "gauss_jacobi_rule",
    "gauss_legendre_panels",
]

# c_norm sums lgamma terms that cancel as the exponents grow: its relative
# error is 1e-13 at alpha = beta = 1e3 and 1e-10 at 1e5, so larger
# exponents are refused rather than given a silently wrong normalization
MAX_EXPONENT = 1000.0


@dataclass(frozen=True)
class JacobiBasis:
    """Orthonormal Jacobi polynomials on [-1, 1] under dgamma_{alpha,beta}.

    c_norm = 1 / integral (1-x)^alpha (1+x)^beta dx is computed from the
    exponents at construction, which refuses any pair outside
    (-1/2, MAX_EXPONENT], so every instance is a valid family.
    """

    alpha: float
    beta: float
    c_norm: float = field(init=False)

    def __post_init__(self) -> None:
        a, b = self.alpha, self.beta
        if not (-0.5 < a <= MAX_EXPONENT and -0.5 < b <= MAX_EXPONENT):
            raise ValueError(
                f"need -1/2 < alpha, beta <= {MAX_EXPONENT:g}, got ({a}, {b})"
            )
        # log of 2^(a+b+1) * B(a+1, b+1); within the bounds it lies in
        # (-3, 691), so c_norm is a normal float
        log_mass = (
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
        object.__setattr__(self, "c_norm", math.exp(-log_mass))

    def __str__(self) -> str:
        return f"JacobiBasis(alpha={self.alpha:g}, beta={self.beta:g})"


def jacobi_basis(alpha: float, beta: float) -> JacobiBasis:
    """Jacobi basis family with probability normalization."""
    return JacobiBasis(float(alpha), float(beta))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule: strictly decreasing nodes, positive weights summing to 1."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    basis: JacobiBasis


def _recurrence(basis: JacobiBasis, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal a_0..a_{n-1} and off-diagonal sqrt(b_1)..sqrt(b_{n-1}) of the Jacobi matrix.

    Orthonormal three-term recurrence under the probability measure:
    sqrt(b_{k+1}) p_{k+1}(x) = (x - a_k) p_k(x) - sqrt(b_k) p_{k-1}(x).
    """
    a, b = basis.alpha, basis.beta
    s = a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    if n > 1:
        k = np.arange(1, n, dtype=float)
        diag[1:] = (b * b - a * a) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # k = 1 written with the (1+s) factor cancelled, safe for s near 0
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s)))
        if n > 2:
            k = np.arange(2, n, dtype=float)
            num = 4.0 * k * (k + a) * (k + b) * (k + s)
            den = (2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0)
            off[1:] = np.sqrt(num / den)
    return diag, off


def _orthonormal(diag: np.ndarray, off: np.ndarray, n: int, x: np.ndarray):
    """Yield Pi_0(x), ..., Pi_n(x) along the orthonormal three-term recurrence.

    diag and off are _recurrence's coefficients, at least n of each.
    """
    p_prev = np.ones_like(x)
    yield p_prev
    if n == 0:
        return
    p = (x - diag[0]) / off[0]
    yield p
    for k in range(1, n):
        p_prev, p = p, ((x - diag[k]) * p - off[k - 1] * p_prev) / off[k]
        yield p


def jacobi_eval_all(basis: JacobiBasis, kmax: int, x) -> np.ndarray:
    """Values Pi_0(x)..Pi_kmax(x) of the orthonormal Jacobi polynomials.

    x may be a scalar or an array; the result has shape (kmax+1,) + shape(x).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    out = np.empty((kmax + 1,) + xs.shape)
    diag, off = _recurrence(basis, kmax + 1)
    for k, p in enumerate(_orthonormal(diag, off, kmax, xs)):
        out[k] = p
    return out


def jacobi_weighted_sums(basis: JacobiBasis, kmax: int, x, v) -> np.ndarray:
    """Sums out[k] = sum_i Pi_k(x_i) v_i for k = 0..kmax.

    Equal to jacobi_eval_all(basis, kmax, x) @ v up to rounding, but the
    recurrence runs once over the points and each degree is reduced against
    v as it is formed, so no (kmax+1) x len(x) table is ever held.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(v, dtype=float)
    if xs.ndim != 1 or vs.shape != xs.shape:
        raise ValueError(f"need points and values of one shape (n,), got {xs.shape}, {vs.shape}")
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    degrees = _orthonormal(*_recurrence(basis, kmax + 1), kmax, xs)
    next(degrees)  # Pi_0 = 1 sums to vs.sum()
    return np.array([vs.sum(), *(p @ vs for p in degrees)])


# orders up to this take eigenvalues of the dense Jacobi matrix as Newton
# starting points; above it the asymptotic guesses are used, which at small
# order and large exponents can start two nodes in one root's basin
DENSE_MAX = 64
# nodes nearest each end that take the Bessel-zero guess
EDGE_NODES = 10


def _interior_thetas(a: float, b: float, n: int) -> np.ndarray:
    """Tricomi/Gatteschi-Pittaluga guesses theta_1 < ... < theta_n, x_k = cos(theta_k)."""
    r = 2.0 * n + a + b + 1.0
    t = (2.0 * np.arange(1, n + 1) + a - 0.5) * (np.pi / r)
    half = np.tan(0.5 * t)
    return t + ((0.25 - a * a) / half - (0.25 - b * b) * half) / (r * r)


def _edge_thetas(a: float, b: float, n: int) -> np.ndarray:
    """Gatteschi guesses for the EDGE_NODES zeros nearest x = 1, x_k = cos(theta_k).

    The Bessel zeros j_{a,k} come from McMahon's expansion.
    """
    mu = 4.0 * a * a
    w = 8.0 * (np.arange(1, EDGE_NODES + 1) + 0.5 * a - 0.25) * np.pi
    bessel = (
        0.125 * w
        - (mu - 1.0) / w
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * w**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu**2 - 982.0 * mu + 3779.0) / (15.0 * w**5)
        - 64.0
        * (mu - 1.0)
        * (6949.0 * mu**3 - 153855.0 * mu**2 + 1585743.0 * mu - 6277237.0)
        / (105.0 * w**7)
    )
    rho = n + 0.5 * (a + b + 1.0)
    phi = bessel / rho
    corr = (a * a - 0.25) * (1.0 - phi / np.tan(phi)) / (2.0 * phi) - 0.25 * (
        a * a - b * b
    ) * np.tan(0.5 * phi)
    return phi + corr / (rho * rho)


def _initial_nodes(basis: JacobiBasis, diag: np.ndarray, off: np.ndarray, n: int) -> np.ndarray:
    """Increasing starting points for the Newton polish of the zeros of Pi_n."""
    if n <= DENSE_MAX:
        # eigvalsh reads the lower triangle only
        return np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[: n - 1], -1))
    a, b = basis.alpha, basis.beta
    # index k = 1..n counts from x = 1; each half takes the interior guess
    # expanded about its own end, and the end nodes take the Bessel guesses
    near_one = _interior_thetas(a, b, n)
    near_minus_one = _interior_thetas(b, a, n)[::-1]
    x = np.where(near_one <= 0.5 * np.pi, np.cos(near_one), -np.cos(near_minus_one))
    x[:EDGE_NODES] = np.cos(_edge_thetas(a, b, n))
    x[-EDGE_NODES:] = -np.cos(_edge_thetas(b, a, n))[::-1]
    return x[::-1]


def gauss_jacobi_rule(basis: JacobiBasis, N: int) -> QuadratureRule:
    """N-node Gauss-Jacobi rule, exact on polynomials of degree <= 2N-1.

    Nodes are the zeros of Pi_N, Newton-polished to 1e-14. Newton starts
    from the eigenvalues of the dense Jacobi matrix for N <= 64, and above
    that from asymptotic guesses (Hale & Townsend, SIAM J. Sci. Comput.
    35(2), 2013): Tricomi's interior formula with the Gatteschi-Pittaluga
    correction, and Gatteschi's Bessel-zero formula for the 10 nodes nearest
    each end. Each Newton pass runs the recurrence for values only and takes
    the derivative from the Jacobi identity, with s = alpha + beta,
    (1 - x^2) p_N' = N (alpha - beta - (2N+s) x) p_N / (2N+s)
                     + sqrt(b_N) (2N+s+1) p_{N-1}.
    Weights are Christoffel weights w = 1 / sum_{k<N} Pi_k(node)^2. Raises
    NodeSolveError rather than returning an uncertified rule, and fails fast
    without a RuntimeWarning when a start diverges: the first non-finite
    Newton step is refused by node, and a weight sum that overflows leaves a
    weight of 0 or NaN, which the certification refuses.
    """
    if N < 1:
        raise ValueError(f"rule order must be >= 1, got {N}")
    diag, off = _recurrence(basis, N + 1)
    twice_n_s = 2.0 * N + basis.alpha + basis.beta
    lead = N * (basis.alpha - basis.beta) / twice_n_s
    tail = off[N - 1] * (twice_n_s + 1.0)
    nodes = _initial_nodes(basis, diag, off, N)
    # a node leaves the polish once its own step is <= 1e-14
    active = np.arange(N)
    with np.errstate(all="ignore"):
        for _ in range(60):
            x = nodes[active]
            # the last two values of the recurrence, p_{N-1}(x) and p_N(x)
            p_prev, p = deque(_orthonormal(diag, off, N, x), maxlen=2)
            step = p * (1.0 - x * x) / ((lead - N * x) * p + tail * p_prev)
            if (i := _first_false(np.isfinite(step))) is not None:
                raise NodeSolveError(
                    f"Newton step is not finite for node {active[i]} of the order-{N} rule"
                )
            nodes[active] = x - step
            moving = np.abs(step) > 1e-14
            if not moving.any():
                break
            active = active[moving]
        else:
            worst = int(active[np.argmax(np.abs(step[moving]))])
            raise NodeSolveError(
                f"Newton polish did not converge for node {worst} of the order-{N} rule"
            )
        kernel = sum(p * p for p in _orthonormal(diag, off, N - 1, nodes))
        # store in strictly decreasing order (theta = arccos increasing)
        rule = QuadratureRule(N, nodes[::-1].copy(), 1.0 / kernel[::-1], basis)
    return _certify(rule)


def _first_false(ok: np.ndarray) -> int | None:
    return None if ok.all() else int(np.argmin(ok))


def _certify(rule: QuadratureRule) -> QuadratureRule:
    """Return rule with read-only arrays, or raise naming the condition and entry that fail."""
    nodes, weights = rule.nodes, rule.weights
    if (i := _first_false(np.abs(nodes) < 1.0)) is not None:
        problem = f"node {i} = {nodes[i]:.17g} is not inside (-1, 1)"
    elif (i := _first_false(np.diff(nodes) < 0.0)) is not None:
        problem = (
            f"nodes not strictly decreasing: node {i + 1} = {nodes[i + 1]:.17g} "
            f"is not below node {i} = {nodes[i]:.17g}"
        )
    elif (i := _first_false(weights > 0.0)) is not None:
        problem = f"weight {i} = {weights[i]:.17g} is not > 0"
    elif not abs(weights.sum() - 1.0) <= 1e-12:
        problem = f"weight sum defect {abs(weights.sum() - 1.0):.3e}"
    else:
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return rule
    raise NodeSolveError(f"order-{rule.order} rule failed certification ({problem})")


def generalized_weight(basis: JacobiBasis, n: int, x) -> np.ndarray:
    """Regularized Jacobi weight (1 - x + n^-2)^(a+1/2) (1 + x + n^-2)^(b+1/2)."""
    if n < 1:
        raise ValueError(f"scale n must be >= 1, got {n}")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    shift = 1.0 / (n * n)
    return (1.0 - xs + shift) ** (basis.alpha + 0.5) * (1.0 + xs + shift) ** (
        basis.beta + 0.5
    )


@lru_cache(maxsize=8)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    # every caller shares the cached arrays
    x, w = leggauss(q)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(a: float, b: float, n_panels: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite q-point Gauss-Legendre nodes and weights on n_panels equal panels of [a, b]."""
    bx, bw = _gauss_legendre(q)
    h = (b - a) / n_panels
    starts = a + np.arange(n_panels) * h
    nodes = (starts[:, None] + (bx[None, :] + 1.0) * (h / 2.0)).ravel()
    return nodes, np.tile(bw * (h / 2.0), n_panels)
