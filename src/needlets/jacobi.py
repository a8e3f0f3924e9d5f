"""Orthonormal Jacobi polynomials and Gauss-Jacobi quadrature rules.

Rule nodes are eigenvalues of the Jacobi matrix, Newton-polished on the
orthonormal recurrence; weights are Christoffel weights
w = 1 / sum_{k<N} Pi_k(node)^2.

Everything is normalized against the probability measure
dgamma_{alpha,beta}(x) = c_norm (1-x)^alpha (1+x)^beta dx on [-1, 1],
so Pi_0 = 1 and quadrature weights sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import NodeSolveError

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "NodeSolveError",
    "jacobi_params",
    "jacobi_eval_all",
    "jacobi_weighted_sums",
    "generalized_weight",
    "gauss_jacobi_rule",
]


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi weight exponents plus the probability-measure normalization."""

    alpha: float
    beta: float
    c_norm: float


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule: strictly decreasing nodes, positive weights summing to 1."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams


def jacobi_params(alpha: float, beta: float) -> JacobiParams:
    """Build JacobiParams, computing c_norm = 1 / integral (1-x)^a (1+x)^b dx."""
    _check_exponents(alpha, beta)
    # log of 2^(a+b+1) * B(a+1, b+1), kept in log space for large exponents
    log_mass = (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )
    return JacobiParams(float(alpha), float(beta), math.exp(-log_mass))


def _check_exponents(alpha: float, beta: float) -> None:
    if not (alpha > -0.5 and beta > -0.5):
        raise ValueError(f"need alpha > -1/2 and beta > -1/2, got ({alpha}, {beta})")


def _recurrence(params: JacobiParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal a_0..a_{n-1} and off-diagonal sqrt(b_1)..sqrt(b_{n-1}) of the Jacobi matrix.

    Orthonormal three-term recurrence under the probability measure:
    sqrt(b_{k+1}) p_{k+1}(x) = (x - a_k) p_k(x) - sqrt(b_k) p_{k-1}(x).
    """
    a, b = params.alpha, params.beta
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


def jacobi_eval_all(params: JacobiParams, kmax: int, x) -> np.ndarray:
    """Values Pi_0(x)..Pi_kmax(x) of the orthonormal Jacobi polynomials.

    x may be a scalar or an array; the result has shape (kmax+1,) + shape(x).
    """
    _check_exponents(params.alpha, params.beta)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    out = np.empty((kmax + 1,) + xs.shape)
    out[0] = 1.0
    if kmax == 0:
        return out
    diag, off = _recurrence(params, kmax + 1)
    out[1] = (xs - diag[0]) / off[0]
    for k in range(1, kmax):
        out[k + 1] = ((xs - diag[k]) * out[k] - off[k - 1] * out[k - 1]) / off[k]
    return out


def jacobi_weighted_sums(params: JacobiParams, kmax: int, x, v) -> np.ndarray:
    """Sums out[k] = sum_i Pi_k(x_i) v_i for k = 0..kmax.

    Equal to jacobi_eval_all(params, kmax, x) @ v up to rounding, but the
    recurrence runs once over the points and each degree is reduced against
    v as it is formed, so no (kmax+1) x len(x) table is ever held.
    """
    _check_exponents(params.alpha, params.beta)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(v, dtype=float)
    if xs.ndim != 1 or vs.shape != xs.shape:
        raise ValueError(f"need points and values of one shape (n,), got {xs.shape}, {vs.shape}")
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    out = np.empty(kmax + 1)
    out[0] = vs.sum()
    if kmax == 0:
        return out
    diag, off = _recurrence(params, kmax + 1)
    p_prev = np.ones_like(xs)
    p = (xs - diag[0]) / off[0]
    out[1] = p @ vs
    for k in range(1, kmax):
        p_prev, p = p, ((xs - diag[k]) * p - off[k - 1] * p_prev) / off[k]
        out[k + 1] = p @ vs
    return out


def _eval_with_derivative(
    diag: np.ndarray, off: np.ndarray, n: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_n(x), p_n'(x) and sum_{k<n} p_k(x)^2 from the orthonormal recurrence."""
    p_prev = np.ones_like(x)
    p = (x - diag[0]) / off[0]
    d_prev = np.zeros_like(x)
    d = np.full_like(x, 1.0 / off[0])
    kernel = np.ones_like(x)
    for k in range(1, n):
        kernel += p * p
        p_next = ((x - diag[k]) * p - off[k - 1] * p_prev) / off[k]
        d_next = (p + (x - diag[k]) * d - off[k - 1] * d_prev) / off[k]
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d, kernel


def gauss_jacobi_rule(params: JacobiParams, N: int) -> QuadratureRule:
    """N-node Gauss-Jacobi rule, exact on polynomials of degree <= 2N-1.

    Nodes are the zeros of Pi_N: eigenvalues of the symmetric tridiagonal
    Jacobi matrix, Newton-polished to 1e-14. Weights are Christoffel weights
    w = 1 / sum_{k<N} Pi_k(node)^2. Raises NodeSolveError rather than
    returning an uncertified rule.
    """
    _check_exponents(params.alpha, params.beta)
    if N < 1:
        raise ValueError(f"rule order must be >= 1, got {N}")
    diag, off = _recurrence(params, N + 1)
    nodes = eigvalsh_tridiagonal(diag[:N], off[: N - 1])
    for it in range(60):
        p, dp, _ = _eval_with_derivative(diag, off, N, nodes)
        step = p / dp
        nodes = nodes - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        worst = int(np.argmax(np.abs(step)))
        raise NodeSolveError(
            f"Newton polish did not converge for node {worst} of the order-{N} rule"
        )
    _, _, kernel = _eval_with_derivative(diag, off, N, nodes)
    # store in strictly decreasing order (theta = arccos increasing)
    rule = QuadratureRule(N, nodes[::-1].copy(), 1.0 / kernel[::-1], params)
    return _certify(rule)


def _certify(rule: QuadratureRule) -> QuadratureRule:
    nodes, weights = rule.nodes, rule.weights
    ok = (
        np.all(np.abs(nodes) < 1.0)
        and np.all(np.diff(nodes) < 0.0)
        and np.all(weights > 0.0)
        and abs(weights.sum() - 1.0) <= 1e-12
    )
    if not ok:
        raise NodeSolveError(
            f"order-{rule.order} rule failed certification "
            f"(weight sum defect {abs(weights.sum() - 1.0):.3e})"
        )
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return rule


def generalized_weight(params: JacobiParams, n: int, x) -> np.ndarray:
    """Regularized Jacobi weight (1 - x + n^-2)^(a+1/2) (1 + x + n^-2)^(b+1/2)."""
    _check_exponents(params.alpha, params.beta)
    if n < 1:
        raise ValueError(f"scale n must be >= 1, got {n}")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    shift = 1.0 / (n * n)
    return (1.0 - xs + shift) ** (params.alpha + 0.5) * (1.0 + xs + shift) ** (
        params.beta + 0.5
    )
