"""Needlet tight frames over orthonormal SVD bases.

A frame holds, per dyadic level j, the coefficient matrix of its needlets
in the underlying basis: psi[nu, i - freq_lo] = sqrt(weight_nu) *
a(i / 2^j) * e_i(node_nu). Level -1 is the single constant needlet.
Analysis and synthesis are exact finite sums over each level's frequency
window (2^{j-1}, 2^{j+1}), along the last axis of one vector (K,) or of
a stack of runs (R, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NormResolutionError, require_entries
from .filters import Filter, check_partition, filter_a, profile_phi
from .jacobi import (
    JacobiBasis,
    gauss_jacobi_rule,
    gauss_legendre_panels,
    generalized_weight,
    jacobi_eval_all,
)

__all__ = [
    "FrameLevel",
    "NeedletFrame",
    "BesovParams",
    "build_frame",
    "analyze",
    "synthesize",
    "level_sigma",
    "frame_invariants",
    "frame_norm",
    "level_frame_norms",
    "coeff_function_norm",
    "localization_check",
    "besov_seq_norm",
    "best_approx_errors",
    "NODES_EXACT",
    "NODES_PAPER",
]

NODES_EXACT = "exact"
NODES_PAPER = "paper"

_SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class FrameLevel:
    """One dyadic level: nodes, weights, frequency window, needlet coefficients."""

    j: int
    nodes: np.ndarray
    weights: np.ndarray
    freq_lo: int
    psi: np.ndarray  # shape (n_nodes, n_freq)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def freq_hi(self) -> int:
        return self.freq_lo + self.psi.shape[1] - 1

    def mirror(self, nu: int) -> int:
        """Mirror of the 1-based node index nu across the level."""
        return self.n_nodes - nu


@dataclass(frozen=True)
class NeedletFrame:
    """Immutable needlet frame; levels[0] is j = -1, levels[j+1] is level j."""

    basis: JacobiBasis
    filt: Filter
    j_max: int
    nodes_per_level: str
    levels: tuple[FrameLevel, ...]
    exactness_defect: float

    @property
    def budget(self) -> int:
        """Length of the coefficient vectors the frame acts on (frequencies 0..budget-1)."""
        return 2 ** (self.j_max + 1)

    @property
    def exact_dim(self) -> int:
        """Coefficients 0..exact_dim-1 (degree <= 2^j_max) are reconstructed exactly."""
        return 2**self.j_max + 1

    def level(self, j: int) -> FrameLevel:
        if not -1 <= j <= self.j_max:
            raise ValueError(f"level {j} outside [-1, {self.j_max}]")
        return self.levels[j + 1]


@dataclass(frozen=True)
class BesovParams:
    """Smoothness s, integrability pi, fine index r of a Besov-type ball."""

    s: float
    pi: float
    r: float

    def __post_init__(self) -> None:
        if not (self.s > 0 and self.pi >= 1 and self.r >= 1):
            raise ValueError(f"need s > 0, pi >= 1, r >= 1, got {self}")


def _window(j: int) -> tuple[int, int]:
    """Integer frequencies i with a(i / 2^j) possibly nonzero: 2^{j-1} < i < 2^{j+1}."""
    lo = 2 ** (j - 1) + 1 if j >= 1 else 1
    return lo, 2 ** (j + 1) - 1


def _level_rule(basis: JacobiBasis, j: int, nodes_per_level: str) -> tuple[np.ndarray, np.ndarray]:
    n = 2 ** (j + 1) if nodes_per_level == NODES_EXACT else 2**j
    rule = gauss_jacobi_rule(basis, n)
    return rule.nodes, rule.weights


def _gram_defect(psi: np.ndarray, a: np.ndarray) -> float:
    """max |Psi^T Psi - diag(a^2)| of one level: its quadrature exactness defect."""
    return float(np.max(np.abs(psi.T @ psi - np.diag(a**2))))


def build_frame(
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str = NODES_EXACT,
) -> NeedletFrame:
    """Build the needlet frame with levels -1..j_max.

    In the default "exact" mode every level's node count makes the quadrature
    exact for products of two level-j needlets, which is verified per level
    (Psi^T Psi = diag(a_i^2)); a violation aborts with the offending level.
    The "paper" mode (half as many nodes) skips the abort and records the
    defect on the frame instead, since the identity provably fails there.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if nodes_per_level not in (NODES_EXACT, NODES_PAPER):
        raise ValueError(f"unknown nodes_per_level: {nodes_per_level!r}")
    levels = [
        FrameLevel(
            j=-1,
            nodes=np.zeros(1),
            weights=np.ones(1),
            freq_lo=0,
            psi=np.ones((1, 1)),
        )
    ]
    worst = 0.0
    for j in range(j_max + 1):
        lo, hi = _window(j)
        freqs = np.arange(lo, hi + 1)
        avals = filter_a(filt, freqs / 2.0**j)
        try:
            nodes, weights = _level_rule(basis, j, nodes_per_level)
        except InvariantError as exc:
            raise InvariantError(f"level {j}: {exc}") from exc
        base_vals = jacobi_eval_all(basis, hi, nodes)[lo:]
        psi = np.sqrt(weights)[:, None] * (avals[None, :] * base_vals.T)
        defect = _gram_defect(psi, avals)
        worst = max(worst, defect)
        if nodes_per_level == NODES_EXACT and defect > _SELF_CHECK_TOL:
            raise InvariantError(
                f"quadrature exactness self-check failed at level {j} "
                f"(defect {defect:.3e})"
            )
        for arr in (nodes, weights, psi):
            arr.setflags(write=False)
        levels.append(FrameLevel(j, nodes, weights, lo, psi))
    return NeedletFrame(basis, filt, j_max, nodes_per_level, tuple(levels), worst)


def _check_coeffs(frame: NeedletFrame, f_coeffs) -> np.ndarray:
    f = np.asarray(f_coeffs, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] < frame.budget:
        raise ValueError(
            f"coefficients must have shape (K,) or (R, K) with K >= {frame.budget}, "
            f"got shape {f.shape}"
        )
    f = f[..., : frame.budget]
    require_entries(f, np.isfinite(f), "coefficient f", "finite")
    return f


def analyze(frame: NeedletFrame, f_coeffs) -> list[np.ndarray]:
    """Needlet coefficients beta_{j,eta} = sum_i f_i psi^i_{j,eta}, one array per level."""
    f = _check_coeffs(frame, f_coeffs)
    return [f[..., lev.freq_lo : lev.freq_hi + 1] @ lev.psi.T for lev in frame.levels]


def synthesize(frame: NeedletFrame, beta: list[np.ndarray]) -> np.ndarray:
    """Basis coefficients sum_{j,eta} beta_{j,eta} psi^i_{j,eta}."""
    if len(beta) != len(frame.levels):
        raise ValueError(
            f"expected {len(frame.levels)} coefficient levels, got {len(beta)}"
        )
    runs = np.shape(beta[0])[:-1]
    out = np.zeros(runs + (frame.budget,))
    for lev, b in zip(frame.levels, beta):
        b = np.asarray(b, dtype=float)
        if b.shape != runs + (lev.n_nodes,):
            raise ValueError(
                f"level {lev.j}: expected shape {runs + (lev.n_nodes,)}, got {b.shape}"
            )
        require_entries(b, np.isfinite(b), f"level {lev.j} beta", "finite")
        out[..., lev.freq_lo : lev.freq_hi + 1] += b @ lev.psi
    return out


def level_sigma(frame: NeedletFrame, singular_values) -> np.ndarray:
    """Per-level sigma_j, sigma_j^2 = sup_eta sum_i (psi^i_{j,eta} / b_i)^2.

    Index 0 of the result is level -1; index j+1 is level j.
    """
    b = np.asarray(singular_values, dtype=float)
    if b.ndim != 1 or b.shape[0] < frame.budget:
        raise ValueError(f"need {frame.budget} singular values, got shape {b.shape}")
    b = b[: frame.budget]
    require_entries(b, np.isfinite(b) & (b > 0.0), "singular value b", "finite and > 0")
    out = np.empty(len(frame.levels))
    for li, lev in enumerate(frame.levels):
        scaled = lev.psi / b[lev.freq_lo : lev.freq_hi + 1][None, :]
        out[li] = math.sqrt(float(np.max(np.sum(scaled**2, axis=1))))
    return out


def frame_invariants(frame: NeedletFrame) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) rows of the frame invariant suite."""
    gram_defect = zero_sum = norm_max = 0.0
    for lev in frame.levels:
        i = np.arange(lev.freq_lo, lev.freq_hi + 1)
        a = filter_a(frame.filt, i / 2.0**lev.j) if lev.j >= 0 else np.ones(1)
        gram_defect = max(gram_defect, _gram_defect(lev.psi, a))
        if lev.j >= 0:
            zero_sum = max(zero_sum, float(np.max(np.abs(np.sqrt(lev.weights) @ lev.psi))))
        norm_max = max(norm_max, float(np.max(np.sqrt(np.sum(lev.psi**2, axis=1)))))
    xi = np.linspace(1.0, float(2**frame.j_max), 4001)
    return [
        ("partition-of-unity", check_partition(frame.filt, xi), 1e-12),
        ("gram-diagonal", gram_defect, 1e-9),
        ("zero-sum-per-frequency", zero_sum, 1e-10),
        ("needlet-norm<=1", norm_max, 1.0 + 1e-10),
    ]


# ---------------------------------------------------------------------------
# natural-domain integration of needlet functions


def _measure_nodes(basis: JacobiBasis, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Integration nodes x = cos(theta) and weights of the Jacobi measure on [-1, 1]."""
    theta, w = gauss_legendre_panels(0.0, math.pi, n_panels, 16)
    a, b = basis.alpha, basis.beta
    half = theta / 2.0
    density = (
        basis.c_norm
        * (2.0 * np.sin(half) ** 2) ** a
        * (2.0 * np.cos(half) ** 2) ** b
        * np.sin(theta)
    )
    return np.cos(theta), w * density


def _dense_grid(j: int) -> np.ndarray:
    return np.cos(np.linspace(0.0, math.pi, 256 * 2 ** max(j, 0) + 1))


def _block_values(basis: JacobiBasis, block: np.ndarray, lo: int, x: np.ndarray) -> np.ndarray:
    hi = lo + block.shape[1] - 1
    return block @ jacobi_eval_all(basis, hi, x)[lo:]


def _block_lp_norms(
    basis: JacobiBasis, block: np.ndarray, lo: int, j: int, p: float, rtol: float = 1e-3
) -> np.ndarray:
    """L_p norms under the family measure for each row of a coefficient block."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if math.isinf(p):
        vals = _block_values(basis, block, lo, _dense_grid(j))
        return np.max(np.abs(vals), axis=1)
    n_panels = 8 * 2 ** max(j, 0)
    prev = None
    for _ in range(7):
        x, mw = _measure_nodes(basis, n_panels)
        vals = _block_values(basis, block, lo, x)
        integrals = (np.abs(vals) ** p) @ mw
        if prev is not None:
            scale = np.maximum(integrals, 1e-300)
            if np.all(np.abs(integrals - prev) <= rtol * scale):
                return integrals ** (1.0 / p)
        prev = integrals
        n_panels *= 2
    raise NormResolutionError(
        f"L_{p} norm did not stabilize at level {j} (last panel count {n_panels // 2})"
    )


def frame_norm(frame: NeedletFrame, j: int, nu: int, p: float) -> float:
    """L_p norm of the needlet psi_{j, eta_nu} under the family's measure.

    nu is the 1-based node index in the level's stored node order; p may be
    math.inf (dense-grid maximum). The constant needlet (j = -1) has norm 1.
    """
    if j == -1:
        return 1.0
    lev = frame.level(j)
    if not 1 <= nu <= lev.n_nodes:
        raise ValueError(f"nu must be in 1..{lev.n_nodes}, got {nu}")
    block = lev.psi[nu - 1 : nu]
    return float(_block_lp_norms(frame.basis, block, lev.freq_lo, j, p)[0])


def level_frame_norms(frame: NeedletFrame, j: int, p: float) -> np.ndarray:
    """L_p norms of every needlet at level j (vectorized frame_norm)."""
    if j == -1:
        return np.ones(1)
    lev = frame.level(j)
    return _block_lp_norms(frame.basis, lev.psi, lev.freq_lo, j, p)


def coeff_function_norm(frame: NeedletFrame, coeffs, p: float) -> float:
    """L_p norm of the function sum_i coeffs_i e_i under the family's measure."""
    f = _check_coeffs(frame, coeffs)
    return float(_block_lp_norms(frame.basis, f.reshape(1, frame.budget), 0, frame.j_max, p)[0])


def localization_check(frame: NeedletFrame, j: int, nu: int, l: int) -> float:
    """Smallest C with |psi(cos theta)| <= C 2^{j/2} / ((1+2^j|theta-theta_nu|)^l sqrt(omega))
    on a dense theta grid; omega is the generalized weight at scale 2^j."""
    if l < 1:
        raise ValueError(f"decay order l must be >= 1, got {l}")
    if j == -1:
        return 1.0
    lev = frame.level(j)
    if not 1 <= nu <= lev.n_nodes:
        raise ValueError(f"nu must be in 1..{lev.n_nodes}, got {nu}")
    theta = np.linspace(0.0, math.pi, 256 * 2**j + 1)
    x = np.cos(theta)
    vals = _block_values(frame.basis, lev.psi[nu - 1 : nu], lev.freq_lo, x)[0]
    theta_nu = math.acos(float(lev.nodes[nu - 1]))
    envelope = (1.0 + 2.0**j * np.abs(theta - theta_nu)) ** l
    omega = generalized_weight(frame.basis, 2**j, x)
    return float(np.max(np.abs(vals) * envelope * np.sqrt(omega)) / 2.0 ** (j / 2.0))


def besov_seq_norm(frame: NeedletFrame, beta: list[np.ndarray], bp: BesovParams) -> float:
    """Sequence norm || (2^{js} (sum_eta |beta|^pi ||psi||_pi^pi)^{1/pi})_j ||_{l_r}."""
    if len(beta) != len(frame.levels):
        raise ValueError(f"expected {len(frame.levels)} levels, got {len(beta)}")
    terms = np.empty(len(frame.levels))
    for li, lev in enumerate(frame.levels):
        norms = level_frame_norms(frame, lev.j, bp.pi)
        inner = float(np.sum(np.abs(np.asarray(beta[li])) ** bp.pi * norms**bp.pi))
        terms[li] = 2.0 ** (lev.j * bp.s) * inner ** (1.0 / bp.pi)
    if math.isinf(bp.r):
        return float(np.max(terms))
    return float(np.sum(terms**bp.r) ** (1.0 / bp.r))


def best_approx_errors(frame: NeedletFrame, f_coeffs, p: float, j_range) -> np.ndarray:
    """Estimated best-approximation errors E_{2^j}(f, p) for j in j_range.

    Uses the residual of the needlet partial reconstruction through level j,
    whose coefficient multiplier is 1 - phi(i / 2^{j+1}).
    """
    f = _check_coeffs(frame, f_coeffs)
    freqs = np.arange(frame.budget, dtype=float)
    j_list = list(j_range)
    out = np.empty(len(j_list))
    for pos, j in enumerate(j_list):
        mult = 1.0 - profile_phi(frame.filt.profile, freqs / 2.0 ** (j + 1))
        residual = f * mult
        if not np.any(residual):
            out[pos] = 0.0
            continue
        out[pos] = _block_lp_norms(
            frame.basis, residual.reshape(1, frame.budget), 0, frame.j_max, p
        )[0]
    return out
