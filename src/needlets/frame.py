"""Needlet tight frames over orthonormal SVD bases.

A frame holds, per dyadic level j, the coefficient matrix of its needlets
in the underlying basis: psi[nu, i - freq_lo] = sqrt(weight_nu) *
a(i / 2^j) * e_i(node_nu). Level -1 is the single constant needlet.
Analysis and synthesis are exact finite sums over each level's frequency
window (2^{j-1}, 2^{j+1}), along the last axis of one vector (K,) or of
a stack of runs (R, K). Both may stop at a top level: the levels above it
are returned as zeros and never multiplied.

Each level's psi is F-ordered and written degree by degree along the Jacobi
recurrence; the build self-check, the invariant suite and level_sigma read
it in blocks of BLOCK columns or rows, so beside the frame they hold one
block at most. Needlets are evaluated on [-1, 1] one block of points at a
time for whole levels (norms, localization): one basis table of at most
TABLE entries and one product with the psi rows per block, so no whole-grid
table is formed. A single needlet (rendering) is summed degree by degree
along the recurrence, so its values round the same at every point whatever
the grid or the BLAS threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NormResolutionError, require_entries
from .filters import Filter, check_partition, filter_a
from .jacobi import (
    JacobiBasis,
    _orthonormal,
    _recurrence,
    gauss_jacobi_rule,
    gauss_legendre_panels,
    generalized_weight,
    jacobi_eval_all,
)

__all__ = [
    "FrameLevel",
    "NeedletFrame",
    "build_frame",
    "analyze",
    "synthesize",
    "level_sigma",
    "frame_invariants",
    "level_frame_norms",
    "needlet_values",
    "localization_check",
    "NODES_EXACT",
    "NODES_PAPER",
]

NODES_EXACT = "exact"
NODES_PAPER = "paper"

_SELF_CHECK_TOL = 1e-9
# columns (Gram defect) or rows (needlet norms, frame save and load) of psi
# taken at once; at jmax 11 a block's products stay near 10 MB
BLOCK = 512
# basis-table entries (degrees x points) formed at once when needlets are
# evaluated on [-1, 1]; a level has no more psi rows than degrees, so a
# block's table and its values stay near 16 MB each at every level
TABLE = 2**21


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


def _level_window(filt: Filter, j: int, nodes_per_level: str) -> tuple[int, int, np.ndarray]:
    """(n_nodes, freq_lo, a) of level j; level -1 is (1, 0, [1.0]).

    Level j >= 0 holds the filter values a(i / 2^j) where they may be nonzero,
    2^{j-1} < i < 2^{j+1}, on 2^{j+1} nodes ("exact") or 2^j ("paper").
    """
    if j == -1:
        return 1, 0, np.ones(1)
    lo = 2 ** (j - 1) + 1 if j >= 1 else 1
    n_nodes = 2 ** (j + 1) if nodes_per_level == NODES_EXACT else 2**j
    return n_nodes, lo, filter_a(filt, np.arange(lo, 2 ** (j + 1)) / 2.0**j)


def _gram_defect(psi: np.ndarray, a: np.ndarray) -> float:
    """max |Psi^T Psi - diag(a^2)| of one level: its quadrature exactness defect.

    Every entry of the Gram matrix is checked, one block of BLOCK columns at
    a time: the block's own square with a^2 taken off its diagonal, then its
    products with all columns to its right (the entries to its left are the
    transposes of products already checked). No Gram-sized array is formed.
    """
    n = psi.shape[1]
    worst = 0.0
    for c0 in range(0, n, BLOCK):
        c1 = min(c0 + BLOCK, n)
        blk = psi[:, c0:c1]
        gram = blk.T @ blk
        gram.flat[:: c1 - c0 + 1] -= a[c0:c1] ** 2
        worst = max(worst, float(np.max(np.abs(gram, out=gram))))
        if c1 < n:
            right = blk.T @ psi[:, c1:]
            worst = max(worst, float(np.max(np.abs(right, out=right))))
    return worst


def _level_psi(basis: JacobiBasis, nodes, weights, lo: int, avals: np.ndarray) -> np.ndarray:
    """psi[nu, i - lo] = sqrt(w_nu) * (a_i * Pi_i(x_nu)), filled degree by degree.

    psi is F-ordered, so each degree's column is contiguous; the levels read
    and written by frameio use the same layout, which keeps BLAS rounding in
    analyze/synthesize the same for built and loaded frames.
    """
    hi = lo + avals.shape[0] - 1
    psi = np.empty((nodes.shape[0], avals.shape[0]), order="F")
    sqrt_w = np.sqrt(weights)
    for i, p in enumerate(_orthonormal(*_recurrence(basis, hi + 1), hi, nodes)):
        if i >= lo:
            psi[:, i - lo] = sqrt_w * (avals[i - lo] * p)
    return psi


def build_frame(
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str = NODES_EXACT,
) -> NeedletFrame:
    """Build the needlet frame with levels -1..j_max in one loop over _level_window.

    Level j >= 0 takes the Gauss-Jacobi rule of its node count, level -1 node
    0 with weight 1. In the default "exact" mode every level's node count
    makes the quadrature exact for products of two level-j needlets, which is
    verified per level (Psi^T Psi = diag(a_i^2)); a violation aborts with the
    offending level. The "paper" mode (half as many nodes) skips the abort and
    records the defect on the frame instead, since the identity provably fails.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if nodes_per_level not in (NODES_EXACT, NODES_PAPER):
        raise ValueError(f"unknown nodes_per_level: {nodes_per_level!r}")
    levels = []
    worst = 0.0
    for j in range(-1, j_max + 1):
        n_nodes, lo, avals = _level_window(filt, j, nodes_per_level)
        if j == -1:
            nodes, weights = np.zeros(1), np.ones(1)
        else:
            try:
                rule = gauss_jacobi_rule(basis, n_nodes)
            except InvariantError as exc:
                raise InvariantError(f"level {j}: {exc}") from exc
            nodes, weights = rule.nodes, rule.weights
        psi = _level_psi(basis, nodes, weights, lo, avals)
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


def _top_level(frame: NeedletFrame, j_top: int | None) -> int:
    if j_top is None:
        return frame.j_max
    if not -1 <= j_top <= frame.j_max:
        raise ValueError(f"top level {j_top} outside [-1, {frame.j_max}]")
    return j_top


def analyze(frame: NeedletFrame, f_coeffs, j_top: int | None = None) -> list[np.ndarray]:
    """Needlet coefficients beta_{j,eta} = sum_i f_i psi^i_{j,eta}, one array per level.

    Levels above j_top (default: the frame's top) come back as zeros of
    their shape; their psi is not read.
    """
    f = _check_coeffs(frame, f_coeffs)
    top = _top_level(frame, j_top)
    return [
        f[..., lev.freq_lo : lev.freq_hi + 1] @ lev.psi.T
        if lev.j <= top
        else np.zeros(f.shape[:-1] + (lev.n_nodes,))
        for lev in frame.levels
    ]


def synthesize(frame: NeedletFrame, beta: list[np.ndarray], j_top: int | None = None) -> np.ndarray:
    """Basis coefficients sum_{j,eta} beta_{j,eta} psi^i_{j,eta} over levels -1..j_top.

    beta holds one array per level; those above j_top (default: the frame's
    top) are neither checked nor multiplied, which for all-zero levels
    leaves every output bit as the full sum does.
    """
    if len(beta) != len(frame.levels):
        raise ValueError(
            f"expected {len(frame.levels)} coefficient levels, got {len(beta)}"
        )
    top = _top_level(frame, j_top)
    runs = np.shape(beta[0])[:-1]
    out = np.zeros(runs + (frame.budget,))
    for lev, b in zip(frame.levels[: top + 2], beta):
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

    Index 0 of the result is level -1; index j+1 is level j. Each level is
    reduced BLOCK rows at a time, each row summed in frequency order as over
    the whole level, so one block of scaled squares is held at a time.
    """
    b = np.asarray(singular_values, dtype=float)
    if b.ndim != 1 or b.shape[0] < frame.budget:
        raise ValueError(f"need {frame.budget} singular values, got shape {b.shape}")
    b = b[: frame.budget]
    require_entries(b, np.isfinite(b) & (b > 0.0), "singular value b", "finite and > 0")
    out = np.empty(len(frame.levels))
    for li, lev in enumerate(frame.levels):
        b_lev = b[lev.freq_lo : lev.freq_hi + 1]
        peaks = []
        for r0 in range(0, lev.n_nodes, BLOCK):
            scaled = lev.psi[r0 : r0 + BLOCK] / b_lev
            np.square(scaled, out=scaled)
            peaks.append(np.max(np.sum(scaled, axis=1)))
            del scaled
        out[li] = math.sqrt(float(np.max(peaks)))
    return out


def frame_invariants(frame: NeedletFrame) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) rows of the invariant suite; Gram rows use _level_window's a."""
    gram_defect = zero_sum = 0.0
    for lev in frame.levels:
        a = _level_window(frame.filt, lev.j, frame.nodes_per_level)[2]
        gram_defect = max(gram_defect, _gram_defect(lev.psi, a))
        if lev.j >= 0:
            zero_sum = max(zero_sum, float(np.max(np.abs(np.sqrt(lev.weights) @ lev.psi))))
    # with unit singular values sigma_j is the largest needlet norm of level j
    norm_max = float(np.max(level_sigma(frame, np.ones(frame.budget))))
    xi = np.linspace(1.0, float(2**frame.j_max), 4001)
    return [
        ("partition-of-unity", check_partition(frame.filt, xi), 1e-12),
        ("gram-diagonal", gram_defect, _SELF_CHECK_TOL),
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


def _dense_theta(j: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, 256 * 2**j + 1)


def _point_blocks(basis: JacobiBasis, rows: np.ndarray, lo: int, x: np.ndarray):
    """Yield (c0, rows @ [e_lo .. e_hi](x[c0 : c0 + step])) over x, block by block.

    A block holds step = TABLE // (hi + 1) points, 4096 for the 512 degrees
    of level 8. Its values round as OpenBLAS's product does, which can move
    their last bits with the split of the points into blocks and threads.
    """
    hi = lo + rows.shape[-1] - 1
    step = TABLE // (hi + 1)
    for c0 in range(0, x.shape[0], step):
        yield c0, rows @ jacobi_eval_all(basis, hi, x[c0 : c0 + step])[lo:]


def level_frame_norms(frame: NeedletFrame, j: int, p: float) -> np.ndarray:
    """L_p norms of every needlet at level j under the family's measure.

    Entry nu - 1 belongs to the 1-based node index nu; p may be math.inf
    (dense-grid maximum). The constant needlet (j = -1) has norm 1. Finite
    p doubles the quadrature panels until every integral moves by at most
    1e-3 relative.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if j == -1:
        return np.ones(1)
    lev = frame.level(j)
    # each block's values are reduced in place and dropped before the next
    # block is formed, so one block of values is held at a time
    out = np.zeros(lev.n_nodes)
    if math.isinf(p):
        for _, vals in _point_blocks(frame.basis, lev.psi, lev.freq_lo, np.cos(_dense_theta(j))):
            np.maximum(out, np.abs(vals, out=vals).max(axis=1), out=out)
            del vals
        return out
    n_panels = 8 * 2**j
    prev = None
    for _ in range(7):
        x, mw = _measure_nodes(frame.basis, n_panels)
        integrals = np.zeros(lev.n_nodes)
        for c0, vals in _point_blocks(frame.basis, lev.psi, lev.freq_lo, x):
            np.power(np.abs(vals, out=vals), p, out=vals)
            integrals += vals @ mw[c0 : c0 + vals.shape[1]]
            del vals
        if prev is not None:
            scale = np.maximum(integrals, 1e-300)
            if np.all(np.abs(integrals - prev) <= 1e-3 * scale):
                return integrals ** (1.0 / p)
        prev = integrals
        n_panels *= 2
    raise NormResolutionError(
        f"L_{p} norm did not stabilize at level {j} (last panel count {n_panels // 2})"
    )


def needlet_values(frame: NeedletFrame, j: int, nu: int, x) -> np.ndarray:
    """Values psi_{j, eta_nu}(x) at the points x of [-1, 1]; nu is 1-based.

    The sum over degrees is taken one degree at a time along the recurrence,
    so each value's rounding depends on its own point alone: not on the
    other points, their number or the BLAS thread count.
    """
    lev = frame.level(j)
    if not 1 <= nu <= lev.n_nodes:
        raise ValueError(f"nu must be in 1..{lev.n_nodes} at level {j}, got {nu}")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    row = lev.psi[nu - 1]
    out = np.zeros_like(xs)
    degrees = _orthonormal(*_recurrence(frame.basis, lev.freq_hi + 1), lev.freq_hi, xs)
    for k, p in enumerate(degrees):
        if k >= lev.freq_lo:
            out += row[k - lev.freq_lo] * p
    return out


def localization_check(frame: NeedletFrame, j: int, l: int) -> np.ndarray:
    """Smallest C per needlet of level j with
    |psi(cos theta)| <= C 2^{j/2} / ((1+2^j|theta-theta_nu|)^l sqrt(omega))
    on a dense theta grid; omega is the generalized weight at scale 2^j.

    Entry nu - 1 belongs to the 1-based node index nu, as in
    level_frame_norms, and the whole level is evaluated in one pass.
    """
    if l < 1:
        raise ValueError(f"decay order l must be >= 1, got {l}")
    if j == -1:
        return np.ones(1)
    lev = frame.level(j)
    theta = _dense_theta(j)
    x = np.cos(theta)
    theta_nu = np.arccos(lev.nodes)[:, None]
    sqrt_omega = np.sqrt(generalized_weight(frame.basis, 2**j, x))
    out = np.zeros(lev.n_nodes)
    for c0, vals in _point_blocks(frame.basis, lev.psi, lev.freq_lo, x):
        c1 = c0 + vals.shape[1]
        envelope = np.abs(theta[c0:c1] - theta_nu)
        envelope *= 2.0**j
        envelope += 1.0
        envelope **= l
        np.abs(vals, out=vals)
        vals *= envelope
        vals *= sqrt_omega[c0:c1]
        np.maximum(out, vals.max(axis=1), out=out)
        del vals, envelope
    return out / 2.0 ** (j / 2.0)
