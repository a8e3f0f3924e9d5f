"""Needlet tight frames over orthonormal SVD bases.

A frame holds, per dyadic level j, the coefficient matrix of its needlets
in the underlying basis: psi[nu, i - freq_lo] = sqrt(weight_nu) *
a(i / 2^j) * e_i(node_nu). Level -1 is the single constant needlet.
Analysis and synthesis are exact finite sums over each level's frequency
window (2^{j-1}, 2^{j+1}), along the last axis of one vector (K,) or of
a stack of runs (R, K). Both may stop at a top level: the levels above it
are returned as zeros and never multiplied. A stack may also stop at one
top level per run, in decreasing order; each level is then multiplied for
the leading runs that reach it only.

Each level stands alone: frame_levels builds one at a time, j = -1..j_max
with j_max at most MAX_JMAX, and build_frame holds them all. After its
rule's Newton polish a level takes one recurrence sweep over the nodes,
which gives the Christoffel weights and psi's F-ordered columns degree by
degree; the build self-check, the invariant suite and level_sigma read psi
in blocks of BLOCK columns or rows, so beside the levels they are given
they hold one block at most. Needlets are evaluated on [-1, 1] one block
of points at a time for whole levels (norms, localization): one basis
table of at most TABLE entries and one product with the psi rows per
block, so no whole-grid table is formed. A single needlet (rendering) is
summed degree by degree along the recurrence, so its values round the same
at every point whatever the grid or the BLAS threading.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NormResolutionError, require_entries
from .filters import Filter, check_partition, filter_a
from .jacobi import (
    JacobiBasis,
    _christoffel_rule,
    _orthonormal,
    _polish,
    _recurrence,
    gauss_legendre_panels,
    generalized_weight,
    jacobi_eval_all,
)

__all__ = [
    "FrameLevel",
    "NeedletFrame",
    "build_frame",
    "frame_levels",
    "check_j_max",
    "analyze",
    "synthesize",
    "level_sigma",
    "frame_invariants",
    "level_frame_norms",
    "needlet_values",
    "localization_check",
    "NODES_EXACT",
    "NODES_PAPER",
    "MAX_JMAX",
]

NODES_EXACT = "exact"
NODES_PAPER = "paper"

_SELF_CHECK_TOL = 1e-9
# the top level accepted anywhere a frame is built or read: level 13's psi
# takes 1.61 GB, level 14's would take 6.4 GB
MAX_JMAX = 13
# columns (Gram defect) or rows (needlet norms) of psi taken at once; at
# jmax 11 a block's products stay near 10 MB
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
    A NaN entry counts as an infinite defect, so it fails every tolerance.
    """
    n = psi.shape[1]
    peaks = []
    for c0 in range(0, n, BLOCK):
        c1 = min(c0 + BLOCK, n)
        blk = psi[:, c0:c1]
        gram = blk.T @ blk
        gram.flat[:: c1 - c0 + 1] -= a[c0:c1] ** 2
        peaks.append(np.max(np.abs(gram, out=gram)))
        if c1 < n:
            right = blk.T @ psi[:, c1:]
            peaks.append(np.max(np.abs(right, out=right)))
    worst = float(np.max(peaks))  # unlike max(), np.max keeps a NaN
    return math.inf if math.isnan(worst) else worst


def check_j_max(j_max: int) -> None:
    """Refuse a top level outside 0..MAX_JMAX, naming it."""
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if j_max > MAX_JMAX:
        raise ValueError(f"j_max must be <= {MAX_JMAX}, got {j_max}")


def _build_level(
    basis: JacobiBasis, filt: Filter, j: int, nodes_per_level: str
) -> tuple[FrameLevel, float]:
    """Level j of frame_levels and its Gram defect; "exact" mode raises above tolerance.

    One recurrence sweep after the Newton polish gives the Christoffel sums
    and psi's columns; the rule is certified before psi is scaled by sqrt(w).
    """
    n_nodes, lo, avals = _level_window(filt, j, nodes_per_level)
    hi = lo + avals.shape[0] - 1
    diag, off = _recurrence(basis, max(n_nodes, hi) + 1)
    try:
        nodes = np.zeros(1) if j == -1 else _polish(basis, diag, off, n_nodes)
        # F-ordered, so each degree's column is contiguous; frameio reads and
        # writes the same layout, which keeps BLAS rounding in analyze and
        # synthesize the same for built and loaded frames
        psi = np.empty((n_nodes, avals.shape[0]), order="F")
        kernel = np.zeros(n_nodes)
        with np.errstate(all="ignore"):
            for i, p in enumerate(_orthonormal(diag, off, hi, nodes)):
                if i < n_nodes:
                    kernel += p * p
                if i >= lo:
                    np.multiply(p, avals[i - lo], out=psi[:, i - lo])
        rule = _christoffel_rule(basis, nodes, kernel)
    except InvariantError as exc:
        raise InvariantError(f"level {j}: {exc}") from exc
    psi *= np.sqrt(rule.weights)[:, None]
    defect = _gram_defect(psi, avals)
    if nodes_per_level == NODES_EXACT and defect > _SELF_CHECK_TOL:
        raise InvariantError(
            f"quadrature exactness self-check failed at level {j} "
            f"(defect {defect:.3e})"
        )
    psi.setflags(write=False)
    return FrameLevel(j, rule.nodes, rule.weights, lo, psi), defect


def frame_levels(
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str = NODES_EXACT,
) -> Iterator[tuple[FrameLevel, float]]:
    """(level, Gram defect) for j = -1..j_max, each built when it is asked for.

    The arguments are checked at once; the levels are not built until they
    are iterated, and the iterator keeps no reference to a level it has
    yielded, so a caller that drops each level before asking for the next
    holds one level at a time.
    """
    check_j_max(j_max)
    if nodes_per_level not in (NODES_EXACT, NODES_PAPER):
        raise ValueError(f"unknown nodes_per_level: {nodes_per_level!r}")
    return (_build_level(basis, filt, j, nodes_per_level) for j in range(-1, j_max + 1))


def build_frame(
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str = NODES_EXACT,
) -> NeedletFrame:
    """Build the needlet frame with levels -1..j_max: every level of frame_levels, held.

    Level j >= 0 takes the Gauss-Jacobi rule of its node count, level -1 node
    0 with weight 1. In the default "exact" mode every level's node count
    makes the quadrature exact for products of two level-j needlets, which is
    verified per level (Psi^T Psi = diag(a_i^2)); a violation aborts with the
    offending level. The "paper" mode (half as many nodes) skips the abort and
    records the largest defect on the frame instead, since the identity
    provably fails.
    """
    levels, defects = zip(*frame_levels(basis, filt, j_max, nodes_per_level))
    return NeedletFrame(basis, filt, j_max, nodes_per_level, levels, max(defects))


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


def _reach(frame: NeedletFrame, runs: tuple, j_top) -> list[int]:
    """Per level, how many leading runs of a vector () or stack (R,) reach it under j_top.

    j_top is None (the frame's top), one level, or for a stack one level per
    run in decreasing order; a vector counts as one run.
    """
    count = runs[0] if runs else 1
    if j_top is None or np.ndim(j_top) == 0:
        top = _top_level(frame, j_top)
        return [count if lev.j <= top else 0 for lev in frame.levels]
    tops = np.asarray(j_top)
    if tops.shape != runs or np.any(tops[1:] > tops[:-1]):
        raise ValueError(
            f"need one top level per run in decreasing order for {count} runs, got {tops.tolist()}"
        )
    if count:
        _top_level(frame, int(tops[0]))
        _top_level(frame, int(tops[-1]))
    return _level_reach(frame, tops)


def _level_reach(frame: NeedletFrame, tops: np.ndarray) -> list[int]:
    """Per level, how many of the runs with top levels tops (R,) reach it."""
    return (tops[:, None] >= [lev.j for lev in frame.levels]).sum(axis=0).tolist()


def _lead(a: np.ndarray, count: int) -> np.ndarray:
    """The leading count runs of a stack, or a whole vector."""
    return a[:count] if a.ndim == 2 else a


def analyze(
    frame: NeedletFrame, f_coeffs, j_top: int | np.ndarray | None = None
) -> list[np.ndarray]:
    """Needlet coefficients beta_{j,eta} = sum_i f_i psi^i_{j,eta}, one array per level.

    Levels above j_top (default: the frame's top) come back as zeros of
    their shape; their psi is not read. For a stack of runs, j_top may hold
    one top level per run, in decreasing order: each level then multiplies
    only the leading runs that reach it, and is zero for the others.
    """
    f = _check_coeffs(frame, f_coeffs)
    beta = []
    for lev, count in zip(frame.levels, _reach(frame, f.shape[:-1], j_top)):
        b = np.zeros(f.shape[:-1] + (lev.n_nodes,))
        if count:
            window = _lead(f, count)[..., lev.freq_lo : lev.freq_hi + 1]
            np.matmul(window, lev.psi.T, out=_lead(b, count))
        beta.append(b)
    return beta


def synthesize(
    frame: NeedletFrame, beta: list[np.ndarray], j_top: int | np.ndarray | None = None
) -> np.ndarray:
    """Basis coefficients sum_{j,eta} beta_{j,eta} psi^i_{j,eta} over levels -1..j_top.

    beta holds one array per level; those above j_top (default: the frame's
    top) are neither checked nor multiplied, which for all-zero levels
    leaves every output bit as the full sum does. j_top may hold one top
    level per run, as for analyze: each level then adds only the leading
    runs that reach it.
    """
    if len(beta) != len(frame.levels):
        raise ValueError(
            f"expected {len(frame.levels)} coefficient levels, got {len(beta)}"
        )
    runs = np.shape(beta[0])[:-1]
    out = np.zeros(runs + (frame.budget,))
    for lev, b, count in zip(frame.levels, beta, _reach(frame, runs, j_top)):
        if not count:
            continue
        b = np.asarray(b, dtype=float)
        if b.shape != runs + (lev.n_nodes,):
            raise ValueError(
                f"level {lev.j}: expected shape {runs + (lev.n_nodes,)}, got {b.shape}"
            )
        b = _lead(b, count)
        require_entries(b, np.isfinite(b), f"level {lev.j} beta", "finite")
        _lead(out, count)[..., lev.freq_lo : lev.freq_hi + 1] += b @ lev.psi
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
    return np.array(
        [_level_sigma(lev.psi, b[lev.freq_lo : lev.freq_hi + 1]) for lev in frame.levels]
    )


def _level_sigma(psi: np.ndarray, b_lev: np.ndarray) -> float:
    """sigma of one level: the largest row norm of psi / b_lev, BLOCK rows at a time."""
    peaks = []
    for r0 in range(0, psi.shape[0], BLOCK):
        scaled = psi[r0 : r0 + BLOCK] / b_lev
        np.square(scaled, out=scaled)
        peaks.append(np.max(np.sum(scaled, axis=1)))
        del scaled
    return math.sqrt(float(np.max(peaks)))


def frame_invariants(
    frame: NeedletFrame, levels: Iterable[FrameLevel] | None = None
) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) rows of the invariant suite; Gram rows use _level_window's a.

    frame gives the filter, node mode and top level; levels, frame.levels
    by default, may be read one at a time (frameio.open_frame): each level
    is checked and dropped before the next is asked for.
    """
    gram_defect = zero_sum = norm_max = 0.0
    for lev in frame.levels if levels is None else levels:
        a = _level_window(frame.filt, lev.j, frame.nodes_per_level)[2]
        gram_defect = max(gram_defect, _gram_defect(lev.psi, a))
        if lev.j >= 0:
            zero_sum = max(zero_sum, float(np.max(np.abs(np.sqrt(lev.weights) @ lev.psi))))
        # with unit singular values sigma_j is the largest needlet norm of level j
        norm_max = max(norm_max, _level_sigma(lev.psi, np.ones(lev.psi.shape[1])))
        del lev
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
