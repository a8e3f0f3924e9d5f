"""Needlet tight frames over orthonormal SVD bases.

A frame holds, per dyadic level j, the coefficient matrix of its needlets
in the underlying basis: psi[nu, i - freq_lo] = sqrt(weight_nu) *
a(i / 2^j) * e_i(node_nu). Level -1 is the single constant needlet.
Analysis and synthesis are exact finite sums over each level's frequency
window (2^{j-1}, 2^{j+1}), along the last axis of one vector (K,) or of
a stack of runs (R, K). Both may take one count of rows per level: each
level is then multiplied for that many leading rows only, and its other
rows are zeros that are never read.

Each level stands alone: frame_levels gives one at a time, j = -1..j_max
with j_max at most MAX_JMAX, and build_frame holds them all. A level's
rule is Newton-polished first; one recurrence sweep over its nodes then
gives the Christoffel weights and psi's columns degree by degree. psi is
node-major everywhere (C order, one node per row), as a saved frame
stores it: a held level sweeps every node into a psi of its own, and a
streamed level (LevelSweep.rows) sweeps NODE_BLOCK nodes at a time into
one block, so it never holds the whole level. Either way the Gram
self-check sums the upper triangle of Psi^T Psi over the same node blocks
(_Gram), one group of its panels per pass over the level's blocks, each
group no larger than one node block (_groups): the first group takes the
blocks as they are swept or read, and each later group a fresh pass over
the same rows, from a held psi, from a stored file, or, for a streamed
build, read back from the file the sweep's blocks were just written to.
Each panel takes the same products in the same order whatever its group,
so the grouping moves no bit. The rule is certified over all its weights
once the last node is swept. The invariant suite reads every level as
node blocks (rows()), views of a held psi or blocks read from a file, and
level_sigma reads psi BLOCK // 2 rows at a time. Each level's psi, each
node block and each group of Gram panels has a private mapping of its
own, unmapped once it is dropped.

Needlets are evaluated on [-1, 1] one block of points at a time for whole
levels (norms, localization): one basis table of at most TABLE entries
and one product with the psi rows per block, so no whole-grid table is
formed. A single needlet (rendering) is summed degree by degree along the
recurrence, so its values round the same at every point whatever the grid
or the BLAS threading.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Callable, Iterable, Iterator, Sequence
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
    "LevelSweep",
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
    "NODE_BLOCK",
]

NODES_EXACT = "exact"
NODES_PAPER = "paper"

_SELF_CHECK_TOL = 1e-9
# the top level accepted anywhere a frame is built or read: level 13's psi
# takes 1.61 GB, level 14's would take 6.4 GB
MAX_JMAX = 13
# columns of each panel of the Gram triangle, twice the rows level_sigma
# takes; at jmax 11 a panel's product stays near 6 MB, where 512 columns
# took 10.5 MB and about 5% less time
BLOCK = 256
# rows of psi (nodes) swept, checked, written or read at once by a streamed
# level, and the rows whose floats bound a group of Gram panels; at jmax 11
# a block takes 25 MB beside a group of at most as much (22 MB, of the
# triangle's 41 MB), where 512 rows gave a lower peak for more Python steps
NODE_BLOCK = 1024
# degrees of psi formed, or summed over nodes, at once in a buffer of one
# contiguous row per degree, which goes into psi's rows as one transposing
# copy that stays in cache
TILE = 64
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
    def n_freq(self) -> int:
        return self.psi.shape[1]

    @property
    def freq_hi(self) -> int:
        return self.freq_lo + self.n_freq - 1

    def rows(self, reread=None) -> Iterator[np.ndarray]:
        """psi's rows NODE_BLOCK at a time, as read-only views of psi.

        reread, as LevelSweep.rows takes it, is not needed: psi is held.
        """
        return _row_blocks(self.psi)


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


def _groups(n: int, n_rows: int) -> list[list[int]]:
    """The first columns of the Gram panels of n columns, in groups no larger than one node block.

    A level of n_rows rows holds min(NODE_BLOCK, n_rows) * n floats of psi
    at once; a group holds no more panel floats than that, unless one panel
    alone is larger, and takes the panels in order. In "exact" mode level
    11 takes two groups, level 12 four and every level below 11 one.
    """
    budget = min(NODE_BLOCK, n_rows) * n
    groups, size = [[]], 0
    for c0 in range(0, n, BLOCK):
        panel = min(BLOCK, n - c0) * (n - c0)
        if groups[-1] and size + panel > budget:
            groups.append([])
            size = 0
        groups[-1].append(c0)
        size += panel
    return groups


class _Gram:
    """The upper triangle of one level's Psi^T Psi, summed over blocks of psi's rows, a group at a time.

    The triangle is kept in panels of BLOCK rows, each from its diagonal
    square to the last column, so a row block's share of a panel is one
    product. The panels are summed in the groups _groups gives for the
    level's n_rows rows: the first over the blocks add() is given, each
    later one, when the defect is asked for, over a pass of again(), which
    yields the same blocks anew, so every panel takes the same products in
    the same order whatever its group. A group's panels share a private
    mapping (_mapped), and a buffer for its products, the size of its first
    panel, is mapped only when a second block arrives; both are dropped
    once the group's defect is taken, before the next group is mapped.
    """

    def __init__(self, n: int, n_rows: int, again: Callable[[], Iterable[np.ndarray]]):
        self.n, self._again = n, again
        self._groups = _groups(n, n_rows)
        self._open(self._groups[0])

    def _open(self, starts: list[int]) -> None:
        sizes = [min(BLOCK, self.n - c0) * (self.n - c0) for c0 in starts]
        store = _mapped((sum(sizes),))
        offsets = np.cumsum([0] + sizes)
        self._panels = [
            (c0, store[at : at + size].reshape(-1, self.n - c0))
            for c0, at, size in zip(starts, offsets, sizes)
        ]
        self._summed, self._product = False, None

    def add(self, rows: np.ndarray) -> None:
        """Add the products of a block of psi's rows (n columns, in any layout) to the open group."""
        if self._summed and self._product is None:
            self._product = _mapped((self._panels[0][1].size,))
        # inf - inf in a sum is NaN, which the defect reports as infinite
        with np.errstate(all="ignore"):
            for c0, panel in self._panels:
                lhs, rhs = rows[:, c0 : c0 + BLOCK].T, rows[:, c0:]
                if self._summed:
                    panel += np.matmul(lhs, rhs, out=self._product[: panel.size].reshape(panel.shape))
                else:
                    # the first block's product is the panel's sum, as 0 +
                    # product is but for the sign of a zero, which the
                    # defect, a max of absolute values, does not see
                    np.matmul(lhs, rhs, out=panel)
        self._summed = True

    def defect(self, a: np.ndarray) -> float:
        """max |Psi^T Psi - diag(a^2)| over the triangle, each group taken in place (once).

        Every entry is checked: the entries below the diagonal are the
        transposes of those above it. A NaN entry counts as an infinite
        defect, so it fails every tolerance.
        """
        worst = self._close(a)
        for starts in self._groups[1:]:
            self._open(starts)
            for rows in self._again():
                self.add(rows)
            del rows  # a view of the pass's block, which the next pass maps anew
            worst = max(worst, self._close(a))
        return worst

    def _close(self, a: np.ndarray) -> float:
        """The open group's defect, taken in place; its mappings are dropped."""
        peaks = []
        for c0, panel in self._panels:
            panel.reshape(-1)[:: panel.shape[1] + 1] -= a[c0 : c0 + panel.shape[0]] ** 2
            peaks.append(np.max(np.abs(panel, out=panel)))
        self._panels = self._product = None
        worst = float(np.max(peaks))  # unlike max(), np.max keeps a NaN
        return math.inf if math.isnan(worst) else worst


def _row_blocks(psi: np.ndarray) -> Iterator[np.ndarray]:
    """A held psi's rows NODE_BLOCK at a time, as views of psi."""
    return (psi[r0 : r0 + NODE_BLOCK] for r0 in range(0, psi.shape[0], NODE_BLOCK))


def _gram_defect(psi: np.ndarray, a: np.ndarray) -> float:
    """The Gram defect of a held psi, summed over its rows in NODE_BLOCK blocks as a streamed level's."""
    gram = _Gram(psi.shape[1], psi.shape[0], lambda: _row_blocks(psi))
    for rows in _row_blocks(psi):
        gram.add(rows)
    return gram.defect(a)


def _mapped(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed little-endian float64 array in a private, hugepage-advised mapping of its own.

    A page takes memory only once it is touched. Unlike a heap block, the
    array goes back to the system as soon as it is dropped, and dropping it
    does not raise glibc's mmap threshold, which would keep later heap
    blocks of that size resident.
    """
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype="<f8").reshape(shape)


def check_j_max(j_max: int) -> None:
    """Refuse a top level outside 0..MAX_JMAX, naming it."""
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if j_max > MAX_JMAX:
        raise ValueError(f"j_max must be <= {MAX_JMAX}, got {j_max}")


def _check_node_mode(nodes_per_level: str) -> None:
    if nodes_per_level not in (NODES_EXACT, NODES_PAPER):
        raise ValueError(f"unknown nodes_per_level: {nodes_per_level!r}")


class LevelSweep:
    """Level j of frame_levels: its rule's polished nodes, then its psi by one sweep.

    held() sweeps every node into a psi of the level's own and returns the
    FrameLevel; rows() sweeps NODE_BLOCK nodes at a time and yields each
    block's rows of psi in one reused buffer valid until the next block is
    asked for. Either way psi is scaled by sqrt(w) block by block and
    summed into the Gram triangle in the same node blocks and groups, so
    both give the same defect; once the last node is swept the rule is
    certified over all its weights, and "exact" mode raises if the defect
    exceeds tolerance. weights and defect are set then.
    """

    def __init__(self, basis: JacobiBasis, filt: Filter, j: int, nodes_per_level: str):
        n_nodes, self.freq_lo, self.a = _level_window(filt, j, nodes_per_level)
        self.j, self.basis, self.nodes_per_level = j, basis, nodes_per_level
        self.n_freq = self.a.shape[0]
        self.freq_hi = self.freq_lo + self.n_freq - 1
        self._recurrence = _recurrence(basis, max(n_nodes, self.freq_hi) + 1)
        try:
            self.nodes = np.zeros(1) if j == -1 else _polish(basis, *self._recurrence, n_nodes)
        except InvariantError as exc:
            raise InvariantError(f"level {j}: {exc}") from exc
        self.weights: np.ndarray | None = None
        self.defect: float | None = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def _sweep(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill out with psi's rows at the nodes x, scaled by sqrt(w); return their Christoffel sums.

        The columns are formed TILE degrees at a time in a tile of one row
        per degree, which goes into out's rows at once.
        """
        n_nodes, lo, hi, a = self.n_nodes, self.freq_lo, self.freq_hi, self.a
        kernel = np.zeros(x.shape[0])
        tile = _mapped((TILE, x.shape[0]))
        with np.errstate(all="ignore"):
            for i, p in enumerate(_orthonormal(*self._recurrence, hi, x)):
                if i < n_nodes:
                    kernel += p * p
                if i >= lo:
                    k = (i - lo) % TILE
                    np.multiply(p, a[i - lo], out=tile[k])
                    if k == TILE - 1 or i == hi:
                        out[:, i - lo - k : i - lo + 1] = tile[: k + 1].T
            out *= np.sqrt(1.0 / kernel)[:, None]
        return kernel

    def _finish(self, kernel: np.ndarray, defect: float) -> None:
        """Certify the rule over all its weights, then hold the defect to tolerance ("exact" mode)."""
        try:
            rule = _christoffel_rule(self.basis, self.nodes, kernel)
        except InvariantError as exc:
            raise InvariantError(f"level {self.j}: {exc}") from exc
        if self.nodes_per_level == NODES_EXACT and defect > _SELF_CHECK_TOL:
            raise InvariantError(
                f"quadrature exactness self-check failed at level {self.j} "
                f"(defect {defect:.3e})"
            )
        self.weights, self.defect = rule.weights, defect

    def rows(self, reread: Callable[[int, np.ndarray], None]) -> Iterator[np.ndarray]:
        """psi's rows NODE_BLOCK at a time, swept into one reused block.

        A level whose Gram triangle takes more than one group (_groups)
        sums each later group over its rows again once the last block is
        yielded: reread(r0, out) fills out, a view of that block, with the
        rows from r0 on, as a writer reads back the blocks it has written.
        """
        block = _mapped((min(NODE_BLOCK, self.n_nodes), self.n_freq))
        views = [
            (r0, block[: min(NODE_BLOCK, self.n_nodes - r0)]) for r0 in range(0, self.n_nodes, NODE_BLOCK)
        ]

        def again() -> Iterator[np.ndarray]:
            for r0, rows in views:
                reread(r0, rows)
                yield rows

        gram = _Gram(self.n_freq, self.n_nodes, again)
        kernels = []
        for r0, rows in views:
            kernels.append(self._sweep(self.nodes[r0 : r0 + NODE_BLOCK], rows))
            gram.add(rows)
            yield rows
        self._finish(np.concatenate(kernels), gram.defect(self.a))

    def held(self) -> tuple[FrameLevel, float]:
        """The level with its whole psi, and its Gram defect."""
        psi = _mapped((self.n_nodes, self.n_freq))
        kernel = self._sweep(self.nodes, psi)
        self._finish(kernel, _gram_defect(psi, self.a))
        psi.setflags(write=False)
        return FrameLevel(self.j, self.nodes, self.weights, self.freq_lo, psi), self.defect


def frame_levels(
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str = NODES_EXACT,
) -> Iterator[LevelSweep]:
    """A LevelSweep for each j = -1..j_max, its rule polished when it is asked for.

    The arguments are checked at once; no level is built until the levels
    are iterated, and the iterator keeps no reference to a level it has
    yielded, so a caller that drops each level before asking for the next
    holds one level at a time.
    """
    check_j_max(j_max)
    _check_node_mode(nodes_per_level)
    return (LevelSweep(basis, filt, j, nodes_per_level) for j in range(-1, j_max + 1))


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
    levels, defects = zip(*(lev.held() for lev in frame_levels(basis, filt, j_max, nodes_per_level)))
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


def _reach(frame: NeedletFrame, runs: tuple, reach: Sequence[int] | None) -> Sequence[int]:
    """reach, checked: per level, how many leading rows of a stack (R,) or vector to multiply."""
    count = runs[0] if runs else 1
    if reach is None:
        return [count] * len(frame.levels)
    if len(reach) != len(frame.levels) or not all(0 <= r <= count for r in reach):
        raise ValueError(f"need {len(frame.levels)} counts in 0..{count}, got reach {list(reach)}")
    return reach


def _lead(a: np.ndarray, count: int) -> np.ndarray:
    """The leading count runs of a stack, or a whole vector."""
    return a[:count] if a.ndim == 2 else a


def analyze(
    frame: NeedletFrame, f_coeffs, reach: Sequence[int] | None = None
) -> list[np.ndarray]:
    """Needlet coefficients beta_{j,eta} = sum_i f_i psi^i_{j,eta}, one array per level.

    Level l is multiplied for the leading reach[l] rows of the stack only
    (default: every row); the other rows come back as zeros there, and a
    level of count 0 does not read its psi.
    """
    f = _check_coeffs(frame, f_coeffs)
    beta = []
    for lev, count in zip(frame.levels, _reach(frame, f.shape[:-1], reach)):
        b = np.zeros(f.shape[:-1] + (lev.n_nodes,))
        if count:
            window = _lead(f, count)[..., lev.freq_lo : lev.freq_hi + 1]
            np.matmul(window, lev.psi.T, out=_lead(b, count))
        beta.append(b)
    return beta


def synthesize(
    frame: NeedletFrame, beta: list[np.ndarray], reach: Sequence[int] | None = None
) -> np.ndarray:
    """Basis coefficients sum_{j,eta} beta_{j,eta} psi^i_{j,eta} over every level.

    beta holds one array per level. Level l adds the leading reach[l] rows
    only (default: every row), as for analyze; its other rows are neither
    checked nor multiplied, which for all-zero rows leaves every output bit
    as the full sum does.
    """
    if len(beta) != len(frame.levels):
        raise ValueError(
            f"expected {len(frame.levels)} coefficient levels, got {len(beta)}"
        )
    runs = np.shape(beta[0])[:-1]
    out = np.zeros(runs + (frame.budget,))
    for lev, b, count in zip(frame.levels, beta, _reach(frame, runs, reach)):
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
    reduced BLOCK // 2 rows at a time, each row summed in frequency order as
    over the whole level, so one block of scaled squares is held at a time.
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
    """sigma of one level: the largest row norm of psi / b_lev, BLOCK // 2 rows at a time."""
    peaks = []
    for r0 in range(0, psi.shape[0], BLOCK // 2):
        scaled = psi[r0 : r0 + BLOCK // 2] / b_lev
        np.square(scaled, out=scaled)
        peaks.append(np.max(np.sum(scaled, axis=1)))
        del scaled
    return math.sqrt(float(np.max(peaks)))


def frame_invariants(
    frame: NeedletFrame, levels: Iterable | None = None
) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) rows of the invariant suite; Gram rows use _level_window's a.

    frame gives the filter, node mode and top level; levels, frame.levels
    by default, may be read one at a time (frameio.open_frame). A level
    needs j, weights and rows(), psi's node blocks: a held level gives views
    of its psi and a stored one reads them, so both give the same rows. A
    level whose Gram triangle takes more than one group is asked for its
    rows once more per later group. Each level is checked and dropped
    before the next is asked for, and one node block of it is held at a
    time.
    """
    gram_defect = zero_sum = norm_max = 0.0
    for lev in frame.levels if levels is None else levels:
        a = _level_window(frame.filt, lev.j, frame.nodes_per_level)[2]
        lev_gram, lev_sum, lev_norm = _level_invariants(lev, a)
        gram_defect = max(gram_defect, lev_gram)
        if lev.j >= 0:
            zero_sum = max(zero_sum, lev_sum)
        norm_max = max(norm_max, lev_norm)
    xi = np.linspace(1.0, float(2**frame.j_max), 4001)
    return [
        ("partition-of-unity", check_partition(frame.filt, xi), 1e-12),
        ("gram-diagonal", gram_defect, _SELF_CHECK_TOL),
        ("zero-sum-per-frequency", zero_sum, 1e-10),
        ("needlet-norm<=1", norm_max, 1.0 + 1e-10),
    ]


def _level_invariants(lev, a: np.ndarray) -> tuple[float, float, float]:
    """(Gram defect, max |sum_nu sqrt(w_nu) psi_nu|, largest needlet norm) of one level."""
    n_freq = a.shape[0]
    gram = _Gram(n_freq, lev.n_nodes, lev.rows)
    sums = np.zeros(n_freq)
    norm = 0.0
    sqrt_w = np.sqrt(lev.weights)
    strip = _mapped((TILE, min(NODE_BLOCK, lev.n_nodes)))
    for r0, rows in zip(range(0, lev.n_nodes, NODE_BLOCK), lev.rows()):
        gram.add(rows)
        # each frequency is summed along a contiguous row of the strip, which
        # keeps the printed sums' bits (sqrt_w @ rows rounds them otherwise);
        # a level of more than one node block adds its blocks' sums
        for c0 in range(0, n_freq, TILE):
            cols = strip[: min(TILE, n_freq - c0), : rows.shape[0]]
            cols[...] = rows[:, c0 : c0 + TILE].T
            sums[c0 : c0 + TILE] += sqrt_w[r0 : r0 + NODE_BLOCK] @ cols.T
        # a needlet's L2 norm is its row's: the basis is orthonormal
        norm = max(norm, math.sqrt(float(np.max(np.einsum("ij,ij->i", rows, rows)))))
    # rows views the first pass's block, dropped before a later Gram group
    # reads the level again into a block of its own
    del rows
    return gram.defect(a), float(np.max(np.abs(sums))), norm


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
    require_entries(xs, np.abs(xs) <= 1.0, "evaluation point x", "in [-1, 1]")
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
