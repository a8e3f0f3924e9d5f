"""Binary persistence for needlet frames.

Container layout (version 1, everything little-endian): magic "NDLT",
format version, the build parameters (basis family code and Jacobi
exponents, cutoff kind and order, node mode, top level, recorded exactness
defect), then one dense block per level holding nodes, weights, and the
needlet coefficient matrix as raw 64-bit floats, psi row by row. The only
basis family code is 0 (Jacobi).

Both directions stream one level at a time, and a level's psi one block of
frame.NODE_BLOCK rows at a time, in the file's row order, which is the
node-major order frame holds psi in: write_levels writes each row block a
level's rows() gives (a build's sweep, or views of a held psi) and then
its weights, which a build knows only once its last node is swept;
open_frame yields each stored level with its nodes and weights read, and
its rows() reads psi's row blocks into one buffer. A level whose Gram
triangle frame sums in more than one group of panels passes over its rows
once per group: a build reads the blocks it has just written back from
its temporary file, which is open for reading too, and the invariant suite
asks a stored level for its rows() again. save_frame is write_levels over
a held frame; load_frame copies each stored level's row blocks into a psi
of its own.

Loading rebuilds the filter and basis from the stored parameters before it
reads a level, and takes the level blocks verbatim, so a round trip is
bit-exact. Each level's shape record must be the one frame._level_window
gives level j under the stored filter and node mode (2^{j+1} or 2^j nodes,
the frequency window of j; level -1 is one node at frequency 0), and the
bytes it claims must fit in what is left of the file, which is checked
before anything is allocated. Any unknown code or structural mismatch, a
top level outside 0..MAX_JMAX, a non-finite or negative exactness defect,
a level -1 other than node 0, weight 1 and psi 1, and any non-finite psi
entry, node outside (-1, 1) or non-positive weight, raises ValueError
naming the value rather than returning a partially read or corrupt frame.
Nodes and weights are checked as they are read; psi is tested for
finiteness one row block at a time, and a level with a bad entry yields no
block from that one on: its first bad entry is named once the rest of the
level has been counted. A level that passes is read-only, as a built one
is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import entry_error, require_entries
from .filters import POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL, Filter, make_filter, make_profile
from . import frame as _frame  # its NODE_BLOCK is read at call time, as frame reads it
from .frame import NODES_EXACT, NODES_PAPER, FrameLevel, NeedletFrame, _level_window, _mapped, check_j_max
from .jacobi import JacobiBasis, jacobi_basis

__all__ = ["FORMAT_VERSION", "StoredLevel", "save_frame", "load_frame", "write_levels", "open_frame"]

_MAGIC = b"NDLT"
FORMAT_VERSION = 1

_JACOBI_CODE = 0
_PROFILE_CODES = {POLYNOMIAL_SHAPE: 0, SMOOTH_EXPONENTIAL: 1}
_NODE_CODES = {NODES_EXACT: 0, NODES_PAPER: 1}

_HEADER = struct.Struct("<4sHBddBiBidi")
_LEVEL = struct.Struct("<iiii")


def _write_level(fh, lev) -> None:
    """Write one level's block: its shape record and nodes, psi's rows as
    lev.rows() gives them, then lev.weights into the slot left for them.
    A level that passes over its rows again reads them back from fh."""
    fh.write(_LEVEL.pack(lev.j, lev.n_nodes, lev.freq_lo, lev.n_freq))
    fh.write(np.ascontiguousarray(lev.nodes, dtype="<f8"))
    slot = fh.tell()
    at = slot + 8 * lev.n_nodes  # psi starts here
    end = at + 8 * lev.n_nodes * lev.n_freq

    def reread(r0: int, out: np.ndarray) -> None:
        fh.seek(at + 8 * r0 * lev.n_freq)
        _read_into(fh, out)

    fh.seek(at)
    for rows in lev.rows(reread):
        fh.write(rows.astype("<f8", copy=False))
    fh.seek(slot)
    fh.write(np.ascontiguousarray(lev.weights, dtype="<f8"))
    fh.seek(end)


def write_levels(
    path,
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str,
    levels: Iterable,
    defect: float | None = None,
) -> float:
    """Write levels j = -1..j_max to path in container version 1.

    A level needs j, n_nodes, freq_lo, n_freq, nodes and rows(reread),
    psi's row blocks, where reread(r0, out) reads rows already written
    back into out; once its rows are written it gives weights, and
    a LevelSweep its defect. Each level is written as soon as it is given
    and is not held after. The header records defect, by default the
    largest of the levels' defects, which is returned. Everything goes to a
    sibling temporary file that replaces path once the last level is in; if
    the levels raise, the temporary file is removed and path is left
    untouched.
    """
    # the defect goes between these fields and the level count, once every
    # level is in
    fields = (
        _MAGIC,
        FORMAT_VERSION,
        _JACOBI_CODE,
        basis.alpha,
        basis.beta,
        _PROFILE_CODES[filt.profile.kind],
        filt.profile.m,
        _NODE_CODES[nodes_per_level],
        j_max,
    )
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb+")
    try:
        with fh:
            fh.write(_HEADER.pack(*fields, 0.0, j_max + 2))
            defects = []
            for lev in levels:
                _write_level(fh, lev)
                defects.append(lev.defect if defect is None else defect)
                del lev
            defect = float(np.max(defects))  # unlike max(), np.max keeps a NaN
            fh.seek(0)
            fh.write(_HEADER.pack(*fields, defect, j_max + 2))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return defect


def save_frame(frame: NeedletFrame, path) -> None:
    """Write the frame to path in container version 1, with its recorded exactness defect."""
    write_levels(
        path,
        frame.basis,
        frame.filt,
        frame.j_max,
        frame.nodes_per_level,
        frame.levels,
        frame.exactness_defect,
    )


def _read_into(fh, out: np.ndarray) -> None:
    if fh.readinto(out) != out.nbytes:
        raise ValueError("truncated frame container")


def _decode(codes: dict, value: int, what: str) -> str:
    for name, code in codes.items():
        if code == value:
            return name
    raise ValueError(f"unknown {what} code {value} in frame container")


class StoredLevel:
    """Level j of an open container: shape, nodes and weights read and checked, psi not yet.

    rows() reads psi NODE_BLOCK rows at a time into one buffer,
    valid until the next block is asked for, from psi's start at each call;
    load() reads the whole level into a FrameLevel. Either must be done
    before the next level is asked for, or not at all.
    """

    def __init__(
        self, fh, j: int, nodes: np.ndarray, weights: np.ndarray, freq_lo: int, n_freq: int
    ):
        self.j, self.nodes, self.weights, self.freq_lo, self.n_freq = j, nodes, weights, freq_lo, n_freq
        self._fh, self._at = fh, fh.tell()  # psi starts here

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def rows(self) -> Iterator[np.ndarray]:
        n, m, size = self.n_nodes, self.n_freq, _frame.NODE_BLOCK
        block = _mapped((min(size, n), m))
        self._fh.seek(self._at)
        first_bad, n_bad = None, 0
        for r0 in range(0, n, size):
            rows = block[: min(size, n - r0)]
            _read_into(self._fh, rows)
            # a NaN is the block's min and max, an infinity one of them; only
            # a bad block is given a mask
            if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
                bad = ~np.isfinite(rows)
                if first_bad is None:
                    r, c = np.argwhere(bad)[0]
                    first_bad = ((r0 + int(r), int(c)), rows[r, c])
                n_bad += np.count_nonzero(bad)
            elif first_bad is None:
                if self.j == -1 and (self.nodes[0], self.weights[0], rows[0, 0]) != (0.0, 1.0, 1.0):
                    raise ValueError(
                        f"level -1 must be node 0, weight 1, psi 1, got node {self.nodes[0]}, "
                        f"weight {self.weights[0]}, psi {rows[0, 0]}"
                    )
                yield rows
        if first_bad is not None:
            raise entry_error(f"level {self.j} psi", *first_bad, "finite", n_bad, n * m)

    def load(self) -> FrameLevel:
        """The level with its whole psi, copied block by block from rows(), read-only."""
        psi = _mapped((self.n_nodes, self.n_freq))
        for r0, rows in zip(range(0, self.n_nodes, _frame.NODE_BLOCK), self.rows()):
            psi[r0 : r0 + rows.shape[0]] = rows
        psi.setflags(write=False)
        return FrameLevel(self.j, self.nodes, self.weights, self.freq_lo, psi)


def _read_level(fh, size: int, j: int, filt: Filter, nodes_mode: str) -> StoredLevel:
    """Read level j's shape record, nodes and weights from fh, a container of size bytes."""
    record = fh.read(_LEVEL.size)
    if len(record) != _LEVEL.size:
        raise ValueError("truncated frame container")
    found_j, n_nodes, freq_lo, n_freq = _LEVEL.unpack(record)
    if found_j != j:
        raise ValueError(f"levels out of order: expected {j}, found {found_j}")
    # the claimed size is checked before anything of that size is allocated,
    # and a negative one fails the shape check that follows
    if 8 * n_nodes * (2 + n_freq) > size - fh.tell():
        raise ValueError("truncated frame container")
    want_nodes, want_lo, a = _level_window(filt, j, nodes_mode)
    want = (want_nodes, want_lo, a.shape[0])
    if (n_nodes, freq_lo, n_freq) != want:
        raise ValueError(
            f"level {j} block shape (n_nodes, freq_lo, n_freq) = "
            f"{(n_nodes, freq_lo, n_freq)}, expected {want}"
        )
    nodes = np.empty(n_nodes, dtype="<f8")
    weights = np.empty(n_nodes, dtype="<f8")
    _read_into(fh, nodes)
    _read_into(fh, weights)
    require_entries(nodes, np.abs(nodes) < 1.0, f"level {j} nodes", "inside (-1, 1)")
    require_entries(
        weights, np.isfinite(weights) & (weights > 0.0), f"level {j} weights", "finite and > 0"
    )
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return StoredLevel(fh, j, nodes, weights, freq_lo, n_freq)


def _read_levels(fh, size: int, head: NeedletFrame) -> Iterator[StoredLevel]:
    for j in range(-1, head.j_max + 1):
        lev = _read_level(fh, size, j, head.filt, head.nodes_per_level)
        end = fh.tell() + 8 * lev.n_nodes * lev.n_freq
        yield lev
        fh.seek(end)
    if fh.tell() != size:
        raise ValueError(f"{size - fh.tell()} trailing bytes after the last level")


@contextlib.contextmanager
def open_frame(path) -> Iterator[tuple[NeedletFrame, Iterator[StoredLevel]]]:
    """Open a version-1 container as (head, levels).

    head is the stored frame with no levels (levels == ()); levels yields
    one StoredLevel per step, j = -1..j_max, and after the last one refuses
    trailing bytes. The header is checked on entry, a level's nodes and
    weights when it is yielded, and its psi as its rows are read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated frame container")
        (magic, version, basis_code, alpha, beta, profile_code, m, node_code,
         j_max, defect, n_levels) = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a frame container (magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported frame container version {version}")
        if basis_code != _JACOBI_CODE:
            raise ValueError(f"unknown basis code {basis_code} in frame container")
        profile_kind = _decode(_PROFILE_CODES, profile_code, "profile")
        nodes_mode = _decode(_NODE_CODES, node_code, "node-mode")
        check_j_max(j_max)
        if not (math.isfinite(defect) and defect >= 0.0):
            raise ValueError(f"exactness defect must be finite and >= 0, got {defect}")
        if n_levels != j_max + 2:
            raise ValueError(f"level count {n_levels} does not match j_max {j_max}")
        filt = make_filter(make_profile(profile_kind, m))
        head = NeedletFrame(jacobi_basis(alpha, beta), filt, j_max, nodes_mode, (), defect)
        yield head, _read_levels(fh, size, head)


def load_frame(path) -> NeedletFrame:
    """Read a version-1 container back into a NeedletFrame, every level held."""
    with open_frame(path) as (head, levels):
        return dataclasses.replace(head, levels=tuple(lev.load() for lev in levels))
