"""Binary persistence for needlet frames.

Container layout (version 1, everything little-endian): magic "NDLT",
format version, the build parameters (basis family code and Jacobi
exponents, cutoff kind and order, node mode, top level, recorded exactness
defect), then one dense block per level holding nodes, weights, and the
needlet coefficient matrix as raw 64-bit floats, psi row by row. The only
basis family code is 0 (Jacobi).

Both directions stream one level at a time: write_levels writes and drops
each level it is given (save_frame is write_levels over a held frame), and
open_frame reads one level each time it is asked (load_frame holds them
all). Psi moves between its F-ordered array, the layout build_frame
produces, and the file's rows through one buffer of TILE rows, a TILE x
TILE tile at a time, so the transposition stays in cache.

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
Psi is tested for finiteness one row block at a time as it is read; its
first bad entry is named once the level's nodes and weights have passed.
A level that passes is read-only, as a built one is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import require_entries
from .filters import POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL, Filter, make_filter, make_profile
from .frame import (
    NODES_EXACT,
    NODES_PAPER,
    FrameLevel,
    NeedletFrame,
    _level_window,
    _psi_array,
    check_j_max,
)
from .jacobi import JacobiBasis, jacobi_basis

__all__ = ["FORMAT_VERSION", "save_frame", "load_frame", "write_levels", "open_frame"]

_MAGIC = b"NDLT"
FORMAT_VERSION = 1

_JACOBI_CODE = 0
_PROFILE_CODES = {POLYNOMIAL_SHAPE: 0, SMOOTH_EXPONENTIAL: 1}
_NODE_CODES = {NODES_EXACT: 0, NODES_PAPER: 1}

_HEADER = struct.Struct("<4sHBddBiBidi")
_LEVEL = struct.Struct("<iiii")
# rows of psi buffered on their way to or from the file, moved TILE columns
# at a time; a TILE x TILE tile of both layouts (32 KB each) stays in cache
TILE = 64


def _write_psi(fh, psi: np.ndarray) -> None:
    """Write psi row by row through one buffer of TILE rows."""
    n_rows, n_cols = psi.shape
    buf = np.empty((min(TILE, n_rows), n_cols), dtype="<f8")
    for r0 in range(0, n_rows, TILE):
        rows = buf[: min(TILE, n_rows - r0)]
        for c0 in range(0, n_cols, TILE):
            rows[:, c0 : c0 + TILE] = psi[r0 : r0 + TILE, c0 : c0 + TILE]
        fh.write(rows)


def write_levels(
    path,
    basis: JacobiBasis,
    filt: Filter,
    j_max: int,
    nodes_per_level: str,
    levels: Iterable[tuple[FrameLevel, float]],
) -> float:
    """Write (level, defect) pairs for j = -1..j_max to path in container version 1.

    Each level is written as soon as it is given and is not held after, and
    the header records the largest defect, which is returned. Everything
    goes to a sibling temporary file that replaces path once the last level
    is in; if the levels raise, the temporary file is removed and path is
    left untouched.
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
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_HEADER.pack(*fields, 0.0, j_max + 2))
            defects = []
            for lev, lev_defect in levels:
                fh.write(_LEVEL.pack(lev.j, lev.n_nodes, lev.freq_lo, lev.psi.shape[1]))
                fh.write(np.ascontiguousarray(lev.nodes, dtype="<f8"))
                fh.write(np.ascontiguousarray(lev.weights, dtype="<f8"))
                _write_psi(fh, lev.psi)
                defects.append(lev_defect)
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
        ((lev, frame.exactness_defect) for lev in frame.levels),
    )


def _read_into(fh, out: np.ndarray) -> None:
    if fh.readinto(out) != out.nbytes:
        raise ValueError("truncated frame container")


def _decode(codes: dict, value: int, what: str) -> str:
    for name, code in codes.items():
        if code == value:
            return name
    raise ValueError(f"unknown {what} code {value} in frame container")


def _read_psi(fh, psi: np.ndarray) -> bool:
    """Fill the F-ordered psi from rows of fh through one buffer of TILE rows.

    Returns whether every entry is finite, tested one row block at a time.
    """
    n_rows, n_cols = psi.shape
    buf = np.empty((min(TILE, n_rows), n_cols), dtype="<f8")
    finite = True
    for r0 in range(0, n_rows, TILE):
        rows = buf[: min(TILE, n_rows - r0)]
        _read_into(fh, rows)
        finite = finite and bool(np.isfinite(rows).all())
        for c0 in range(0, n_cols, TILE):
            psi[r0 : r0 + TILE, c0 : c0 + TILE] = rows[:, c0 : c0 + TILE]
    return finite


def _read_level(fh, size: int, j: int, filt: Filter, nodes_mode: str) -> FrameLevel:
    """Read level j's block from fh, a container of size bytes."""
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
    psi = _psi_array((n_nodes, n_freq))
    psi_finite = _read_psi(fh, psi)
    require_entries(nodes, np.abs(nodes) < 1.0, f"level {j} nodes", "inside (-1, 1)")
    require_entries(
        weights, np.isfinite(weights) & (weights > 0.0), f"level {j} weights", "finite and > 0"
    )
    if not psi_finite:
        # the whole-level mask only on the way out, to name the first bad entry
        require_entries(psi, np.isfinite(psi), f"level {j} psi", "finite")
    if j == -1 and (nodes[0], weights[0], psi[0, 0]) != (0.0, 1.0, 1.0):
        raise ValueError(
            f"level -1 must be node 0, weight 1, psi 1, "
            f"got node {nodes[0]}, weight {weights[0]}, psi {psi[0, 0]}"
        )
    for a in (nodes, weights, psi):
        a.setflags(write=False)
    return FrameLevel(j, nodes, weights, freq_lo, psi)


def _read_levels(fh, size: int, head: NeedletFrame) -> Iterator[FrameLevel]:
    for j in range(-1, head.j_max + 1):
        yield _read_level(fh, size, j, head.filt, head.nodes_per_level)
    if fh.tell() != size:
        raise ValueError(f"{size - fh.tell()} trailing bytes after the last level")


@contextlib.contextmanager
def open_frame(path) -> Iterator[tuple[NeedletFrame, Iterator[FrameLevel]]]:
    """Open a version-1 container as (head, levels).

    head is the stored frame with no levels (levels == ()); levels reads,
    checks and yields one level per step, j = -1..j_max, and after the last
    one refuses trailing bytes. It holds no level it has yielded. The
    header is checked on entry; a level's checks run when it is read.
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
        return dataclasses.replace(head, levels=tuple(levels))
