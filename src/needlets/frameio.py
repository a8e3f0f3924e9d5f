"""Binary persistence for needlet frames.

Container layout (version 1, everything little-endian): magic "NDLT",
format version, the build parameters (basis family code and Jacobi
exponents, cutoff kind and order, node mode, top level, recorded exactness
defect), then one dense block per level holding nodes, weights, and the
needlet coefficient matrix as raw 64-bit floats, psi row by row. The only
basis family code is 0 (Jacobi).

Both directions stream: saving writes nodes and weights straight from their
arrays and psi a block of frame.BLOCK rows at a time; loading reads each
array in place with readinto, psi through one BLOCK-row buffer into an
F-ordered array, the layout build_frame produces, so analyze and synthesize
round the same on a built and a loaded frame. Beside one frame, a save or
load holds at most one row block.

Loading rebuilds the filter and basis from the stored parameters before it
reads a level, and takes the level blocks verbatim, so a round trip is
bit-exact. Each level's shape record must be the one frame._level_window
gives level j under the stored filter and node mode (2^{j+1} or 2^j nodes,
the frequency window of j; level -1 is one node at frequency 0), and the
bytes it claims must fit in what is left of the file, which is checked
before anything is allocated. Any unknown code or structural mismatch, a
negative top level or exactness defect, a level -1 other than node 0,
weight 1 and psi 1, and any non-finite psi entry, node outside (-1, 1) or
non-positive weight, raises ValueError naming the value rather than
returning a partially read or corrupt frame.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import require_entries
from .filters import POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL, Filter, make_filter, make_profile
from .frame import BLOCK, NODES_EXACT, NODES_PAPER, FrameLevel, NeedletFrame, _level_window
from .jacobi import jacobi_basis

__all__ = ["FORMAT_VERSION", "save_frame", "load_frame"]

_MAGIC = b"NDLT"
FORMAT_VERSION = 1

_JACOBI_CODE = 0
_PROFILE_CODES = {POLYNOMIAL_SHAPE: 0, SMOOTH_EXPONENTIAL: 1}
_NODE_CODES = {NODES_EXACT: 0, NODES_PAPER: 1}

_HEADER = struct.Struct("<4sHBddBiBidi")
_LEVEL = struct.Struct("<iiii")


def save_frame(frame: NeedletFrame, path) -> None:
    """Write the frame to path in container version 1."""
    header = _HEADER.pack(
        _MAGIC,
        FORMAT_VERSION,
        _JACOBI_CODE,
        frame.basis.alpha,
        frame.basis.beta,
        _PROFILE_CODES[frame.filt.profile.kind],
        frame.filt.profile.m,
        _NODE_CODES[frame.nodes_per_level],
        frame.j_max,
        frame.exactness_defect,
        len(frame.levels),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for lev in frame.levels:
            fh.write(_LEVEL.pack(lev.j, lev.n_nodes, lev.freq_lo, lev.psi.shape[1]))
            fh.write(np.ascontiguousarray(lev.nodes, dtype="<f8"))
            fh.write(np.ascontiguousarray(lev.weights, dtype="<f8"))
            # psi is stored row by row; a block of rows is copied at a time
            for r0 in range(0, lev.n_nodes, BLOCK):
                fh.write(np.ascontiguousarray(lev.psi[r0 : r0 + BLOCK], dtype="<f8"))


def _read_into(fh, out: np.ndarray) -> None:
    if fh.readinto(out) != out.nbytes:
        raise ValueError("truncated frame container")


def _decode(codes: dict, value: int, what: str) -> str:
    for name, code in codes.items():
        if code == value:
            return name
    raise ValueError(f"unknown {what} code {value} in frame container")


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
    psi = np.empty((n_nodes, n_freq), dtype="<f8", order="F")
    rows = np.empty((min(BLOCK, n_nodes), n_freq), dtype="<f8")
    for r0 in range(0, n_nodes, BLOCK):
        block = rows[: min(BLOCK, n_nodes - r0)]
        _read_into(fh, block)
        psi[r0 : r0 + block.shape[0]] = block
    require_entries(nodes, np.abs(nodes) < 1.0, f"level {j} nodes", "inside (-1, 1)")
    require_entries(
        weights, np.isfinite(weights) & (weights > 0.0), f"level {j} weights", "finite and > 0"
    )
    require_entries(psi, np.isfinite(psi), f"level {j} psi", "finite")
    if j == -1 and (nodes[0], weights[0], psi[0, 0]) != (0.0, 1.0, 1.0):
        raise ValueError(
            f"level -1 must be node 0, weight 1, psi 1, "
            f"got node {nodes[0]}, weight {weights[0]}, psi {psi[0, 0]}"
        )
    return FrameLevel(j, nodes, weights, freq_lo, psi)


def load_frame(path) -> NeedletFrame:
    """Read a version-1 container back into a NeedletFrame."""
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
        if j_max < 0:
            raise ValueError(f"j_max must be >= 0, got {j_max}")
        if not (math.isfinite(defect) and defect >= 0.0):
            raise ValueError(f"exactness defect must be finite and >= 0, got {defect}")
        if n_levels != j_max + 2:
            raise ValueError(f"level count {n_levels} does not match j_max {j_max}")
        filt = make_filter(make_profile(profile_kind, m))
        levels = tuple(_read_level(fh, size, j, filt, nodes_mode) for j in range(-1, j_max + 1))
        if fh.tell() != size:
            raise ValueError(f"{size - fh.tell()} trailing bytes after the last level")
    return NeedletFrame(jacobi_basis(alpha, beta), filt, j_max, nodes_mode, levels, defect)
