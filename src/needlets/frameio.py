"""Binary persistence for needlet frames.

Container layout (version 1, everything little-endian): magic "NDLT",
format version, the build parameters (basis family code and Jacobi
exponents, cutoff kind and order, node mode, top level, recorded exactness
defect), then one dense block per level holding nodes, weights, and the
needlet coefficient matrix as raw 64-bit floats. The only basis family code
is 0 (Jacobi). Loading rebuilds the filter and basis from the stored
parameters and takes the level blocks verbatim, so a round trip is
bit-exact; any unknown code or structural mismatch, and any non-finite psi
entry, node outside (-1, 1) or non-positive weight, raises ValueError naming
the level and entry rather than returning a partially read or corrupt frame.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import require_entries
from .filters import POLYNOMIAL_SHAPE, SMOOTH_EXPONENTIAL, make_filter, make_profile
from .frame import NODES_EXACT, NODES_PAPER, FrameLevel, NeedletFrame
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
            fh.write(np.ascontiguousarray(lev.nodes, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(lev.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(lev.psi, dtype="<f8").tobytes())


def _take(buf: memoryview, offset: int, size: int) -> tuple[memoryview, int]:
    if offset + size > len(buf):
        raise ValueError("truncated frame container")
    return buf[offset : offset + size], offset + size


def _decode(codes: dict, value: int, what: str) -> str:
    for name, code in codes.items():
        if code == value:
            return name
    raise ValueError(f"unknown {what} code {value} in frame container")


def load_frame(path) -> NeedletFrame:
    """Read a version-1 container back into a NeedletFrame."""
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())

    raw, offset = _take(buf, 0, _HEADER.size)
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
    if n_levels != j_max + 2:
        raise ValueError(f"level count {n_levels} does not match j_max {j_max}")

    levels = []
    expected_j = -1
    for _ in range(n_levels):
        raw, offset = _take(buf, offset, _LEVEL.size)
        j, n_nodes, freq_lo, n_freq = _LEVEL.unpack(raw)
        if j != expected_j:
            raise ValueError(f"levels out of order: expected {expected_j}, found {j}")
        if n_nodes < 1 or n_freq < 1 or freq_lo < 0:
            raise ValueError(f"level {j} has invalid block shape")
        raw, offset = _take(buf, offset, 8 * n_nodes)
        nodes = np.frombuffer(raw, dtype="<f8").copy()
        raw, offset = _take(buf, offset, 8 * n_nodes)
        weights = np.frombuffer(raw, dtype="<f8").copy()
        raw, offset = _take(buf, offset, 8 * n_nodes * n_freq)
        psi = np.frombuffer(raw, dtype="<f8").copy().reshape(n_nodes, n_freq)
        require_entries(nodes, np.abs(nodes) < 1.0, f"level {j} nodes", "inside (-1, 1)")
        require_entries(
            weights, np.isfinite(weights) & (weights > 0.0), f"level {j} weights", "finite and > 0"
        )
        require_entries(psi, np.isfinite(psi), f"level {j} psi", "finite")
        levels.append(FrameLevel(j, nodes, weights, freq_lo, psi))
        expected_j += 1
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} trailing bytes after the last level")

    filt = make_filter(make_profile(profile_kind, m))
    return NeedletFrame(jacobi_basis(alpha, beta), filt, j_max, nodes_mode, tuple(levels), defect)
