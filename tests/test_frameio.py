"""Binary frame container: bit-exact round trips, corruption detection, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from needlets import (
    analyze,
    build_frame,
    frame_invariants,
    jacobi_basis,
    load_frame,
    make_filter,
    make_profile,
    save_frame,
    synthesize,
)
from needlets.frameio import _HEADER, _LEVEL


@pytest.fixture(scope="module")
def small_frame():
    filt = make_filter(make_profile("polynomial-shape", 2))
    return build_frame(jacobi_basis(0.0, 1.0), filt, j_max=4)


def _assert_frames_equal(a, b):
    assert a.j_max == b.j_max
    assert a.nodes_per_level == b.nodes_per_level
    assert a.basis == b.basis
    assert a.exactness_defect == b.exactness_defect
    for la, lb in zip(a.levels, b.levels):
        assert la.j == lb.j and la.freq_lo == lb.freq_lo
        np.testing.assert_array_equal(la.nodes, lb.nodes)
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.psi, lb.psi)


def test_round_trip_jacobi(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    _assert_frames_equal(small_frame, load_frame(path))


def test_round_trip_paper_nodes(tmp_path):
    filt = make_filter(make_profile("smooth-exponential", 1))
    frame = build_frame(jacobi_basis(0.5, 0.5), filt, j_max=3, nodes_per_level="paper")
    path = tmp_path / "frame.ndlt"
    save_frame(frame, path)
    back = load_frame(path)
    _assert_frames_equal(frame, back)
    assert back.basis == frame.basis
    assert back.filt.profile.kind == "smooth-exponential"


def test_save_is_deterministic(small_frame, tmp_path):
    p1, p2 = tmp_path / "a.ndlt", tmp_path / "b.ndlt"
    save_frame(small_frame, p1)
    save_frame(small_frame, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_reject_bad_magic(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_frame(path)


def test_reject_unknown_version(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (999).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_frame(path)


def test_reject_truncated(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(ValueError):
        load_frame(path)


def test_reject_trailing_garbage(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(ValueError):
        load_frame(path)


def test_reject_bad_enum_code(small_frame, tmp_path):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    blob[6] = 7  # basis code byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_frame(path)


def test_reject_basis_code_1(small_frame, tmp_path):
    # 0 (Jacobi) is the only basis family code; 1 names no family
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    blob[6] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unknown basis code 1"):
        load_frame(path)


def _with_header(path, **fields):
    """Rewrite header fields of the container at path, by _HEADER field name."""
    names = ("magic", "version", "basis", "alpha", "beta", "profile", "m", "nodes",
             "j_max", "defect", "n_levels")
    blob = bytearray(path.read_bytes())
    values = dict(zip(names, _HEADER.unpack(blob[: _HEADER.size])), **fields)
    blob[: _HEADER.size] = _HEADER.pack(*(values[n] for n in names))
    path.write_bytes(bytes(blob))


def test_reject_negative_j_max(small_frame, tmp_path):
    # a header with j_max = -1 and only level -1 is consistent in itself,
    # but build_frame never writes it (its budget is 1, its exact span 1.5)
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    path.write_bytes(path.read_bytes()[: _shape_record_at(small_frame, 0)])
    _with_header(path, j_max=-1, n_levels=1)
    with pytest.raises(ValueError, match="j_max must be >= 0, got -1"):
        load_frame(path)


@pytest.mark.parametrize("defect", [np.nan, -1e-12, np.inf], ids=["nan", "negative", "inf"])
def test_reject_bad_exactness_defect(small_frame, tmp_path, defect):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    _with_header(path, defect=defect)
    with pytest.raises(ValueError, match=f"exactness defect must be finite and >= 0, got {defect}"):
        load_frame(path)


@pytest.mark.parametrize(
    "entry, value, message",
    [
        (0, 0.5, "got node 0.5, weight 1.0, psi 1.0"),
        (1, 0.25, "got node 0.0, weight 0.25, psi 1.0"),
        (2, -1.0, "got node 0.0, weight 1.0, psi -1.0"),
    ],
    ids=["node", "weight", "psi"],
)
def test_reject_level_minus_one_not_constant(small_frame, tmp_path, entry, value, message):
    # level -1 is the constant needlet: one node 0 of weight 1, psi 1
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    at = _shape_record_at(small_frame, -1) + _LEVEL.size + 8 * entry
    blob[at : at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="level -1 must be node 0, weight 1, psi 1, " + message):
        load_frame(path)


def _shape_record_at(frame, j):
    """Offset of level j's shape record: the header, then levels -1..j-1."""
    return _HEADER.size + sum(
        _LEVEL.size + 8 * lev.n_nodes * (2 + lev.psi.shape[1]) for lev in frame.levels[: j + 1]
    )


@pytest.mark.parametrize(
    "field, entry, value, message",
    [
        ("psi", (12, 4), np.nan, r"level 3 psi\[12, 4\] = nan is not finite"),
        ("nodes", (5,), 1.5, r"level 3 nodes\[5\] = 1.5 is not inside \(-1, 1\)"),
        ("weights", (0,), np.inf, r"level 3 weights\[0\] = inf is not finite and > 0"),
        ("weights", (7,), -0.25, r"level 3 weights\[7\] = -0.25 is not finite and > 0"),
    ],
    ids=["psi-nan", "node-outside", "weight-inf", "weight-negative"],
)
def test_reject_bad_level_entries(small_frame, tmp_path, field, entry, value, message):
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    # each level block is a shape record, then nodes, weights and psi as float64
    offset = _shape_record_at(small_frame, 3) + _LEVEL.size
    lev = small_frame.level(3)
    start = {"nodes": 0, "weights": lev.n_nodes, "psi": 2 * lev.n_nodes}[field]
    flat = np.ravel_multi_index(entry, lev.psi.shape if field == "psi" else (lev.n_nodes,))
    blob = bytearray(path.read_bytes())
    at = offset + 8 * (start + flat)
    blob[at : at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=message):
        load_frame(path)


def test_round_trip_keeps_analysis_and_synthesis_bits(frame8, tmp_path):
    # built and loaded psi share one layout, so BLAS rounds the level
    # products alike and an estimate from a saved frame matches one built
    # in process to the last bit
    path = tmp_path / "frame.ndlt"
    save_frame(frame8, path)
    back = load_frame(path)
    f = np.random.default_rng(8).standard_normal((20, frame8.budget))
    beta = analyze(frame8, f)
    for built, loaded in zip(beta, analyze(back, f)):
        np.testing.assert_array_equal(built, loaded)
    np.testing.assert_array_equal(synthesize(frame8, beta), synthesize(back, beta))


@pytest.mark.parametrize(
    "field, value, message",
    [
        (2, 6, r"level 3 block shape \(n_nodes, freq_lo, n_freq\) = \(16, 6, 11\), "
               r"expected \(16, 5, 11\)"),
        (1, 8, r"level 3 block shape .* = \(8, 5, 11\)"),
        (3, 2**30, r"^truncated frame container$"),
        (1, 2**32 - 16, r"level 3 block shape .* = \(-16, 5, 11\)"),
    ],
    ids=["freq-lo-off-by-one", "paper-node-count", "huge-n-freq", "negative-n-nodes"],
)
def test_reject_shape_record_not_of_its_level(small_frame, tmp_path, field, value, message):
    # a record must match its level in the frame's node mode, and a claimed
    # size past the end of the file (or below zero) fails before anything is
    # allocated
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    blob = bytearray(path.read_bytes())
    at = _shape_record_at(small_frame, 3) + 4 * field
    blob[at : at + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=message):
        load_frame(path)


def test_streamed_layers_hold_one_frame_plus_a_block(filt, tmp_path):
    # build, and load followed by the invariant suite, each peak at most
    # half a frame's psi above the frame itself
    path = tmp_path / "frame.ndlt"
    tracemalloc.start()
    try:
        frame = build_frame(jacobi_basis(0.0, 1.0), filt, j_max=10)
        build_peak = tracemalloc.get_traced_memory()[1]
        psi_bytes = sum(lev.psi.nbytes for lev in frame.levels)
        save_frame(frame, path)
        del frame
        tracemalloc.stop()
        tracemalloc.start()
        frame_invariants(load_frame(path))
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.5 * psi_bytes
    assert check_peak <= 1.5 * psi_bytes
