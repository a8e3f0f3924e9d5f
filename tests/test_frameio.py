"""Binary frame container: bit-exact round trips and corruption detection."""

import numpy as np
import pytest

from needlets import (
    build_frame,
    jacobi_basis,
    load_frame,
    make_filter,
    make_profile,
    save_frame,
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
    # each level block is a shape record, then nodes, weights and psi as float64;
    # levels -1..2 come before level 3
    offset = _HEADER.size + _LEVEL.size + sum(
        _LEVEL.size + 8 * lev.n_nodes * (2 + lev.psi.shape[1]) for lev in small_frame.levels[:4]
    )
    lev = small_frame.level(3)
    start = {"nodes": 0, "weights": lev.n_nodes, "psi": 2 * lev.n_nodes}[field]
    flat = np.ravel_multi_index(entry, lev.psi.shape if field == "psi" else (lev.n_nodes,))
    blob = bytearray(path.read_bytes())
    at = offset + 8 * (start + flat)
    blob[at : at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=message):
        load_frame(path)
