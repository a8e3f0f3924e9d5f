"""Binary frame container: bit-exact round trips, corruption detection, bounded memory."""

import mmap
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import needlets
from needlets import (
    MAX_JMAX,
    analyze,
    build_frame,
    frame_invariants,
    frame_levels,
    jacobi_basis,
    load_frame,
    make_filter,
    make_profile,
    open_frame,
    save_frame,
    synthesize,
    write_levels,
)
import needlets.frame
import needlets.frameio
from needlets.frame import (
    BLOCK, NODE_BLOCK, TILE, _gram_defect, _groups, _level_invariants, _level_window, _row_blocks,
)
from needlets.frameio import _HEADER, _LEVEL


def _mapping(psi):
    """The mmap that holds psi's entries; tracemalloc does not see it."""
    base = psi
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    assert isinstance(base, mmap.mmap)
    return base


def _mapped_peak(monkeypatch, fn):
    """(fn(), the peak bytes of the private mappings frame._mapped gave out while fn ran).

    A mapping counts from its creation until it is released, so the peak
    is what fn held in mappings at once, which tracemalloc does not see.
    """
    real = needlets.frame._mapped
    live = peak = 0

    def release(nbytes):
        nonlocal live
        live -= nbytes

    def counting(shape):
        nonlocal live, peak
        array = real(shape)
        live += array.nbytes
        peak = max(peak, live)
        weakref.finalize(_mapping(array), release, array.nbytes)
        return array

    monkeypatch.setattr(needlets.frame, "_mapped", counting)
    monkeypatch.setattr(needlets.frameio, "_mapped", counting)
    try:
        result = fn()
    finally:
        monkeypatch.undo()
    assert live == 0  # everything fn mapped was released by its return
    return result, peak


def _streamed_bound(n_nodes: int, n_freq: int) -> int:
    """Bytes a streamed level holds at once: the upper triangle of Psi^T Psi
    (3/8 of psi), half a panel more (the lower halves of the panels'
    diagonal squares), one panel (the product buffer), one node block, and
    one tile of the block's rows. At levels 10 and 11 it also bounds the
    sweep, which holds two node blocks and one tile of their rows."""
    panel = min(BLOCK, n_freq) * n_freq
    rows = min(NODE_BLOCK, n_nodes)
    return 8 * (n_freq * (n_freq + 1) // 2 + panel // 2 + panel + rows * n_freq + rows * TILE)


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
    # a stack of runs (the studies) and a single vector (estimate), which
    # BLAS takes as matrix and as matrix-vector products
    stack = np.random.default_rng(8).standard_normal((20, frame8.budget))
    for f in (stack, stack[0]):
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


def test_streamed_layers_hold_one_frame_plus_a_block(filt, tmp_path, traced_peak):
    # build, and load followed by the invariant suite, each peak at most
    # half a frame's psi above the frame itself. Each level's psi lives in a
    # mapping of its own, which tracemalloc does not see, so the traced peaks
    # are the temporaries alone; the mappings go back once the frame is dropped
    path = tmp_path / "frame.ndlt"
    frame, build_peak = traced_peak(lambda: build_frame(jacobi_basis(0.0, 1.0), filt, j_max=10))
    psi_bytes = sum(lev.psi.nbytes for lev in frame.levels)
    maps = [weakref.ref(_mapping(lev.psi)) for lev in frame.levels]
    save_frame(frame, path)
    del frame
    assert [m() for m in maps] == [None] * len(maps)
    check_peak = traced_peak(lambda: frame_invariants(load_frame(path)))[1]
    assert build_peak <= 0.5 * psi_bytes
    assert check_peak <= 0.5 * psi_bytes


def test_reject_j_max_above_max_jmax(small_frame, tmp_path):
    # refused from the header, before any level is read
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    _with_header(path, j_max=MAX_JMAX + 1, n_levels=MAX_JMAX + 3)
    with pytest.raises(ValueError, match=f"j_max must be <= {MAX_JMAX}, got {MAX_JMAX + 1}"):
        load_frame(path)


def _assert_non_finite_psi_is_named(frame, path, j, entries):
    """Write frame to path with NaN at each of level j's psi entries and
    check that both readers name the level's first bad entry and count its
    bad entries, as a whole-level check does."""
    save_frame(frame, path)
    lev = frame.level(j)
    blob = bytearray(path.read_bytes())
    for entry in entries:
        at = _shape_record_at(frame, j) + _LEVEL.size + 8 * (
            2 * lev.n_nodes + np.ravel_multi_index(entry, lev.psi.shape)
        )
        blob[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    first = min(entries)
    message = (rf"level {j} psi\[{first[0]}, {first[1]}\] = nan is not finite "
               rf"\({len(entries)} of {lev.psi.size} entries are not\)")
    with pytest.raises(ValueError, match=message):
        load_frame(path)
    with pytest.raises(ValueError, match=message), open_frame(path) as (head, levels):
        frame_invariants(head, levels)


@pytest.mark.parametrize("entry", [(0, 0), (TILE + 3, 17), (255, 126)])
def test_reject_non_finite_psi_in_any_row_block(frame8, tmp_path, entry):
    # level 7 has 256 rows, one node block; the entries sit in the first, a
    # middle and the last TILE-row stretch of it
    _assert_non_finite_psi_is_named(frame8, tmp_path / "frame.ndlt", 7, [entry])


@pytest.mark.parametrize(
    "entries",
    [[(NODE_BLOCK + 3, 17)], [(2047, 1534), (NODE_BLOCK - 1, 5)]],
    ids=["second-block", "both-blocks"],
)
def test_reject_non_finite_psi_in_either_node_block(frame10, tmp_path, entries):
    # level 10 is read in four node blocks: a bad entry in the second is
    # named, and of two bad entries, one in the first block and one in the
    # last, the first in row order is named
    _assert_non_finite_psi_is_named(frame10, tmp_path / "frame.ndlt", 10, entries)


def test_streamed_levels_match_the_held_frame(frame10, filt, tmp_path):
    # write_levels over frame_levels writes save_frame's bytes, header
    # defect included, though level 10 is swept in two blocks of two node
    # blocks; and the invariant suite reads the same rows from a file as
    # from a held frame
    held, streamed = tmp_path / "held.ndlt", tmp_path / "streamed.ndlt"
    save_frame(frame10, held)
    basis = jacobi_basis(0.0, 1.0)
    defect = write_levels(streamed, basis, filt, 10, "exact", frame_levels(basis, filt, 10))
    assert defect == frame10.exactness_defect
    assert streamed.read_bytes() == held.read_bytes()
    with open_frame(streamed) as (head, levels):
        assert head.levels == () and head.exactness_defect == defect
        assert frame_invariants(head, levels) == frame_invariants(frame10)
    with open_frame(streamed) as (head, levels):
        for lev, built in zip(levels, frame10.levels):
            loaded = lev.load()
            np.testing.assert_array_equal(loaded.psi, built.psi)
            assert loaded.psi.flags.c_contiguous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["held.ndlt", "streamed.ndlt"]


def test_the_node_block_moves_only_the_header_defect(filt, tmp_path, monkeypatch):
    # the node block sets the order in which the Gram check sums a panel's
    # products and nothing else: jmax-10 frames streamed in node blocks of
    # 1024, 512 and 16 rows store the same bytes but for the header's
    # defect, and their defects agree within 1e-15
    basis = jacobi_basis(0.0, 1.0)
    at = _HEADER.size - 12  # the defect, then the level count
    stored, defects = [], []
    for rows in (1024, 512, 16):
        monkeypatch.setattr(needlets.frame, "NODE_BLOCK", rows)
        path = tmp_path / f"{rows}.ndlt"
        defects.append(write_levels(path, basis, filt, 10, "exact", frame_levels(basis, filt, 10)))
        blob = path.read_bytes()
        assert np.frombuffer(blob[at : at + 8], dtype="<f8")[0] == defects[-1]
        stored.append(blob[:at] + blob[at + 8 :])
    assert stored[0] == stored[1] == stored[2]
    assert max(defects) - min(defects) <= 1e-15


def _level6_defects(filt, tmp_path) -> list[float]:
    """Level 6's Gram defect held, streamed into a file (every group read
    back from it) and stored (read through open_frame); the streamed file
    must be save_frame's."""
    basis = jacobi_basis(0.0, 1.0)
    frame = build_frame(basis, filt, 6)
    psi, a = frame.level(6).psi, _level_window(filt, 6, "exact")[2]
    held = _gram_defect(a, psi.shape[0], iter(lambda: _row_blocks(psi), None))
    sweeps = list(frame_levels(basis, filt, 6))
    written, path = tmp_path / "held.ndlt", tmp_path / "streamed.ndlt"
    write_levels(path, basis, filt, 6, "exact", sweeps)
    save_frame(frame, written)
    assert path.read_bytes() == written.read_bytes()
    with open_frame(path) as (head, levels):
        for lev in levels:  # the last is level 6
            stored = _level_invariants(lev, _level_window(filt, lev.j, "exact")[2])[0]
    return [held, sweeps[-1].defect, stored]


def test_gram_groups_keep_the_one_group_defect(filt, tmp_path, small_blocks, monkeypatch):
    # held, streamed and stored levels of 4 Gram groups give the defect of
    # one group, bit for bit, and the build's file bytes
    grouped = _level6_defects(filt, tmp_path)
    monkeypatch.setattr(needlets.frame, "_groups", lambda n, n_rows: [list(range(0, n, needlets.frame.BLOCK))])
    (tmp_path / "one").mkdir()
    one = _level6_defects(filt, tmp_path / "one")
    assert grouped == one == [one[0]] * 3
    assert one[0] <= 1e-9


def test_a_stored_level_scans_each_block_once(filt, tmp_path, small_blocks, monkeypatch):
    # level 6 is 8 node blocks in 4 Gram groups, so the invariant suite
    # reads it 4 times; each block is tested for non-finite entries on the
    # first pass alone
    path = tmp_path / "frame.ndlt"
    save_frame(build_frame(jacobi_basis(0.0, 1.0), filt, 6), path)
    passes, scanned = [], []
    read, scan = needlets.frameio._read_blocks, needlets.frameio._non_finite
    monkeypatch.setattr(needlets.frameio, "_read_blocks", lambda *a: passes.append(a) or read(*a))
    monkeypatch.setattr(needlets.frameio, "_non_finite", lambda r: scanned.append(r.shape) or scan(r))
    with open_frame(path) as (head, levels):
        for lev in levels:  # the last is level 6
            passes.clear()
            scanned.clear()
            gram = _level_invariants(lev, _level_window(filt, lev.j, "exact")[2])[0]
    assert len(passes) == 4 and gram <= 1e-9
    assert scanned == [(16, 95)] * 8


def test_streamed_build_and_check_hold_one_level_plus_a_block(filt, tmp_path, monkeypatch, traced_peak):
    # at jmax 10 the top level (2048 x 1535, 25.2 MB of psi) is swept in two
    # blocks of 1024 rows and read back and checked in four node blocks. Its
    # mappings peak under the Gram triangle, one product panel, one node
    # block and one tile (20.7 MB), which is also more than a sweep's block
    # and tile (13.1 MB), and under the 28.3 MB its whole psi and one Gram
    # product buffer took when the level was held, and every level's
    # mappings are released before the next level is mapped. The traced
    # heap holds no temporary the size of a node block's mask (0.79 MB): it
    # stays under 0.75 MB, of which the partition-of-unity check's
    # 4001-point grid takes 0.5 MB
    path = tmp_path / "frame.ndlt"
    basis = jacobi_basis(0.0, 1.0)

    def build():
        return write_levels(path, basis, filt, 10, "exact", frame_levels(basis, filt, 10))

    def check():
        with open_frame(path) as (head, levels):
            return frame_invariants(head, levels)

    (_, build_heap), build_mapped = _mapped_peak(monkeypatch, lambda: traced_peak(build))
    (rows, check_heap), check_mapped = _mapped_peak(monkeypatch, lambda: traced_peak(check))
    bound = _streamed_bound(2048, 1535)
    assert build_mapped <= bound and check_mapped <= bound
    assert bound < 8 * 2048 * 1535 + 8 * BLOCK * 1535
    assert max(build_heap, check_heap) <= 3 * 2**18
    assert rows == frame_invariants(load_frame(path))


def _run_in_a_process(tmp_path, code: str) -> list[str]:
    """The stdout lines of _STATUS and then code, run in a fresh interpreter with tmp_path as argv[1]."""
    env = dict(os.environ, PYTHONPATH=str(Path(needlets.__file__).resolve().parents[1]))
    r = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_STATUS) + textwrap.dedent(code), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


_STATUS = """
    import sys
    from needlets import cli

    def status(key):
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith(key + ":")) * 1024

    def run(*argv):
        assert cli.main(list(argv)) == 0
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_build_and_check_in_one_process_peak_at_one_level_plus_a_block(tmp_path):
    # frame build and frame check at jmax 11 in one process raise its peak
    # RSS by at most what a streamed level 11 holds (_streamed_bound: 60.0
    # MB, where the held level took 100.6 MB of psi and 5.8 MB of Gram
    # buffer): a dropped level's mappings are unmapped, so level 10's do not
    # stay resident beside level 11's. A build and check at jmax 8 first
    # take the process's one-time allocations (BLAS buffers, heap arenas),
    # about 5 MB, out of the rise
    out = _run_in_a_process(tmp_path, """
        run("frame", "build", "--jmax", "8", "--out", sys.argv[1] + "/j8.ndlt")
        run("frame", "check", sys.argv[1] + "/j8.ndlt")
        before = status("VmHWM")
        run("frame", "build", "--jmax", "11", "--out", sys.argv[1] + "/j11.ndlt")
        run("frame", "check", sys.argv[1] + "/j11.ndlt")
        print(status("VmHWM") - before)
    """)
    n_nodes, n_freq = 2**12, 2**12 - 2**10 - 1  # level 11 of an "exact" frame
    assert int(out[-1]) <= _streamed_bound(n_nodes, n_freq)
    assert _streamed_bound(n_nodes, n_freq) < 8 * n_nodes * n_freq + 8 * BLOCK * n_freq


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_build_and_check_in_one_process_peak_at_one_block_plus_a_gram_group(tmp_path):
    # level 11's Gram triangle (40.9 MB) is summed in four groups of
    # panels, each of at most one node block's floats (12.1, 10.0, 11.0 and
    # 7.9 MB, where a node block is 12.6 MB), so frame build and frame check
    # at jmax 11 raise the peak RSS by at most one node block, the largest
    # group, one product buffer and one tile (31.2 MB); the build reads
    # level 11 back from its file once per group, as the check reads it,
    # and its sweep's block of two node blocks (25.2 MB) stays under that
    # (test_frame.py::test_no_sweep_block_or_gram_group_outgrows_a_gram_pass)
    out = _run_in_a_process(tmp_path, """
        run("frame", "build", "--jmax", "8", "--out", sys.argv[1] + "/j8.ndlt")
        run("frame", "check", sys.argv[1] + "/j8.ndlt")
        before = status("VmHWM")
        run("frame", "build", "--jmax", "11", "--out", sys.argv[1] + "/j11.ndlt")
        run("frame", "check", sys.argv[1] + "/j11.ndlt")
        print(status("VmHWM") - before)
    """)
    n_nodes, n_freq = 2**12, 2**12 - 2**10 - 1  # level 11 of an "exact" frame
    groups = [sum(min(BLOCK, n_freq - c0) * (n_freq - c0) for c0 in g) for g in _groups(n_freq, n_nodes)]
    assert len(groups) == 4 and max(groups) <= NODE_BLOCK * n_freq
    assert int(out[-1]) <= 8 * (NODE_BLOCK * n_freq + max(groups) + BLOCK * n_freq + NODE_BLOCK * TILE)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_second_frame_command_leaves_no_more_resident(tmp_path):
    # node blocks, Gram panels and their buffers are private mappings, so
    # dropping them leaves glibc's mmap threshold where it was; a freed
    # 5.8 MB Gram buffer from the heap once raised it, and a second jmax-11
    # build kept 4 MB more resident than the first
    out = _run_in_a_process(tmp_path, """
        path = sys.argv[1] + "/j11.ndlt"
        run("frame", "build", "--jmax", "11", "--out", path)
        first = status("VmRSS")
        run("frame", "build", "--jmax", "11", "--out", path)
        run("frame", "check", path)
        print(status("VmRSS") - first)
    """)
    assert int(out[-1]) <= 512 * 1024


@pytest.mark.parametrize("reader", ["load_frame", "open_frame"])
def test_loaded_levels_are_read_only(small_frame, tmp_path, reader):
    # as built levels are: no caller can change a loaded frame's nodes,
    # weights or psi in place
    path = tmp_path / "frame.ndlt"
    save_frame(small_frame, path)
    if reader == "load_frame":
        levels = load_frame(path).levels
    else:
        with open_frame(path) as (_, stream):
            levels = [lev.load() for lev in stream]
    assert len(levels) == len(small_frame.levels)
    for lev, built in zip(levels, small_frame.levels):
        for name in ("nodes", "weights", "psi"):
            assert not getattr(built, name).flags.writeable
            assert not getattr(lev, name).flags.writeable, (lev.j, name)
