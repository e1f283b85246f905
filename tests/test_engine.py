"""Layer recursion: initial condition, advances, caps, checkpoints, extension."""

import os
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphseq import engine, oracle
from graphseq.engine import (
    Checkpoint,
    CheckpointFormatError,
    MemoryBudgetExceeded,
    Parity,
    advance,
    area_floor,
    count_graphic,
    decrease_cap,
    extend_counts,
    initial_layer,
    stream_counts,
)


def layer_at(depth, parity=Parity.EVEN):
    layer = initial_layer(parity)
    for _ in range(depth):
        layer = advance(layer)
    return layer


_REFERENCE_MEMO = {}


def reference_count(depth, y, a, parity):
    """Cap-free memoized recursion straight from the definition."""
    if a < 0 or y > depth or y < -depth - 1:
        return 0
    if depth == 0:
        return 1 if y in (0, -1) and (a & 1) == parity else 0
    key = (depth, y, a, parity)
    if key not in _REFERENCE_MEMO:
        _REFERENCE_MEMO[key] = (
            reference_count(depth - 1, y + 1, a + y + 1, parity)
            + reference_count(depth - 1, y - 1, a + y - 1, parity)
            + 2 * reference_count(depth - 1, y, a + y, parity)
        )
    return _REFERENCE_MEMO[key]


# ---------------------------------------------------------------------------
# initial layer


def test_initial_layer_even():
    layer = initial_layer(Parity.EVEN)
    assert layer.value(0, 0) == 1
    assert layer.value(0, 1) == 0
    assert layer.value(1, 0) == 0
    assert layer.value(-1, 0) == 1
    # periodic reads above the cap
    assert layer.value(0, 6) == 1 and layer.value(0, 7) == 0


def test_initial_layer_odd():
    layer = initial_layer(Parity.ODD)
    assert layer.value(0, 1) == 1
    assert layer.value(0, 0) == 0


# ---------------------------------------------------------------------------
# advance


def test_advance_hand_expansion():
    # F(1,0,0) = F(0,1,1) + F(0,-1,-1) + 2 F(0,0,0) = 0 + 0 + 2
    layer = advance(initial_layer(Parity.EVEN))
    assert layer.value(0, 0) == 2


def test_advance_twice_matches_small_oracle():
    layer = layer_at(2)
    assert layer.value(0, 0) == 4  # G(3)
    odd = layer_at(2, Parity.ODD)
    assert odd.value(0, 0) == 1  # H(3): only (1,1,1) dominates with odd sum


def test_count_graphic_spot_values():
    assert count_graphic(1) == 1
    assert count_graphic(2) == 2
    assert count_graphic(3, Parity.ODD) == 1


@pytest.mark.parametrize("n", range(1, 10))
def test_counts_match_oracle(n):
    g, h, d = oracle.brute_counts(n)
    assert count_graphic(n, Parity.EVEN) == g
    assert count_graphic(n, Parity.ODD) == h
    assert g + h == d


def test_sum_identity_dominating():
    for n in range(1, 10):
        g, h, d = oracle.brute_counts(n)
        dominating = sum(
            1 for seq in oracle.enumerate_sequences(n) if oracle.is_graphic(seq)[0]
        )
        assert d == dominating == g + h


def test_growth_properties():
    values = [v for _, v, _ in stream_counts(30)]
    odd_values = [v for _, v, _ in stream_counts(30, Parity.ODD)]
    for i in range(1, 30):
        assert values[i] >= values[i - 1]
        assert 2 * values[i] >= values[i - 1] + odd_values[i - 1]


# ---------------------------------------------------------------------------
# the decrease cap


def test_decrease_cap_examples():
    assert decrease_cap(2, 0) == 2
    assert decrease_cap(3, 0) == 4  # path -1,-2,-1 loses area 4
    assert decrease_cap(0, 0) == 0


def exhaustive_max_decrease(n_steps, y):
    """Largest area loss over all {-1,0,1} walks from y ending in {0,-1}."""
    best = None
    stack = [(y, 0, 0)]
    while stack:
        height, spent, steps = stack.pop()
        if steps == n_steps:
            if height in (0, -1):
                best = spent if best is None else min(best, spent)
            continue
        for delta in (-1, 0, 1):
            nh = height + delta
            stack.append((nh, spent + nh, steps + 1))
    return -best if best is not None else None


@pytest.mark.parametrize("n_steps", range(0, 8))
def test_decrease_cap_is_exhaustive_minimum(n_steps):
    for y in range(-n_steps - 1, n_steps + 1):
        assert decrease_cap(n_steps, y) == exhaustive_max_decrease(n_steps, y)


@given(st.integers(0, 120), st.data())
def test_decrease_cap_integral_formula(n_steps, data):
    y = data.draw(st.integers(-n_steps - 1, n_steps))
    value = decrease_cap(n_steps, y)  # raises if the numerator were not = 0 mod 4
    if y <= 0:
        # from a non-positive height the possible loss covers the whole floor
        assert value >= area_floor(y)
    else:
        # (n-y)^2 + 2n - 2y^2 >= 2y - 2y^2 pointwise
        assert value >= -(y * (y - 1)) // 2


def test_decrease_cap_rejects_unreachable_heights():
    with pytest.raises(ValueError):
        decrease_cap(3, 5)


# ---------------------------------------------------------------------------
# cap representation vs the cap-free reference


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_cap_reads_match_reference(parity):
    layer = initial_layer(parity)
    for depth in range(1, 12):  # n = depth + 1 <= 12
        layer = advance(layer)
        for y in layer.heights():
            band = layer.bands[y]
            for a in list(range(band.lo, min(band.lo + 3, band.cap + 2))) + list(
                range(band.cap, band.cap + 5)
            ):
                assert layer.value(y, a) == reference_count(depth, y, a, parity), (
                    depth,
                    y,
                    a,
                )
        # below the floor everything is exactly zero
        for y in range(-depth - 1, 0):
            floor = area_floor(y)
            if floor > 0:
                assert layer.value(y, floor - 1) == 0
                assert reference_count(depth, y, floor - 1, parity) == 0


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_checkpoint_roundtrip(parity, tmp_path):
    layer = layer_at(10, parity)
    path = tmp_path / "layer.ckpt"
    Checkpoint.of(layer).save(path)
    loaded = Checkpoint.load(path)
    assert loaded.layer == layer
    assert loaded.depth == 10 and loaded.parity == parity


def test_checkpoint_roundtrip_four_limbs(tmp_path):
    layer = layer_at(70)
    assert engine._nlimbs(70) == 4
    path = tmp_path / "deep.ckpt"
    Checkpoint.of(layer).save(path)
    assert Checkpoint.load(path).layer == layer


def saved_bytes(tmp_path, depth=4):
    path = tmp_path / "layer.ckpt"
    Checkpoint.of(layer_at(depth)).save(path)
    return path, path.read_bytes()


def test_checkpoint_version_mismatch(tmp_path):
    path, good = saved_bytes(tmp_path)
    for version in (1, 2, 77):
        path.write_bytes(good[:8] + version.to_bytes(4, "little") + good[12:])
        with pytest.raises(CheckpointFormatError, match=f"version {version}"):
            Checkpoint.load(path)
    path.write_bytes(b"NOTMAGIC" + good[8:])
    with pytest.raises(CheckpointFormatError):
        Checkpoint.load(path)


# mid-band: 8 magic + 29 header + 24 first band record + 20 of its 32 limb bytes
@pytest.mark.parametrize(
    "cut", [20, 8 + 29 + 24 + 20, -4], ids=["header", "mid-band", "before-checksum"]
)
def test_checkpoint_truncation(cut, tmp_path):
    path, good = saved_bytes(tmp_path)
    path.write_bytes(good[:cut])
    with pytest.raises(CheckpointFormatError):
        Checkpoint.load(path)


def test_checkpoint_single_byte_corruption(tmp_path):
    path, good = saved_bytes(tmp_path, depth=2)
    for i in range(len(good)):
        path.write_bytes(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1 :])
        with pytest.raises(CheckpointFormatError):
            Checkpoint.load(path)


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    path, _ = saved_bytes(tmp_path)

    def fail(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        Checkpoint.of(layer_at(6)).save(path)
    assert Checkpoint.load(path).layer == layer_at(4)
    assert [p.name for p in tmp_path.iterdir()] == ["layer.ckpt"]


def test_checkpoint_magic_bytes(tmp_path):
    path = tmp_path / "layer.ckpt"
    Checkpoint.of(layer_at(2)).save(path)
    assert path.read_bytes()[:8] == b"GSEQCKPT"


# ---------------------------------------------------------------------------
# on-demand extension


def test_extend_from_depth10_matches_full():
    ckpt = Checkpoint.of(layer_at(10))
    assert extend_counts(ckpt, 13)[-1] == (13, count_graphic(13))


def test_extend_from_initial_layers():
    assert extend_counts(Checkpoint.of(initial_layer(Parity.EVEN)), 3)[-1] == (3, 4)
    assert extend_counts(Checkpoint.of(initial_layer(Parity.ODD)), 3)[-1] == (3, 1)


def test_extend_counts_stream():
    ckpt = Checkpoint.of(layer_at(6))
    rows = extend_counts(ckpt, 12)
    assert rows == [(n, count_graphic(n)) for n in range(8, 13)]


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_extend_counts_equals_stream_counts(parity, tmp_path):
    streamed = [(n, v) for n, v, _ in stream_counts(40, parity)]
    assert extend_counts(Checkpoint.of(initial_layer(parity)), 40) == streamed[1:]
    path = tmp_path / "depth6.ckpt"
    Checkpoint.of(layer_at(6, parity)).save(path)
    assert extend_counts(Checkpoint.load(path), 30) == streamed[7:30]


def test_extend_counts_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    rows = extend_counts(Checkpoint.of(layer_at(3)), 200)
    assert sys.getrecursionlimit() == limit
    assert [n for n, _ in rows] == list(range(5, 201))


def test_extend_rejects_backward_target():
    ckpt = Checkpoint.of(layer_at(5))
    with pytest.raises(ValueError):
        extend_counts(ckpt, 6)


def test_extend_memory_budget():
    ckpt = Checkpoint.of(initial_layer(Parity.EVEN))
    with pytest.raises(MemoryBudgetExceeded) as info:
        extend_counts(ckpt, 61, memory_limit=1000)
    # the cone layers stay inside the call: the exception carries the checkpoint
    assert info.value.layer is ckpt.layer
    assert info.value.needed > info.value.budget == 1000


def test_extend_budget_counts_the_checkpoint_on_every_step():
    # the checkpoint stays alive: past the first step the process holds it,
    # the cone parent and the cone child at once
    ckpt = Checkpoint.of(layer_at(12))
    max_n = 30
    parent, peak = ckpt.layer, 0
    for _ in range(ckpt.depth + 1, max_n):
        child = advance(parent, max_n - 1)
        kept = 0 if parent is ckpt.layer else ckpt.layer.nbytes
        peak = max(peak, kept + parent.nbytes + child.nbytes)
        parent = child
    assert extend_counts(ckpt, max_n, memory_limit=peak) == extend_counts(ckpt, max_n)
    with pytest.raises(MemoryBudgetExceeded) as info:
        extend_counts(ckpt, max_n, memory_limit=peak - 1)
    assert info.value.layer is ckpt.layer
    assert info.value.needed == peak


# ---------------------------------------------------------------------------
# memory budget on the layered path


def test_stream_counts_memory_budget():
    with pytest.raises(MemoryBudgetExceeded) as info:
        list(stream_counts(60, memory_limit=4000))
    exc = info.value
    assert exc.layer.depth < 60
    assert exc.needed > 4000
    # the carried layer is complete and usable
    assert exc.layer.value(0, 0) == count_graphic(exc.layer.depth + 1)


def test_stream_counts_values_against_oracle_prefix():
    got = [(n, v) for n, v, _ in stream_counts(8)]
    want = [(n, oracle.brute_counts(n)[0]) for n in range(1, 9)]
    assert got == want
