"""Layer recursion: initial condition, advances, caps, checkpoints, extension."""

import copy
import functools
import itertools
import os
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphseq import engine, oracle
from graphseq.engine import (
    Checkpoint,
    CheckpointFormatError,
    LIMB_BITS,
    LIMB_MASK,
    MemoryBudgetExceeded,
    Parity,
    advance,
    area_floor,
    cone_reach,
    count_graphic,
    decrease_cap,
    extend_counts,
    initial_layer,
)
from graphseq.oracle import reference_count


def layer_at(depth, *parities, horizon=None):
    layer = initial_layer(*(parities or (Parity.EVEN,)))
    for _ in range(depth):
        layer = advance(layer, horizon)
    return layer


def count_rows(layer, max_n, **kwargs):
    return [(n, v) for n, (v,), _ in extend_counts(layer, max_n, **kwargs)]


def counts(max_n, parity=Parity.EVEN, **kwargs):
    return [v for _, v in count_rows(initial_layer(parity), max_n, **kwargs)]


# ---------------------------------------------------------------------------
# initial layer


def test_initial_layer_even():
    layer = initial_layer(Parity.EVEN)
    assert layer.value(0, 0) == (1,)
    assert layer.value(0, 1) == (0,)
    assert layer.value(1, 0) == (0,)
    assert layer.value(-1, 0) == (1,)
    # periodic reads above the cap
    assert layer.value(0, 6) == (1,) and layer.value(0, 7) == (0,)


def test_initial_layer_odd():
    layer = initial_layer(Parity.ODD)
    assert layer.value(0, 1) == (1,)
    assert layer.value(0, 0) == (0,)


def test_initial_layer_holds_each_parity_once_in_increasing_order():
    layer = initial_layer(Parity.ODD, Parity.EVEN, Parity.ODD)
    assert layer == initial_layer(Parity.EVEN, Parity.ODD)
    assert layer.parities == (Parity.EVEN, Parity.ODD)
    assert layer.value(0, 0) == (1, 0) and layer.value(0, 1) == (0, 1)
    assert initial_layer(Parity.ODD, Parity.ODD) == initial_layer(Parity.ODD)
    with pytest.raises(ValueError):
        initial_layer()


# ---------------------------------------------------------------------------
# advance


def test_advance_hand_expansion():
    # F(1,0,0) = F(0,1,1) + F(0,-1,-1) + 2 F(0,0,0) = 0 + 0 + 2
    layer = advance(initial_layer(Parity.EVEN))
    assert layer.value(0, 0) == (2,)


def test_advance_twice_matches_small_oracle():
    layer = layer_at(2)
    assert layer.value(0, 0) == (4,)  # G(3)
    odd = layer_at(2, Parity.ODD)
    assert odd.value(0, 0) == (1,)  # H(3): only (1,1,1) dominates with odd sum


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
    values = counts(30)
    odd_values = counts(30, Parity.ODD)
    for i in range(1, 30):
        assert values[i] >= values[i - 1]
        assert 2 * values[i] >= values[i - 1] + odd_values[i - 1]


def same_bands(layer, i, layer1):
    """Whether the i-th parity of `layer` has the bands of the one-parity `layer1`."""
    return layer.bands.keys() == layer1.bands.keys() and all(
        (b.lo, b.cap) == (b1.lo, b1.cap) and np.array_equal(b.limbs[:, i], b1.limbs[:, 0])
        for b, b1 in zip(layer.bands.values(), layer1.bands.values()))


def test_two_parity_runs_equal_the_one_parity_runs(tmp_path):
    # band by band, on cone layers and on complete layers, from depth 0 and
    # from a loaded depth-6 checkpoint of both parities.  Each row's layer is
    # consumed by the next advance, so the runs are compared as they stream
    path = tmp_path / "both.ckpt"

    def compare(run, complete, skip=0):
        singles = [itertools.islice(extend_counts(initial_layer(parity), 60, complete=complete),
                                    skip, None) for parity in Parity]
        rows = 0
        for (n, counts, layer), *single in zip(run, *singles, strict=True):
            for i, (n1, (v,), layer1) in enumerate(single):
                assert (n, counts[i]) == (n1, v)
                assert same_bands(layer, i, layer1)
            if layer.depth == 6:
                Checkpoint(layer).save(path)
            rows += 1
        return rows

    for complete in (False, True):
        assert compare(extend_counts(initial_layer(*Parity), 60, complete=complete), complete) == 60
        loaded = extend_counts(Checkpoint.load(path).layer, 60, complete=complete)
        assert compare(loaded, complete, skip=6) == 54


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
                assert layer.value(y, a) == (reference_count(depth, y, a, parity),), (
                    depth,
                    y,
                    a,
                )
        # below the floor everything is exactly zero
        for y in range(-depth - 1, 0):
            floor = area_floor(y)
            if floor > 0:
                assert layer.value(y, floor - 1) == (0,)
                assert reference_count(depth, y, floor - 1, parity) == 0


# ---------------------------------------------------------------------------
# the dependence cone


def test_cone_reach_is_the_brute_force_sum():
    # the largest sum climbs while it can and then descends to y
    for k in range(31):
        for y in range(-k, k + 1):
            assert cone_reach(k, y) == sum(min(i, y + k - i) for i in range(1, k + 1)), (k, y)


def reachable_sums(max_k):
    """Bitsets of the sums y_1 + ... + y_k over k-step walks from 0, per (k, y_k)."""
    offset = max_k * (max_k + 1) // 2  # bit offset + s stands for the sum s
    sums = [{0: 1 << offset}]
    for _ in range(max_k):
        prev = sums[-1]
        step = {}
        for y in range(-len(sums), len(sums) + 1):
            ways = prev.get(y - 1, 0) | prev.get(y, 0) | prev.get(y + 1, 0)
            step[y] = ways << y if y >= 0 else ways >> -y
        sums.append(step)
    return sums, offset


def cone_bands(depth, horizon):
    return {y: (lo, cap, hi) for y, lo, cap, hi, _ in engine._band_layout(depth, horizon)}


@pytest.mark.parametrize("horizon", [None, *range(1, 41)])
def test_cone_reads_land_in_stored_rows(horizon):
    # complete layers to depth 40 and cones: every read of the next advance
    # lands in a stored row, in a full band's stored continuation or below
    # the floor, and a continuation holds no row that no read reaches
    for depth in range(1, 41 if horizon is None else horizon + 1):
        parent = {y: (lo, cap, hi, lo + rows - 1)
                  for y, lo, cap, hi, rows in engine._band_layout(depth - 1, horizon)}
        reachable = {y for y, *_ in engine._band_layout(depth - 1)}
        top = {}
        for y, (lo, _, hi) in cone_bands(depth, horizon).items():
            for yp in (y - 1, y, y + 1):
                # the reads a + yp for a in lo..hi; those below the floor are 0
                first, last = max(lo + yp, area_floor(yp)), hi + yp
                if first > last or yp not in reachable:
                    continue
                assert yp in parent, (horizon, depth, y, yp)  # a dropped height
                plo, pcap, phi, held = parent[yp]
                assert plo <= first <= last <= held, (horizon, depth, y, yp)
                # past hi only a full band holds rows: its continuation
                assert last <= phi or plo <= pcap < phi, (horizon, depth, y, yp)
                top[yp] = max(top.get(yp, last), last)
        for yp, (_, _, phi, held) in parent.items():
            assert held == max(phi, top.get(yp, phi)), (horizon, depth, yp)


@pytest.mark.parametrize("horizon", [None, 19])
def test_continuation_rows_repeat_the_representatives(horizon, tmp_path):
    depth, path = 10, tmp_path / "layer.ckpt"
    layer = layer_at(depth, *Parity, horizon=horizon)
    Checkpoint(layer).save(path)
    for held in (layer_at(depth, *Parity, horizon=horizon), Checkpoint.load(path).layer):
        continued = 0
        for y, band in held.bands.items():
            lo, cap, hi = band.lo, band.cap, band.hi
            for a in range(hi + 1, lo + len(band.limbs)):
                rep = cap + (a - cap) % 2
                assert [engine._limbs_to_int(v) for v in band.limbs[a - lo]] == [
                    engine._limbs_to_int(v) for v in band.limbs[rep - lo]], (y, a)
                continued += 1
            if hi == cap + 1:
                for a in (cap + 1000, cap + 1001):
                    assert held.value(y, a) == tuple(
                        reference_count(depth, y, a, parity) for parity in Parity), (y, a)
        assert continued


def test_cone_bounds_are_tight():
    # each kept band runs from the least to the largest sum a backward walk
    # from (H, 0, 0) reaches, cut to the floor and to the representatives
    sums, offset = reachable_sums(40)
    for horizon in range(41):
        for depth in range(horizon + 1):
            k = horizon - depth
            want = {}
            for y, floor, cap, *_ in engine._band_layout(depth):
                bits = sums[k].get(y, 0)
                if bits:
                    top = bits.bit_length() - 1 - offset
                    bottom = (bits & -bits).bit_length() - 1 - offset
                    lo, hi = max(floor, min(bottom, cap)), min(cap + 1, top)
                    if lo <= hi:
                        want[y] = (lo, cap, hi)
            assert cone_bands(depth, horizon) == want, (horizon, depth)
            # a checkpoint's load bounds its geometry by the file size on this
            assert set(range(min(depth, k) + 1)) <= want.keys(), (horizon, depth)


def test_a_far_horizon_lays_out_the_complete_layer():
    # past 2**30 the geometry is computed in Python ints, not int64
    for horizon in (10 + 2**29, 10 + 2**31, 2**62, 2**63 - 1):
        assert engine._band_layout(10, horizon) == engine._band_layout(10)
    assert all(type(v) is int for band in engine._band_layout(10, 2**62) for v in band)


def test_cone_of_a_smaller_horizon_lies_inside():
    for horizon in range(1, 41):
        for depth in range(horizon):  # at depth = horizon the smaller cone is empty
            outer = cone_bands(depth, horizon)
            for y, (lo, cap, hi) in cone_bands(depth, horizon - 1).items():
                olo, ocap, ohi = outer[y]
                assert ocap == cap and olo <= lo and hi <= ohi, (horizon, depth, y)


# ---------------------------------------------------------------------------
# limb carries


def test_carry_ripples_through_limbs():
    arr = np.array([[LIMB_MASK + 1, LIMB_MASK, LIMB_MASK, 0], [5, 0, 0, 0]], dtype=np.int64)
    want = [sum(int(limb) << (LIMB_BITS * i) for i, limb in enumerate(row)) for row in arr]
    out = engine._carry_normalize(arr)
    assert out is arr
    assert arr.tolist() == [[0, 0, 0, 1], [5, 0, 0, 0]]
    assert [engine._limbs_to_int(row) for row in arr] == want


def test_carry_out_of_the_top_limb_raises():
    for row in ([0, 1 << LIMB_BITS], [LIMB_MASK + 1, LIMB_MASK]):  # direct and rippled
        with pytest.raises(OverflowError):
            engine._carry_normalize(np.array([[0, 0], row], dtype=np.int64))


def test_carry_stays_within_each_parity():
    # cells x parities x limbs: the even parity's top limb precedes the odd
    # parity's bottom limb in the word view
    arr = np.zeros((1, 2, 3), dtype=np.int64)
    arr[0, 0] = [LIMB_MASK + 1, LIMB_MASK, 0]
    engine._carry_normalize(arr)
    assert arr.tolist() == [[[0, 0, 1], [0, 0, 0]]]
    for even in ([0, 0, 1 << LIMB_BITS], [LIMB_MASK + 1, LIMB_MASK, LIMB_MASK]):  # direct, rippled
        arr = np.array([[even, [7, 0, 0]]], dtype=np.int64)
        with pytest.raises(OverflowError):
            engine._carry_normalize(arr)
        assert arr[0, 1].tolist() == [7, 0, 0]


def test_carry_refuses_a_non_contiguous_view():
    arr = np.zeros((4, 6), dtype=np.int64)
    arr[:, 0] = LIMB_MASK + 1
    with pytest.raises(AssertionError):
        engine._carry_normalize(arr[:, ::2])
    assert (arr[:, 0] == LIMB_MASK + 1).all()


# a limb just past canonical, and an advance's sum of four of them
LIMB_BOUND = (1 << LIMB_BITS) + 3
ADVANCE_SUM = 4 * LIMB_BOUND
# the most a limb holds two advances past a canonical layer
TWO_ADVANCE_SUM = 16 * LIMB_MASK


def vector_values(arr):
    return [sum(int(limb) << (LIMB_BITS * i) for i, limb in enumerate(vector))
            for vector in arr.reshape(-1, arr.shape[-1])]


def test_carry_once_leaves_limbs_within_the_bound():
    rng = np.random.default_rng(7)
    # cells x parities x limbs, an advance's sums below the top limb
    arr = rng.integers(0, ADVANCE_SUM, size=(60, 2, 4), endpoint=True)
    arr[..., -1] = rng.integers(0, 1 << (LIMB_BITS - 1), size=arr.shape[:-1])
    arr[0, 0, :-1] = ADVANCE_SUM
    # low bits all ones under a carry of 4, then of 3
    arr[1, 1] = [ADVANCE_SUM, (1 << 62) - 1, (1 << 62) - 1, 4]
    want = vector_values(arr)
    assert engine._carry_once(arr) is arr
    assert arr[1, 1].tolist() == [12, LIMB_BOUND, LIMB_BOUND - 1, 7]
    assert 0 <= arr.min() and arr.max() <= LIMB_BOUND
    assert vector_values(arr) == want
    assert [engine._limbs_to_int(vector) for vector in arr.reshape(-1, 4)] == want


def test_carry_once_takes_two_advances_of_uint64_limbs():
    # 16 * LIMB_MASK = 2**64 - 16 fits uint64 only; one pass leaves at most
    # LIMB_MASK + 15: low 60 bits all ones under a carry of 15
    assert TWO_ADVANCE_SUM == 2**64 - 16
    arr = np.full((5, 2, 3), TWO_ADVANCE_SUM, dtype=np.uint64)
    arr[..., -1] = 7  # a top limb with room for the carries
    arr[1, 1, 1] = (14 << LIMB_BITS) + LIMB_MASK  # the largest limb with low bits all ones
    want = vector_values(arr)
    assert engine._carry_once(arr) is arr
    assert arr[0, 0].tolist() == [LIMB_MASK - 15, LIMB_MASK, 7 + 15]
    assert arr[1, 1].tolist() == [LIMB_MASK - 15, LIMB_MASK + 15, 7 + 14]
    assert arr.max() == LIMB_MASK + 15
    assert vector_values(arr) == want
    assert engine._carry_normalize(arr).max() <= LIMB_MASK
    assert vector_values(arr) == want


def test_carry_once_refuses_a_carry_out_of_the_top_limb():
    arr = np.array([[LIMB_MASK, 1 << LIMB_BITS], [3, 0]], dtype=np.int64)
    with pytest.raises(OverflowError):
        engine._carry_once(arr)
    assert arr.tolist() == [[LIMB_MASK, 1 << LIMB_BITS], [3, 0]]  # raised before any change
    # cells x parities x limbs: the even parity's top limb precedes the odd
    # parity's bottom limb in the word view
    arr = np.array([[[ADVANCE_SUM, 0, 1 << LIMB_BITS], [7, 0, 0]]], dtype=np.int64)
    with pytest.raises(OverflowError):
        engine._carry_once(arr)
    assert arr[0, 1].tolist() == [7, 0, 0]


def test_carry_once_refuses_a_non_contiguous_view():
    arr = np.zeros((4, 6), dtype=np.int64)
    arr[:, 0] = ADVANCE_SUM
    with pytest.raises(AssertionError):
        engine._carry_once(arr[:, ::2])
    assert (arr[:, 0] == ADVANCE_SUM).all()


def non_canonical_twins(depth=41):
    """A two-parity layer holding a limb of 2**60 + 3, and its carried twin.

    The cell (0, cap) of the even parity is set by hand to the count
    3 + 6 * 2**60: limbs (3, 6) in the twin, (2**60 + 3, 5) in the layer.
    The depth is odd: an advance to an even depth leaves every limb
    canonical, one to an odd depth makes no carry pass.
    """
    twin = layer_at(depth, *Parity)
    layer = engine.Layer(depth, twin.parities, {
        y: engine.Band(band.lo, band.cap, band.limbs.copy())
        for y, band in twin.bands.items()})
    band = twin.bands[0]
    assert engine._nlimbs(depth) == 2
    # the cap row and the rows of the continuation that repeat it
    band.limbs[band.cap - band.lo :: 2, 0] = [3, 6]
    layer.bands[0].limbs[band.cap - band.lo :: 2, 0] = [LIMB_BOUND, 5]
    return layer, twin


def test_a_non_canonical_limb_reads_and_compares_as_its_carried_twin():
    layer, twin = non_canonical_twins()
    cap = twin.bands[0].cap
    for a in (cap, cap + 2, cap + 40):  # the cap cell and reads above it
        assert layer.value(0, a) == twin.value(0, a)
        assert layer.value(0, a)[0] == 3 + (6 << LIMB_BITS)
    assert not np.array_equal(layer.bands[0].limbs, twin.bands[0].limbs)
    assert layer.bands[0] == twin.bands[0] and layer == twin
    assert layer.bands[0].limbs[cap - layer.bands[0].lo, 0, 0] == LIMB_BOUND  # compared a copy
    assert advance(layer) == advance(twin)


def test_a_non_canonical_limb_saves_as_its_carried_twin(tmp_path):
    layer, twin = non_canonical_twins()
    for name, saved in (("layer", layer), ("twin", twin)):
        Checkpoint(saved).save(tmp_path / f"{name}.ckpt")
    assert (tmp_path / "layer.ckpt").read_bytes() == (tmp_path / "twin.ckpt").read_bytes()
    assert Checkpoint.load(tmp_path / "layer.ckpt").layer == twin
    # the save carried the layer in place, its counts unchanged
    assert np.array_equal(layer.bands[0].limbs, twin.bands[0].limbs)


def recursion_step(value, depth):
    """The stored cells at `depth` by the recursion in Python ints, from `value` at depth - 1."""
    return {(y, a): tuple(up + down + 2 * flat for up, down, flat in zip(
                value(y + 1, a + y + 1), value(y - 1, a + y - 1), value(y, a + y)))
            for y, lo, _, hi, _ in engine._band_layout(depth) for a in range(lo, hi + 1)}


def cell_reader(cells, depth, npar):
    """Layer.value over the cells of a complete layer: zero off them, period two above a cap."""
    caps = {y: cap for y, _, cap, *_ in engine._band_layout(depth)}

    def value(y, a):
        if y in caps and a > caps[y] + 1:
            a = caps[y] + (a - caps[y]) % 2
        return cells.get((y, a), (0,) * npar)

    return value


def test_two_advances_from_all_ones_limbs_match_the_int_recursion(monkeypatch):
    # a canonical layer whose limbs below the top are all LIMB_MASK: one
    # advance sums them to 4 * LIMB_MASK with no carry pass, and the next to
    # 16 * LIMB_MASK = 2**64 - 16 before its carry pass, with no wraparound
    depth = 32
    layer = layer_at(depth, *Parity)
    assert engine._nlimbs(depth) == engine._nlimbs(depth + 2) == 2
    for band in layer.bands.values():
        band.limbs[..., :-1] = LIMB_MASK
    first = recursion_step(layer.value, depth + 1)
    second = recursion_step(cell_reader(first, depth + 1, 2), depth + 2)
    child = advance(layer)
    assert max(band.limbs[..., :-1].max() for band in child.bands.values()) == 4 * LIMB_MASK
    assert {cell: child.value(*cell) for cell in first} == first
    carry_once, carried = engine._carry_once, []

    def recorded(arr):
        carried.append(int(arr.max()))
        return carry_once(arr)

    monkeypatch.setattr(engine, "_carry_once", recorded)
    grandchild = advance(child)
    assert max(carried) == TWO_ADVANCE_SUM
    assert {cell: grandchild.value(*cell) for cell in second} == second
    assert max(band.limbs.max() for band in grandchild.bands.values()) <= LIMB_MASK


def test_a_buffer_one_carry_pass_leaves_above_canonical_is_normalized(monkeypatch):
    # with the advance's own carry pass of each buffer skipped, the buffers
    # keep raw sums above LIMB_MASK: the full normalization must take them
    want = layer_at(42, *Parity)
    carry_once, seen = engine._carry_once, set()

    def first_pass_skipped(arr):
        if id(arr) in seen:
            return carry_once(arr)
        seen.add(id(arr))
        return arr

    layer = layer_at(41, *Parity)
    monkeypatch.setattr(engine, "_carry_once", first_pass_skipped)
    got = advance(layer)
    assert got == want
    assert max(band.limbs.max() for band in got.bands.values()) <= LIMB_MASK


@functools.lru_cache(maxsize=1)
def reference_rows(max_n):
    return [(n, tuple(reference_count(n - 1, 0, 0, parity) for parity in Parity))
            for n in range(1, max_n + 1)]


@pytest.mark.parametrize("complete", [False, True], ids=["cone", "complete"])
def test_advance_writes_every_row_it_keeps(complete, monkeypatch):
    # every child buffer starts as a non-zero byte pattern, not zeros, so the
    # counts stay exact only if each advance writes every row it keeps.  To
    # n = 40, which the reference reaches in about 1.5 s, past the depth
    # (31) where a cell gains its second limb
    empty, poisoned = np.empty, []

    def poisoned_empty(shape, dtype=float, **kwargs):
        buf = empty(shape, dtype, **kwargs)
        buf.view(np.uint8).fill(0xA5)
        poisoned.append(buf.size)
        return buf

    monkeypatch.setattr(np, "empty", poisoned_empty)
    rows = []
    for n, counts, layer in extend_counts(initial_layer(*Parity), 40, complete=complete):
        rows.append((n, counts))
    monkeypatch.undo()
    # a buffer per advance at least, but where a cell gains its second limb
    assert len(poisoned) >= 38 and min(poisoned) > 0
    assert rows == reference_rows(40)
    assert layer == layer_at(39, *Parity, horizon=None if complete else 39)


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_checkpoint_roundtrip(parity, tmp_path):
    layer = layer_at(10, parity)
    path = tmp_path / "layer.ckpt"
    Checkpoint(layer).save(path)
    loaded = Checkpoint.load(path)
    assert loaded.layer == layer
    assert loaded.depth == 10 and loaded.layer.parities == (parity,)
    assert loaded.layer.horizon is None


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_checkpoint_roundtrip_cone_layer(parity, tmp_path):
    layer = layer_at(20, parity, horizon=39)
    # the cone cuts bands below cap + 1 and drops the heights it never reaches
    assert len(layer.bands) < 2 * 20 + 2
    assert any(b.lo + len(b.limbs) < b.cap + 2 for b in layer.bands.values())
    path = tmp_path / "cone.ckpt"
    Checkpoint(layer).save(path)
    loaded = Checkpoint.load(path)
    assert loaded.layer == layer and loaded.layer.horizon == 39


def test_checkpoint_roundtrip_and_extend_two_parities(tmp_path):
    path = tmp_path / "both.ckpt"
    want = [(n, (count_graphic(n), count_graphic(n, Parity.ODD))) for n in range(13, 41)]
    for horizon in (None, 39):  # a complete layer and a cone layer
        both = layer_at(12, *Parity, horizon=horizon)
        Checkpoint(both).save(path)
        loaded = Checkpoint.load(path).layer
        assert loaded == both and loaded.parities == (Parity.EVEN, Parity.ODD)
        assert [(n, counts) for n, counts, _ in extend_counts(loaded, 40)] == want
    # the header's parity byte is the mask of the parities held, bit p for parity p
    for parities, mask in (((Parity.EVEN,), 1), ((Parity.ODD,), 2), (tuple(Parity), 3)):
        Checkpoint(layer_at(2, *parities)).save(path)
        assert path.read_bytes()[12] == mask


def test_checkpoint_refuses_a_parity_mask_naming_no_set(tmp_path):
    _, good = saved_bytes(tmp_path)
    path = tmp_path / "bad.ckpt"
    for mask in (0, 4, 5, 255):
        path.write_bytes(resealed(good[:12] + bytes([mask]) + good[13:-4]))
        with pytest.raises(CheckpointFormatError, match=f"parity mask {mask}"):
            Checkpoint.load(path)


def test_checkpoint_roundtrip_four_limbs(tmp_path):
    layer = layer_at(100)
    assert engine._nlimbs(100) == 4
    path = tmp_path / "deep.ckpt"
    Checkpoint(layer).save(path)
    assert Checkpoint.load(path).layer == layer


def saved_bytes(tmp_path, depth=4, horizon=None, parities=(Parity.EVEN,)):
    path = tmp_path / "layer.ckpt"
    Checkpoint(layer_at(depth, *parities, horizon=horizon)).save(path)
    return path, path.read_bytes()


# a one-parity layer and a two-parity one
PARITY_SETS = [(Parity.EVEN,), tuple(Parity)]


def test_checkpoint_version_mismatch(tmp_path):
    path, good = saved_bytes(tmp_path)
    for version in (1, 2, 3, 77):
        path.write_bytes(good[:8] + version.to_bytes(4, "little") + good[12:])
        with pytest.raises(CheckpointFormatError, match=f"version {version}"):
            Checkpoint.load(path)
    # version-4 to version-6 files are refused by their number, not by their checksum
    for version in (4, 5, 6):
        path.write_bytes(as_version(good, version))
        with pytest.raises(CheckpointFormatError, match=f"version {version}"):
            Checkpoint.load(path)
    path.write_bytes(b"NOTMAGIC" + good[8:])
    with pytest.raises(CheckpointFormatError):
        Checkpoint.load(path)


# mid-band: 8 magic + 37 header + 24 first band record + 20 of its limb bytes
@pytest.mark.parametrize(
    "cut", [20, 8 + 37 + 24 + 20, -4], ids=["header", "mid-band", "before-checksum"]
)
def test_checkpoint_truncation(cut, tmp_path):
    for parities in PARITY_SETS:
        for horizon in (None, 7):  # a complete layer and a cone layer
            path, good = saved_bytes(tmp_path, horizon=horizon, parities=parities)
            path.write_bytes(good[:cut])
            with pytest.raises(CheckpointFormatError):
                Checkpoint.load(path)


def test_checkpoint_single_byte_corruption(tmp_path):
    for parities in PARITY_SETS:
        for horizon in (None, 4):  # a complete layer and a cone layer
            path, good = saved_bytes(tmp_path, depth=2, horizon=horizon, parities=parities)
            for i in range(len(good)):
                path.write_bytes(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1 :])
                with pytest.raises(CheckpointFormatError):
                    Checkpoint.load(path)


def resealed(body):
    """Checkpoint bytes with a fresh checksum, as a consistent writer would leave them."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def as_version(good, version):
    """The checkpoint bytes with the header's version replaced, checksum redone."""
    return resealed(good[:8] + version.to_bytes(4, "little") + good[12:-4])


def with_horizon(good, horizon):
    """The checkpoint bytes with the header's horizon replaced, checksum redone."""
    offset = 8 + 29  # the horizon is the header's last field
    return resealed(
        good[:offset] + horizon.to_bytes(8, "little", signed=True) + good[offset + 8 : -4])


def test_checkpoint_horizon_must_match_the_bands(tmp_path):
    path, good = saved_bytes(tmp_path, depth=10, horizon=19)
    path.write_bytes(with_horizon(good, 19))
    assert Checkpoint.load(path).layer.horizon == 19  # the rewrite itself is sound
    # complete, a wider cone, a narrower one and one behind the depth
    for horizon in (-1, 20, 18, 9, -2, 2**40, 2**63 - 1):
        path.write_bytes(with_horizon(good, horizon))
        with pytest.raises(CheckpointFormatError, match="geometry"):
            Checkpoint.load(path)
    path, good = saved_bytes(tmp_path, depth=10)
    path.write_bytes(with_horizon(good, 19))
    with pytest.raises(CheckpointFormatError, match="geometry"):
        Checkpoint.load(path)


def test_checkpoint_band_count_must_match_the_geometry(tmp_path):
    count_at = 8 + 4 + 1 + 8  # magic, version, parity mask, depth
    for parities in PARITY_SETS:
        layer = layer_at(10, *parities, horizon=19)
        path, good = saved_bytes(tmp_path, depth=10, horizon=19, parities=parities)
        last_band = engine._CKPT_BAND.size + layer.bands[max(layer.bands)].stored().nbytes
        nbands = len(layer.bands)
        # one band short, its record gone too; one band more than stored
        for count, body in ((nbands - 1, good[: -4 - last_band]), (nbands + 1, good[:-4])):
            header = good[:count_at] + count.to_bytes(8, "little")
            path.write_bytes(resealed(header + body[count_at + 8 :]))
            with pytest.raises(CheckpointFormatError, match="band count"):
                Checkpoint.load(path)


def huge_band_header(depth=10**8, horizon=10**8 + 10**5):
    """69 bytes: a version-7 header at `depth` and the first band record it implies.

    At depth 10^8 that band alone would take 828 GiB, so it must be refused
    before it is allocated.
    """
    header = engine._CKPT_HEADER.pack(
        engine.CHECKPOINT_VERSION, 1, depth, 1, engine._nlimbs(depth), horizon)
    y, lo, cap, *_ = engine._band_layout(depth, horizon)[0]
    return engine.CHECKPOINT_MAGIC + header + engine._CKPT_BAND.pack(y, lo, cap)


def test_checkpoint_band_larger_than_the_file_is_refused_unallocated(tmp_path):
    path = tmp_path / "crafted.ckpt"
    # the second header's geometry is past int64 and laid out in Python ints
    for header in (huge_band_header(), huge_band_header(2**32, 2**32 + 1)):
        path.write_bytes(header)
        assert path.stat().st_size == 69
        with pytest.raises(CheckpointFormatError, match="truncated"):
            Checkpoint.load(path)


def test_checkpoint_refuses_a_limb_that_is_not_canonical(tmp_path):
    path, good = saved_bytes(tmp_path)
    # the first band's first limb follows the magic, the header and (y, lo, cap)
    offset = len(engine.CHECKPOINT_MAGIC) + engine._CKPT_HEADER.size + engine._CKPT_BAND.size
    for limb in (1 << LIMB_BITS, -1):
        path.write_bytes(resealed(
            good[:offset] + limb.to_bytes(8, "little", signed=True) + good[offset + 8 : -4]))
        with pytest.raises(CheckpointFormatError, match="not canonical"):
            Checkpoint.load(path)


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    path, _ = saved_bytes(tmp_path)

    def fail(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        Checkpoint(layer_at(6)).save(path)
    assert Checkpoint.load(path).layer == layer_at(4)
    assert [p.name for p in tmp_path.iterdir()] == ["layer.ckpt"]


def test_checkpoint_magic_bytes(tmp_path):
    path = tmp_path / "layer.ckpt"
    Checkpoint(layer_at(2)).save(path)
    assert path.read_bytes()[:8] == b"GSEQCKPT"


# ---------------------------------------------------------------------------
# on-demand extension


def test_extend_from_depth10_matches_full():
    assert count_rows(layer_at(10), 13)[-1] == (13, count_graphic(13))


def test_extend_from_initial_layers():
    assert count_rows(initial_layer(Parity.EVEN), 3)[-1] == (3, 4)
    assert count_rows(initial_layer(Parity.ODD), 3)[-1] == (3, 1)


def test_extend_counts_stream():
    rows = count_rows(layer_at(6), 12)
    assert rows[0] == (7, count_graphic(7))  # the start layer's own row
    assert rows[1:] == [(n, count_graphic(n)) for n in range(8, 13)]


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_extend_counts_equals_stream_counts(parity, tmp_path):
    # cone rows against complete-layer rows
    complete = count_rows(initial_layer(parity), 60, complete=True)
    assert [n for n, _ in complete] == list(range(1, 61))
    assert count_rows(initial_layer(parity), 60) == complete
    path = tmp_path / "depth6.ckpt"
    Checkpoint(layer_at(6, parity)).save(path)
    assert count_rows(Checkpoint.load(path).layer, 60) == complete[6:]
    # a saved cone layer extends to its own horizon and to any smaller one
    Checkpoint(layer_at(21, parity, horizon=59)).save(path)
    loaded = Checkpoint.load(path).layer
    assert loaded.horizon == 59
    assert count_rows(loaded, 60) == complete[21:]
    # the extension consumed `loaded`; the checkpoint is read again
    assert count_rows(Checkpoint.load(path).layer, 45) == complete[21:45]


def test_extend_counts_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    rows = count_rows(layer_at(3), 200)
    assert sys.getrecursionlimit() == limit
    assert [n for n, _ in rows[1:]] == list(range(5, 201))


def test_extend_rejects_backward_target():
    with pytest.raises(ValueError):
        list(extend_counts(layer_at(5), 5))  # the layer's own n is 6


def test_cone_layer_serves_no_target_beyond_its_horizon():
    # each extension consumes the cone it starts from, so each gets a new one
    assert [n for n, _ in count_rows(layer_at(5, horizon=9), 10)] == list(range(6, 11))
    with pytest.raises(ValueError, match="horizon 9"):
        list(extend_counts(layer_at(5, horizon=9), 11))
    with pytest.raises(ValueError, match="horizon 9"):
        list(extend_counts(layer_at(5, horizon=9), 8, complete=True))
    with pytest.raises(ValueError):
        advance(layer_at(5), 5)  # a horizon behind the new depth


def test_extend_memory_budget():
    start = initial_layer(Parity.EVEN)
    with pytest.raises(MemoryBudgetExceeded) as info:
        list(extend_counts(start, 61, memory_limit=1000))
    # the exception carries the last cone layer reached
    layer = info.value.layer
    assert layer.horizon == 60 and 0 < layer.depth < 60
    assert layer.value(0, 0) == (count_graphic(layer.depth + 1),)
    assert info.value.needed > info.value.budget == 1000


def test_extend_budget_is_the_peak_of_the_consuming_advance(monkeypatch):
    # each advance frees a parent buffer once its highest band is below y - 1,
    # y the lowest height of the next child buffer, and the start layer (a
    # checkpoint's) is consumed like any parent: when the child buffer from y
    # up is allocated the process holds the parent buffers with a band at
    # height y - 1 or up and the child buffers from y down.  Buffers of 1 KiB
    # cut these small layers into several each
    monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 10)
    max_n = 30
    parent, peak, peak_depth, whole = layer_at(12), 0, None, 0
    for _ in range(13, max_n):
        child = advance(copy.deepcopy(parent), max_n - 1)  # the copy is consumed
        for y, _, _ in engine._buffers(child):
            held = sum(nbytes for _, high, nbytes in engine._buffers(parent) if high >= y - 1)
            held += sum(nbytes for low, _, nbytes in engine._buffers(child) if low <= y)
            if held > peak:
                peak, peak_depth = held, parent.depth
        whole = max(whole, parent.nbytes + child.nbytes)
        parent = child
    assert peak < whole  # below holding the parent and the child whole
    rows = count_rows(layer_at(12), max_n)
    assert count_rows(layer_at(12), max_n, memory_limit=peak) == rows
    with pytest.raises(MemoryBudgetExceeded) as info:
        list(extend_counts(layer_at(12), max_n, memory_limit=peak - 1))
    assert info.value.layer.depth == peak_depth
    assert info.value.needed == peak


def test_a_consumed_layer_fails_on_any_use(tmp_path):
    parent = layer_at(5, *Parity)
    child = advance(parent)
    assert child == layer_at(6, *Parity)  # consuming changes no count
    uses = (lambda: parent.value(0, 0), lambda: parent.nbytes, parent.heights,
            lambda: parent == copy.copy(parent),
            lambda: Checkpoint(parent).save(tmp_path / "consumed.ckpt"),
            lambda: advance(parent), lambda: list(extend_counts(parent, 9)))
    for use in uses:
        with pytest.raises((AttributeError, TypeError)):
            use()
    assert not any(tmp_path.iterdir())
    # a row's layer stays valid until the next row is asked for, the start included
    previous = None
    for n, (count,), layer in extend_counts(layer_at(3), 9):
        assert layer.value(0, 0) == (count,) == (count_graphic(n),)
        if previous is not None:
            with pytest.raises(AttributeError):
                previous.value(0, 0)
        previous = layer


# ---------------------------------------------------------------------------
# memory budget on the layered path


@pytest.mark.parametrize("parities", [(Parity.EVEN,), (Parity.EVEN, Parity.ODD)])
@pytest.mark.parametrize("horizon", [None, 40])
def test_layer_estimate_is_the_advanced_layer_size(parities, horizon):
    layer = initial_layer(*parities)
    for depth in range(1, 41):
        layer = advance(layer, horizon)
        sizes = [nbytes for _, nbytes in engine._chunks(depth, horizon, len(parities))]
        assert sizes == [nbytes for *_, nbytes in engine._buffers(layer)]
        assert sum(sizes) == layer.nbytes


def test_stream_counts_memory_budget():
    for complete, horizon in ((False, 59), (True, None)):
        with pytest.raises(MemoryBudgetExceeded) as info:
            counts(60, memory_limit=4000, complete=complete)
        exc = info.value
        assert exc.layer.depth < 60
        assert exc.needed > 4000
        # the carried layer is a cone of the run's horizon, or complete, and usable
        assert exc.layer.horizon == horizon
        assert exc.layer.value(0, 0) == (count_graphic(exc.layer.depth + 1),)


def test_stream_counts_values_against_oracle_prefix():
    got = count_rows(initial_layer(Parity.EVEN), 8)
    want = [(n, oracle.brute_counts(n)[0]) for n in range(1, 9)]
    assert got == want
