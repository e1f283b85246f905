"""Layered big-integer recursion counting graphic degree sequences.

A non-increasing sequence n-1 >= d_1 >= ... >= d_n >= 0 corresponds to a walk
with steps in {-1, 0, +1} whose running integral certifies graphicality (the
mapping lives in :mod:`graphseq.oracle`).  Counting sequences therefore
reduces to counting weighted walks: ``F(N, y, a)`` is the weighted number of
N-step walks that start at height y, end in {0, -1}, keep ``a`` plus the
running integral non-negative at every step, and land that final total on the
starting parity.
A walk is weighted ``2**z`` where z is its number of flat steps, since a flat
step stands for two distinct sequence fillings.  The counts satisfy

    F(N, y, a) = F(N-1, y+1, a+y+1) + F(N-1, y-1, a+y-1) + 2*F(N-1, y, a+y)

with F = 0 for a < 0, and F(0, y, a) = 1 exactly when y is 0 or -1, a >= 0
and a has the starting parity.  The number of graphic sequences of length n
is then F(n-1, 0, 0) from the even start; the odd start counts the sequences
that dominate but have odd sum.

Layers are stored per height as dense bands over the feasible area range.
Counts are little-endian 60-bit limbs in uint64 numpy arrays, so a whole band
advances with a few vectorized adds regardless of how large the counts grow.
A count at depth d >= 1 is below the total walk weight 4**d, so a cell holds
ceil(2d / 60) limbs (one at depth 0).  An advance builds consecutive bands
into one buffer of about CHUNK_BYTES, each band a contiguous view of it.

Every layer at an even depth is canonical, each limb at most LIMB_MASK =
2**60 - 1, and so is every layer the engine starts from: the depth-0 layer
and a loaded checkpoint.  A child limb sums four parent limbs (up + down +
2 flat), so the layer one advance past a canonical one holds limbs of at
most 4 * LIMB_MASK, and the next at most 16 * LIMB_MASK = 2**64 - 16, which
uint64 holds and int64 does not.  So an advance to an odd depth makes no
carry pass, and one to an even depth makes one per buffer (`_carry_once`),
which leaves each limb at most LIMB_MASK + 15, and normalizes fully only the
rare buffer with a limb still above LIMB_MASK.  A read adds the limbs into
an exact int, and a checkpoint stores them canonical.
The starting parity enters only through the depth-0 layer, so a layer holds
one limb vector per cell and parity, and one advance moves every parity it
holds.  Above the stabilization cap the counts are periodic in the area with
period two: a band stores its areas up to cap + 1, and a full band also the
period-two continuation past it, as far as the next advance reads, so every
read of a parent band is one slice of its rows.  A checkpoint stores the
layer's limb blocks raw up to cap + 1, every parity it holds, so saving and
loading a layer is a copy, not a conversion.

One generator, ``extend_counts``, serves every caller that reads counts: it
advances a start layer (depth 0 or a checkpoint) over the dependence cone of
its last target, the only cells that target reads, or over complete layers
when a checkpoint is to be extended further later.  A layer records the
horizon of its cone, and so does its checkpoint.  Child band y reads parent
bands y - 1, y and y + 1 only, so an advance frees each parent buffer once no
later child band reads any band in it: a row's layer stays valid until the
next row is asked for, the start layer included.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterator

import numpy as np

LIMB_BITS = 60
LIMB_MASK = (1 << LIMB_BITS) - 1
# bytes of the buffer an advance builds consecutive bands into; a larger band
# gets a buffer of its own.  Advancing G and H to n = 150 in-process took
# 0.12-0.13 s with 128 KiB; 64 and 256 KiB came within 3% of it and 512 KiB
# up to 28% slower, alternating in one process (2 vCPUs, Intel Xeon).  With
# zeroed int64 buffers and a carry pass each, 1 MiB had taken 0.16 s and a
# buffer per band 0.18 s
CHUNK_BYTES = 128 << 10

CHECKPOINT_MAGIC = b"GSEQCKPT"
# versions 1 and 2 stored decimal digits (2 as area differences), version 3
# had no horizon, version 4 stored a cone's bands over a box of areas,
# version 5 one spare limb per cell and version 6 one parity only; all six
# are refused
CHECKPOINT_VERSION = 7
# after the magic: version, parity mask (bit p for parity p), depth, band
# count, limbs per cell, horizon (-1 for a complete layer)
_CKPT_HEADER = struct.Struct("<IBQQQq")
_CKPT_BAND = struct.Struct("<qqq")  # y, lo, cap; a limb block follows
_CKPT_CRC = struct.Struct("<I")


class Parity(IntEnum):
    """Starting parity of the area; EVEN yields G(n), ODD yields H(n)."""

    EVEN = 0
    ODD = 1


class MemoryBudgetExceeded(Exception):
    """Raised when the next layer would not fit in the configured budget.

    Carries the last layer reached, complete or a cone, so the caller can
    checkpoint it.
    """

    def __init__(self, depth: int, layer: "Layer", needed: int, budget: int):
        super().__init__(
            f"advancing to depth {depth} needs ~{needed} bytes, budget is {budget}"
        )
        self.depth = depth
        self.layer = layer
        self.needed = needed
        self.budget = budget


class CheckpointFormatError(Exception):
    """A checkpoint file that is not a complete, intact current-version layer."""


def decrease_cap(n_steps: int, y):
    """Largest possible decrease of the area over n_steps steps from height y.

    Only walks that end in {0, -1} are considered.  For areas at or above
    max(0, decrease_cap) the survival constraint can never bind, so the count
    depends on the area only through its parity.  y may be an array of
    heights, which gives an array of caps.
    """
    if not np.all((-n_steps - 1 <= y) & (y <= n_steps)):
        raise ValueError(f"height {y} unreachable in {n_steps} steps")
    v = n_steps * n_steps - 2 * n_steps * y + 2 * n_steps - y * y + ((n_steps - y) & 1)
    assert np.all(v % 4 == 0)
    return v // 4


def area_floor(y):
    """Smallest start area that admits any surviving walk from height y.

    A walk from y < 0 ending in {0, -1} must visit y+1, ..., -1 at least once
    each, which costs (|y|-1)|y|/2 = y(y+1)/2 of area; below that everything
    is exactly zero.  y may be an array of heights, which gives an array of
    floors.
    """
    return y * (y + 1) // 2 * (y < 0)


def _nlimbs(depth: int) -> int:
    # a count is below the total walk weight 4**depth = 2**(2*depth) for depth >= 1
    return max(1, (2 * depth + LIMB_BITS - 1) // LIMB_BITS)


def _limbs_to_int(limbs: np.ndarray) -> int:
    # added, not OR-ed: a limb may exceed 60 bits at an odd depth
    value = 0
    for i in range(len(limbs) - 1, -1, -1):
        value = (value << LIMB_BITS) + int(limbs[i])
    return value


class Band:
    """Counts for one height: a dense area band [lo, hi] of limb vectors per parity.

    hi is cap + 1 in a complete layer; a cone layer may cut it lower and
    lo higher (`_band_geometry`).  A full band, hi = cap + 1, holds more
    rows: the period-two continuation of its representatives at cap and
    cap + 1, as far as the next advance reads (`_band_layout`).  limbs is
    usually a view into a buffer that consecutive bands share.  At an odd
    depth a limb may hold up to 4 * LIMB_MASK (no carry pass, see the module
    docstring), so two bands are equal when their normalized rows lo..hi
    are, not their raw limbs.
    """

    __slots__ = ("lo", "cap", "limbs")

    def __init__(self, lo: int, cap: int, limbs: np.ndarray):
        self.lo = lo
        self.cap = cap
        self.limbs = limbs  # shape (rows, parities, nlimbs), uint64

    @property
    def hi(self) -> int:
        """Last stored area; the rows past it continue the representatives."""
        return min(self.lo + len(self.limbs), self.cap + 2) - 1

    def stored(self) -> np.ndarray:
        """The rows lo..hi, a view."""
        return self.limbs[: self.hi + 1 - self.lo]

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Band) and self.lo == other.lo and self.cap == other.cap):
            return False
        mine, theirs = self.stored(), other.stored()
        return mine.shape == theirs.shape and bool(np.array_equal(
            _carry_normalize(mine.copy()), _carry_normalize(theirs.copy())))


@dataclass(eq=False)
class Layer:
    """All counts at one recursion depth, one band per height.

    parities lists the starting parities the bands hold, in increasing order,
    one per entry of their parity axis.  horizon is None for a complete
    layer.  A cone layer holds only the cells that F(horizon, 0, 0) reads, and
    reads outside its cut bands give 0, so it serves no target beyond its
    horizon.
    """

    depth: int
    parities: tuple
    bands: dict
    horizon: int | None = None

    def __eq__(self, other) -> bool:
        # spelled out so that comparing a consumed layer (bands None) raises
        return (isinstance(other, Layer) and self.depth == other.depth
                and self.parities == other.parities and self.horizon == other.horizon
                and self.bands.items() == other.bands.items())

    def heights(self) -> list:
        return sorted(self.bands)

    def value(self, y: int, a: int) -> tuple:
        """F(depth, y, a) per parity, zero off the bands and period two above a cap."""
        band = self.bands.get(y)
        if band is not None:
            if a > band.hi == band.cap + 1:  # fold onto the representative
                a = band.cap + (a - band.cap) % 2
            if band.lo <= a <= band.hi:
                return tuple(_limbs_to_int(limbs) for limbs in band.limbs[a - band.lo])
        return (0,) * len(self.parities)

    @property
    def cells(self) -> int:
        """Stored cells per parity: the areas lo..hi of each band, no continuation."""
        return sum(band.hi + 1 - band.lo for band in self.bands.values())

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers the bands hold, each whole while any band is in it."""
        return sum(nbytes for *_, nbytes in _buffers(self))


def _buffers(layer: Layer) -> list:
    """(lowest height, highest height, bytes) of each buffer the layer's bands are in."""
    spans = {}
    for y in sorted(layer.bands):
        limbs = layer.bands[y].limbs
        buf = limbs if limbs.base is None else limbs.base
        spans.setdefault(id(buf), [y, y, buf.nbytes])[1] = y
    return sorted(map(tuple, spans.values()))


def cone_reach(k: int, y: int) -> int:
    """Largest sum of heights y_1 + ... + y_k over k-step walks from 0 to y_k = y.

    The walk climbs while it can, to m = (y + k) // 2, and then descends one
    unit per step to y.  Reading F(H, 0, 0) back k = H - depth steps reaches
    (depth, y, a) only for -cone_reach(k, -y) <= a <= cone_reach(k, y).
    y may be an array of heights, which gives an array of sums.
    """
    m = (y + k) // 2
    return (m * (m + 1) + (k - m) * (2 * y + k - m - 1)) // 2


@functools.lru_cache(maxsize=4)
def _geometry(depth: int, horizon: int | None) -> tuple:
    """Arrays y, lo, cap and hi of the bands at `depth`, in increasing height.

    A band stores the areas lo..hi.  With no horizon the layer is complete:
    every reachable height, hi = cap + 1.  With a horizon H only the cells
    that F(H, 0, 0) reads are kept, those within ``cone_reach`` of the
    origin, and a band empty on that range is dropped.  Clamping lo to at
    most cap keeps a full band's two period-two representatives, which reads
    above cap + 1 repeat.  A read from a stored cell lands in a stored row,
    above a full band or below the floor: one more step extends the path.
    The cone of H holds the cone of every H' < H, since a path may start
    with flat steps at 0, and it keeps a band at every height 0..min(depth,
    H - depth).  Cached: an advance reads the geometry of its depth and of
    the next.
    """
    ylo, yhi, k = -depth - 1, depth, depth
    if horizon is not None:
        k = horizon - depth
        ylo, yhi = max(ylo, -k), min(yhi, k)
    # int64 holds every term while depth and k are below 2**30; a crafted
    # checkpoint header may name more, which Python ints hold
    y = np.arange(ylo, yhi + 1, dtype=np.int64 if max(depth, k) < 1 << 30 else object)
    lo = area_floor(y)
    cap = np.maximum(decrease_cap(depth, y), 0)
    hi = cap + 1
    if horizon is not None:
        lo = np.maximum(lo, np.minimum(-cone_reach(k, -y), cap))
        hi = np.minimum(hi, cone_reach(k, y))
    keep = lo <= hi
    return y[keep], lo[keep], cap[keep], hi[keep]


def _band_geometry(depth: int, horizon: int | None = None) -> tuple:
    """(y, lo, cap, hi) of each band at `depth`, in increasing height (`_geometry`)."""
    return tuple(zip(*(column.tolist() for column in _geometry(depth, horizon))))


def _band_layout(depth: int, horizon: int | None = None) -> list:
    """(y, lo, cap, hi, rows) of each band at `depth`: its geometry and rows held.

    A full band, hi = cap + 1, holds its period-two continuation past hi up
    to the largest area the next advance with the same horizon reads of it:
    child band y' reads parent band y' + dy at areas up to hi' + y' + dy.
    An advance to a smaller horizon, or from a complete layer to a cone,
    reads less.
    """
    y, lo, cap, hi = _geometry(depth, horizon)
    cy, _, _, chi = _geometry(depth + 1, horizon)
    # the child hi at heights y[0] - 1 .. y[-1] + 1; where no child band is,
    # one that leaves y + reach below every hi
    reach = np.full(y[-1] - y[0] + 3, -y[-1] - 1, dtype=y.dtype)
    at = (cy - (y[0] - 1)).astype(np.intp, copy=False)
    inside = (at >= 0) & (at < len(reach))
    reach[at[inside]] = chi[inside]
    reach = np.maximum(np.maximum(reach[:-2], reach[1:-1]), reach[2:])
    last = y + reach[(y - y[0]).astype(np.intp, copy=False)]
    last = np.where(hi == cap + 1, np.maximum(hi, last), hi)
    return list(zip(*(column.tolist() for column in (y, lo, cap, hi, last + 1 - lo))))


def _chunks(depth: int, horizon: int | None, npar: int) -> Iterator[tuple]:
    """(bands, bytes) of each buffer of the layer at `depth`, in increasing height.

    bands lists `_band_layout` tuples of consecutive heights, as many as fit
    in CHUNK_BYTES; a band larger than that has a buffer of its own.
    """
    bands = _band_layout(depth, horizon)
    row = npar * _nlimbs(depth) * 8
    ends = list(itertools.accumulate(band[-1] * row for band in bands))
    start, base = 0, 0
    while start < len(bands):
        stop = max(start + 1, bisect.bisect_right(ends, base + CHUNK_BYTES, start))
        yield bands[start:stop], ends[stop - 1] - base
        start, base = stop, ends[stop - 1]


def _continue(limbs: np.ndarray, lo: int, cap: int, hi: int) -> None:
    """Fill the rows of a full band past hi from its representatives at cap and cap + 1."""
    if len(limbs) > hi + 1 - lo:
        limbs[hi + 1 - lo :: 2] = limbs[cap - lo]
        limbs[hi + 2 - lo :: 2] = limbs[cap + 1 - lo]


def initial_layer(*parities: Parity) -> Layer:
    """Depth-0 layer: F(0, y, a) = 1 iff y in {0,-1}, a >= 0, a of the parity.

    The layer holds each listed parity once, in increasing order.
    """
    if not parities:
        raise ValueError("an initial layer needs at least one parity")
    parities = tuple(sorted(set(map(Parity, parities))))
    bands = {}
    for y, lo, cap, _, rows in _band_layout(0):
        limbs = np.zeros((rows, len(parities), _nlimbs(0)), dtype=np.uint64)
        for i, parity in enumerate(parities):
            limbs[(parity - lo) % 2 :: 2, i, 0] = 1  # areas of the starting parity
        bands[y] = Band(lo, cap, limbs)
    return Layer(0, parities, bands)


def _carry_normalize(arr: np.ndarray) -> np.ndarray:
    """Bring every limb of a C-contiguous (..., limbs) array below 2**LIMB_BITS, in place.

    It repeats `_carry_once` until no limb carries.  Each pass runs on the
    row-major word view, where one limb vector's top limb (a cell's, or a
    cell's parity's) is followed by the next vector's bottom one; no carry
    crosses that seam, since a carry out of a top limb raises OverflowError
    first.
    """
    assert arr.flags.c_contiguous, "a non-contiguous view would be normalized in a copy"
    while (arr > LIMB_MASK).any():
        _carry_once(arr)
    return arr


def _carry_once(arr: np.ndarray) -> np.ndarray:
    """One carry pass over a C-contiguous (..., limbs) array, in place.

    Limbs of at most 16 * LIMB_MASK = 2**64 - 16, the sums two advances
    build from canonical limbs, come out at most LIMB_MASK + 15: the low 60
    bits plus a carry of at most 15.  A top limb stays below 2**LIMB_BITS,
    since a count at depth d is below 4**d <= 2**(LIMB_BITS * limbs), so no
    carry crosses into the next limb vector; one that would raises
    OverflowError before any limb changes.
    """
    assert arr.flags.c_contiguous, "a non-contiguous view would be carried in a copy"
    words = arr.reshape(-1)
    carry = words >> LIMB_BITS
    if np.count_nonzero(carry[arr.shape[-1] - 1 :: arr.shape[-1]]):
        raise OverflowError("carry out of the top limb")
    words &= LIMB_MASK
    words[1:] += carry[:-1]
    return arr


def advance(layer: Layer, horizon: int | None = None) -> Layer:
    """Produce the layer one depth further, consuming the parent.

    With a horizon the new layer holds only the cone of (horizon, 0, 0).  The
    cone of a horizon holds the cone of every smaller one, so a cone parent
    advances to any horizon up to its own, never to a larger one or to a
    complete layer.

    Child bands are built in increasing height, a buffer of them at a time
    (`_chunks`), and child band y reads parent bands y - 1, y and y + 1 only,
    so the parent's bands below y - 1 are deleted before the buffer that
    starts at y is allocated; a parent buffer is freed with its last band.
    The parent is left with no bands from the start: any later read, save or
    size of it raises, even if the advance stops part way.  A horizon it
    cannot reach raises before anything is freed.

    Child row a of band y reads parent band y + dy at area a + y + dy:
    nothing below the parent band's lo (boundary / floor pruning), and every
    other read lands in its rows (`_band_layout`), so each read is one slice
    op.  Buffers start unzeroed: the flat read writes its rows as src + src
    (cheaper than a shift by a Python int), only the rows it leaves are
    zeroed, and the other two reads add.  Where the limb count grows the
    parent fills only the low limbs, so that buffer starts zeroed.  An
    advance to an even depth ends each buffer with a carry pass.
    """
    depth = layer.depth + 1
    if (horizon is not None and horizon < depth) or (
            layer.horizon is not None and (horizon is None or horizon > layer.horizon)):
        raise ValueError(f"a layer of horizon {layer.horizon} at depth {layer.depth} "
                         f"cannot advance to horizon {horizon}")
    parent, layer.bands = layer.bands, None
    npar, nl, pnl = len(layer.parities), _nlimbs(depth), _nlimbs(layer.depth)
    bands = {}
    unread = sorted(parent)  # parent heights to delete, increasing
    i = 0
    for chunk, nbytes in _chunks(depth, horizon, npar):
        band = src = None  # keeps no parent band alive past its deletion
        while i < len(unread) and unread[i] < chunk[0][0] - 1:  # read by no band from here
            del parent[unread[i]]
            i += 1
        buf = (np.zeros if pnl < nl else np.empty)(
            (nbytes // (8 * npar * nl), npar, nl), dtype=np.uint64)
        low = buf if pnl == nl else buf[..., :pnl]  # the limbs the parent fills
        row = 0
        for y, lo, cap, hi, rows in chunk:
            out = buf[row : row + rows]
            body = out if low is buf else low[row : row + rows]
            row += rows
            n = hi + 1 - lo
            for dy in (0, 1, -1):  # the flat read first: it writes, the others add
                band, skip = parent.get(y + dy), n
                if band is not None:
                    start = lo + y + dy
                    # the rows below the parent band's floor read nothing
                    skip = min(band.lo - start, n) if band.lo > start else 0
                    if skip < n:
                        src = band.limbs[start + skip - band.lo : start + n - band.lo]
                        if dy:
                            body[skip:n] += src
                        else:
                            np.add(src, src, out=body[skip:n])
                if skip and not dy:
                    body[:skip] = 0
            if rows > n:
                _continue(out, lo, cap, hi)
            bands[y] = Band(lo, cap, out)
        if depth % 2 == 0:
            _carry_once(buf)
            if buf.max() > LIMB_MASK:
                _carry_normalize(buf)
    return Layer(depth, layer.parities, bands, horizon)


def _advance_peak_bytes(layer: Layer, horizon: int | None) -> int:
    """Most bytes a consuming advance of `layer` holds at once.

    Each child buffer is allocated whole, once the parent's bands below its
    lowest height y - 1 are deleted; a parent buffer is freed with its
    highest band.  So the peak is at an allocation: the parent buffers still
    holding a band at height y - 1 or up, plus the child buffers so far.
    """
    parent = _buffers(layer)  # disjoint height ranges, increasing
    held, peak, i = layer.nbytes, 0, 0
    for chunk, nbytes in _chunks(layer.depth + 1, horizon, len(layer.parities)):
        while i < len(parent) and parent[i][1] < chunk[0][0] - 1:
            held -= parent[i][2]
            i += 1
        held += nbytes
        peak = max(peak, held)
    return peak


def extend_counts(
    layer: Layer,
    max_n: int,
    memory_limit: int | None = None,
    complete: bool = False,
) -> Iterator[tuple]:
    """Yield (n, counts, layer) for n = depth + 1 of `layer` up to max_n.

    counts holds one count per parity of the layer, in increasing parity:
    G(n) for the even parity and H(n) for the odd one.  The first row is the
    start layer's own.  The layers advance over the dependence cone of
    (max_n - 1, 0, 0), which holds the origin cell of every depth on the way,
    so one pass yields every row.  With ``complete`` they are complete
    layers, which a checkpoint extended past max_n later needs.

    Each advance consumes its parent, so a row's layer stays valid until the
    next row is asked for; this includes the start layer.  Before each
    advance its peak, the parent bands still read plus the child bands built
    so far, is checked against ``memory_limit`` bytes; past it,
    MemoryBudgetExceeded carries the parent, intact.
    """
    if max_n < layer.depth + 1:
        raise ValueError(f"max_n must be at least the start layer's n = {layer.depth + 1}")
    horizon = None if complete else max_n - 1
    yield layer.depth + 1, layer.value(0, 0), layer
    for depth in range(layer.depth + 1, max_n):
        if memory_limit is not None:
            needed = _advance_peak_bytes(layer, horizon)
            if needed > memory_limit:
                raise MemoryBudgetExceeded(depth, layer, needed, memory_limit)
        layer = advance(layer, horizon)
        yield depth + 1, layer.value(0, 0), layer


def count_graphic(n: int, parity: Parity = Parity.EVEN) -> int:
    """G(n) for Parity.EVEN, H(n) for Parity.ODD (exact)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for _, (value,), _ in extend_counts(initial_layer(parity), n):
        pass
    return value


# ---------------------------------------------------------------------------
# checkpoints


@contextlib.contextmanager
def atomic_open(path):
    """A binary file that replaces `path` only once the block completes.

    It is a temp file in the same directory, fsynced and renamed over `path`,
    so an interrupted write leaves the previous file intact.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    # mkstemp makes the file private; give it the mode open() would give it.
    # Reading the umask sets it, so a strict one stands in for that moment
    umask = os.umask(0o077)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _crc_write(fh, data, crc: int) -> int:
    fh.write(data)
    return zlib.crc32(data, crc)


def _crc_read(fh, size: int, crc: int) -> tuple:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointFormatError("checkpoint is truncated")
    return data, zlib.crc32(data, crc)


@dataclass
class Checkpoint:
    """A serializable snapshot of one layer, complete or a cone, every parity it holds.

    File layout, all little-endian: the magic bytes; the header (version u32,
    now 7, parity mask u8 with bit p set for each parity p, depth u64, band
    count u64, limbs per cell u64, horizon i64, -1 for a complete layer); per
    band in increasing height, (y, lo, cap) as i64 and the band's u64 limb
    block of (hi + 1 - lo) x parities x limbs, as in memory but without a
    full band's continuation, where limbs is ceil(2 depth / 60) (one at depth
    0) and hi follows from the depth and the horizon (`_band_geometry`);
    last, the zlib crc32 of everything before it.
    """

    layer: Layer

    @property
    def depth(self) -> int:
        return self.layer.depth

    def save(self, path) -> None:
        """Write atomically (`atomic_open`), with canonical limbs.

        Each band is normalized in place before its block is written as raw
        little-endian words, which leaves the layer's counts as they were.
        """
        layer = self.layer
        with atomic_open(path) as fh:
            crc = _crc_write(fh, CHECKPOINT_MAGIC, 0)
            horizon = -1 if layer.horizon is None else layer.horizon
            mask = sum(1 << parity for parity in layer.parities)
            crc = _crc_write(fh, _CKPT_HEADER.pack(
                CHECKPOINT_VERSION, mask, self.depth, len(layer.bands),
                _nlimbs(self.depth), horizon), crc)
            for y in layer.heights():
                band = layer.bands[y]
                crc = _crc_write(fh, _CKPT_BAND.pack(y, band.lo, band.cap), crc)
                _carry_normalize(band.limbs)
                crc = _crc_write(fh, np.ascontiguousarray(band.stored(), dtype="<u8"), crc)
            fh.write(_CKPT_CRC.pack(crc))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read and validate a checkpoint; CheckpointFormatError if it is not intact."""
        with open(path, "rb") as fh:
            magic, crc = _crc_read(fh, len(CHECKPOINT_MAGIC), 0)
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointFormatError(f"bad magic bytes {magic!r}")
            header, crc = _crc_read(fh, _CKPT_HEADER.size, crc)
            (version,) = struct.unpack_from("<I", header)
            if version != CHECKPOINT_VERSION:
                raise CheckpointFormatError(
                    f"unsupported checkpoint format version {version} "
                    f"(this build reads version {CHECKPOINT_VERSION} only)")
            _, mask, depth, nbands, nl, horizon = _CKPT_HEADER.unpack(header)
            if not 0 < mask < 1 << len(Parity):
                raise CheckpointFormatError(f"parity mask {mask} names no set of parities")
            parities = tuple(parity for parity in Parity if mask >> parity & 1)
            horizon = None if horizon == -1 else horizon
            if nl != _nlimbs(depth) or (horizon is not None and horizon < depth):
                raise CheckpointFormatError("header disagrees with the layer geometry")
            size = os.fstat(fh.fileno()).st_size
            # every height 0..min(depth, horizon - depth) keeps a band, and a
            # band is 32 bytes or more: a crafted header cannot make the
            # geometry outgrow the file
            k = depth if horizon is None else horizon - depth
            if 32 * (min(depth, k) + 1) > size:
                raise CheckpointFormatError("checkpoint is truncated")
            geometry = iter(_band_layout(depth, horizon))
            bands = {}
            for y, lo, cap, hi, rows in itertools.islice(geometry, nbands):
                record, crc = _crc_read(fh, _CKPT_BAND.size, crc)
                got = _CKPT_BAND.unpack(record)
                if got != (y, lo, cap):
                    raise CheckpointFormatError(f"band {got[0]} disagrees with the layer geometry")
                # a crafted header may name a band far larger than the file
                if 8 * (hi + 1 - lo) * len(parities) * nl > size - fh.tell():
                    raise CheckpointFormatError("checkpoint is truncated")
                # read straight into the band's rows, the continuation after them
                limbs = np.empty((rows, len(parities), nl), dtype="<u8")
                raw = memoryview(limbs[: hi + 1 - lo]).cast("B")
                if fh.readinto(raw) != len(raw):
                    raise CheckpointFormatError("checkpoint is truncated")
                crc = zlib.crc32(raw, crc)
                _continue(limbs, lo, cap, hi)
                bands[y] = Band(lo, cap, limbs.astype(np.uint64, copy=False))
            if len(bands) != nbands or next(geometry, None) is not None:
                raise CheckpointFormatError("band count disagrees with the layer geometry")
            stored, _ = _crc_read(fh, _CKPT_CRC.size, 0)
            if _CKPT_CRC.unpack(stored)[0] != crc:
                raise CheckpointFormatError("checksum mismatch")
            if fh.read(1):
                raise CheckpointFormatError("trailing bytes after the checksum")
        # the carry passes of later advances need canonical limbs to start from
        for y, band in bands.items():
            if band.stored().max() > LIMB_MASK:
                raise CheckpointFormatError(f"band {y} holds a limb that is not canonical")
        return cls(Layer(depth, parities, bands, horizon))
