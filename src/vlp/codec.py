"""LED identity channel: differential Manchester coding of an 8-bit id over
OOK, recovery of the bit stream from the rolling-shutter stripe pattern, and
the id database that anchors a relative fix to world coordinates.

Line code convention (fixed here, used by encoder and decoder alike): two
levels per bit, a level transition at every bit boundary, a mid-bit
transition encodes 0 and its absence encodes 1, first level on.

One consequence worth knowing: a plain 16-level repetition of the code obeys
the boundary-transition rule at the seam only for ids with an even number of
0-bits. Odd ones invert on every repetition (the true period is 32 levels),
which shows up to the decoder as a single missing boundary transition and a
3- or 4-unit level run per 16 half-bits. The decoder's run grammar accepts
both forms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousMatch,
    EmptyQuad,
    MalformedCsv,
    NoMatch,
    NoTransitions,
    ProfileTooShort,
)
from .geometry import CameraIntrinsics, CornerSet, Vec3
from .render import Frame, Waveform, _quad_row_spans

DEFAULT_BIT_RATE_HZ = 10_000.0


def id_bits(value: int) -> tuple:
    """8-bit pattern of an id, most significant bit first."""
    if not (0 <= value <= 255):
        raise ValueError(f"led id must fit in 8 bits, got {value}")
    return tuple((value >> (7 - k)) & 1 for k in range(8))


def bits_value(bits) -> int:
    """Inverse of id_bits."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != 8 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need exactly 8 binary values, got {bits!r}")
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def rotations(bits) -> set:
    """All cyclic rotations of a bit pattern."""
    bits = tuple(bits)
    return {bits[k:] + bits[:k] for k in range(len(bits))}


def rotation_class(bits) -> tuple:
    """The smallest rotation of a bit pattern: the key of its rotation
    class, which is all the decoder can recover without framing."""
    return min(rotations(bits))


def dm_encode(led_id: int, bit_rate_hz: float = DEFAULT_BIT_RATE_HZ) -> Waveform:
    """Differential Manchester waveform for an 8-bit id.

    level_duration = 1 / (2 * bit_rate); 16 levels.
    """
    if not (bit_rate_hz > 0):
        raise ValueError("bit rate must be positive")
    levels = []
    first = 1  # initial level is on
    for b in id_bits(led_id):
        second = first ^ (1 if b == 0 else 0)  # mid-bit transition encodes 0
        levels.extend((first, second))
        first = 1 - second  # transition at the next bit boundary
    return Waveform(levels=tuple(levels), level_duration_us=1e6 / (2.0 * bit_rate_hz))


@dataclass(frozen=True)
class RowProfile:
    """Per-row mean brightness inside the panel quad, normalized to [0, 1].

    row_start is the image row index of values[0].
    """

    values: np.ndarray
    row_start: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("profile must be a nonempty 1-D array")
        if not np.isfinite(vals).all() or vals.min() < 0 or vals.max() > 1:
            raise ValueError("profile values must be finite and in [0, 1]")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def extract_row_profile(frame: Frame, quad: CornerSet) -> RowProfile:
    """Mean in-quad pixel value for every image row the quad interior
    touches, scaled to [0, 1]."""
    row_lo, row_hi, col_lo, col_hi = _quad_row_spans(
        quad.points, frame.width_px, frame.height_px
    )
    covered = col_hi >= col_lo
    if row_hi <= row_lo or not covered.any():
        raise EmptyQuad("quad covers no pixel centers inside the frame")
    first = int(np.argmax(covered))
    last = len(covered) - int(np.argmax(covered[::-1]))
    col_lo, col_hi = col_lo[first:last], col_hi[first:last]
    if not (col_hi >= col_lo).all():
        raise EmptyQuad("quad rows are not contiguous inside the frame")
    c0 = int(col_lo.min())
    block = frame.pixels[row_lo + first : row_lo + last, c0 : int(col_hi.max()) + 1]
    cols = np.arange(c0, c0 + block.shape[1])
    inside = (cols >= col_lo[:, None]) & (cols <= col_hi[:, None])
    sums = block.sum(axis=1, dtype=np.int64, where=inside)
    counts = (col_hi - col_lo + 1).astype(np.float64)
    means = sums / counts / 255.0
    return RowProfile(values=means, row_start=row_lo + first)


def _rle(binary: np.ndarray):
    """Run-length encode a boolean sequence into (boundaries, levels):
    run i is binary[boundaries[i] : boundaries[i+1]] with value levels[i]."""
    change = np.nonzero(np.diff(binary.astype(np.int8)))[0] + 1
    boundaries = [0, *change.tolist(), len(binary)]
    levels = [bool(binary[b]) for b in boundaries[:-1]]
    return boundaries, levels


def _absorb_short_runs(boundaries, levels, floor_rows: float):
    """Clean sub-floor runs (noise flecks near a stripe edge): interior ones
    flip and merge into their neighbors; a too-short first or last run folds
    into its neighbor so it cannot donate a bogus anchor boundary. Shortest
    first, deterministic."""
    while len(levels) > 2:
        lengths = [boundaries[i + 1] - boundaries[i] for i in range(len(levels))]
        pick, best = None, floor_rows
        for i in range(len(levels)):
            if lengths[i] < best:
                pick, best = i, lengths[i]
        if pick is None:
            break
        if pick == 0:
            # extend the second run to the profile start
            del boundaries[1]
            del levels[0]
        elif pick == len(levels) - 1:
            del boundaries[-2]
            del levels[-1]
        else:
            del boundaries[pick : pick + 2]
            del levels[pick : pick + 2]
    return boundaries, levels


def dm_decode(profile: RowProfile, row_readout_us: float, exposure_us: float,
              bit_rate_hz: float = DEFAULT_BIT_RATE_HZ) -> tuple:
    """Recover the repeating 8-bit payload from a stripe profile.

    Binarizes at (max+min)/2, run-length encodes, snaps run boundaries to the
    half-bit grid, then reads bits for both half-bit alignments. Returns the
    candidate 8-bit patterns ordered best-first (fewest boundary-rule
    violations); cyclic rotation and candidate choice are resolved by
    match_id against the deployed id set.

    Raises ValueError on non-positive timing, NoTransitions when the
    exposure covers a full bit period (the stripes wash out) or the profile
    holds no stripes, and ProfileTooShort when it is too short to read.
    """
    if not (row_readout_us > 0 and exposure_us > 0 and bit_rate_hz > 0):
        raise ValueError("timing parameters must be positive")
    level_duration_us = 1e6 / (2.0 * bit_rate_hz)
    if exposure_us >= 2.0 * level_duration_us:
        raise NoTransitions(
            "exposure covers a full bit period; stripes wash out "
            f"(exposure {exposure_us} us, bit {2 * level_duration_us} us)"
        )
    unit_rows = level_duration_us / row_readout_us
    values = profile.values
    if values.size < 16.0 * unit_rows:
        raise ProfileTooShort(
            f"{values.size} rows < one code repetition ({16 * unit_rows:.0f} rows)"
        )
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin < 1e-6:
        raise NoTransitions("constant profile; the LED is not modulated")
    binary = values >= (vmax + vmin) / 2.0
    boundaries, levels = _rle(binary)
    boundaries, levels = _absorb_short_runs(boundaries, levels, unit_rows / 4.0)
    if len(levels) < 3:
        raise NoTransitions("profile has no interior stripe transitions")

    # drop the first and last runs (truncated by the quad edges); snap the
    # remaining boundaries to the half-bit grid anchored at the first one
    interior = boundaries[1:-1]
    units = [round((b - interior[0]) / unit_rows) for b in interior]
    total = units[-1]
    if any(u1 <= u0 for u0, u1 in zip(units, units[1:])):
        raise ProfileTooShort("stripe runs too garbled to place on the half-bit grid")
    transition_at = set(units)

    candidates = []
    for align in (0, 1):
        n_units = total - align
        if n_units < 16:
            continue
        bits = []
        violations = 0 if align == 0 else (0 if align in transition_at else 1)
        for k in range(8):
            start = align + 2 * k
            bits.append(0 if (start + 1) in transition_at else 1)
            if k > 0 and start not in transition_at:
                violations += 1
        # rotation is unobservable without framing: report the class
        canonical = rotation_class(bits)
        if all(c[2] != canonical for c in candidates):
            candidates.append((violations, align, canonical))
    if not candidates:
        raise ProfileTooShort(
            f"only {total} clean half-bit units; need 16 to read 8 bits"
        )
    candidates.sort(key=lambda t: (t[0], t[1]))
    return tuple(c[2] for c in candidates)


@dataclass(frozen=True)
class LedRecord:
    """A deployed LED: its 8-bit id and world-frame mounting position."""

    id: int
    world_position: Vec3

    def __post_init__(self):
        id_bits(self.id)  # range check


class LedDatabase:
    """Immutable deployed-LED registry, keyed by rotation class.

    Ids must be unique and pairwise cyclically inequivalent: the decoder
    only recovers bits up to rotation, so two rotation-equivalent ids could
    never be told apart. Such a deployment is rejected at construction.
    """

    def __init__(self, records):
        self.records = tuple(records)
        if not self.records:
            raise ValueError("database must contain at least one record")
        self.by_class = {}
        for rec in self.records:
            key = rotation_class(id_bits(rec.id))
            prev = self.by_class.setdefault(key, rec)
            if prev is rec:
                continue
            if prev.id == rec.id:
                raise AmbiguousMatch(f"duplicate id 0x{rec.id:02X}")
            raise AmbiguousMatch(
                f"ids 0x{prev.id:02X} and 0x{rec.id:02X} are cyclic rotations "
                "of each other; deployment cannot distinguish them"
            )

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    @staticmethod
    def from_csv(path) -> "LedDatabase":
        """Load `id,x,y,z` rows; ids in decimal or 0x-prefixed hex."""
        records = []
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("id",):
                    continue  # header
                if len(row) != 4:
                    raise MalformedCsv(f"{path}:{lineno}: expected id,x,y,z")
                try:
                    records.append(LedRecord(int(row[0].strip(), 0),
                                             Vec3(*(float(v) for v in row[1:]))))
                except ValueError as exc:
                    raise MalformedCsv(f"{path}:{lineno}: {exc}") from None
        if not records:
            raise MalformedCsv(f"{path}: no records")
        return LedDatabase(records)


def match_id(candidates, db: LedDatabase) -> LedRecord:
    """Find the deployed LED whose id matches the decoded bits up to cyclic
    rotation.

    candidates is the sequence of 8-bit patterns that dm_decode returns;
    they are tried best-first and the first that matches a record wins.
    """
    cands = [tuple(int(b) for b in c) for c in candidates]
    for cand in cands:
        if len(cand) != 8:
            raise ValueError(f"candidate must have 8 bits, got {len(cand)}")
        rec = db.by_class.get(rotation_class(cand))
        if rec is not None:
            return rec
    raise NoMatch(f"no record matches any rotation of {cands}")


# LCS +z points down at the floor; WCS +z points up. The anchoring is a
# translation to the LED's world position with that single axis flipped.
_LCS_TO_WCS = np.diag([1.0, 1.0, -1.0])


def rcs_to_wcs(position_lcs: Vec3, rec: LedRecord) -> Vec3:
    """World-frame receiver position from a panel-relative fix."""
    p = rec.world_position.as_array() + _LCS_TO_WCS @ position_lcs.as_array()
    return Vec3(float(p[0]), float(p[1]), float(p[2]))


def stripe_merge_radius(intr: CameraIntrinsics,
                        bit_rate_hz: float = DEFAULT_BIT_RATE_HZ) -> int:
    """Dilation radius that merges stripe bars into one blob: half the
    longest dark run (two half-bits), plus one pixel of slack."""
    dark_run_rows = (1e6 / bit_rate_hz) / intr.row_readout_us
    return int(math.ceil(dark_run_rows / 2.0)) + 1
