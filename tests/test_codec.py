"""Differential Manchester codec, stripe profile decoding, and the LED
registry. The encoder is checked against the line-code rules directly;
decoding is checked by driving the real render path."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nadir_pose
from vlp.codec import (
    DEFAULT_BIT_RATE_HZ,
    LedDatabase,
    LedRecord,
    RowProfile,
    bits_value,
    dm_decode,
    dm_encode,
    extract_row_profile,
    id_bits,
    match_id,
    rcs_to_wcs,
    rotation_class,
    rotations,
    stripe_merge_radius,
)
from vlp.errors import (AmbiguousMatch, EmptyQuad, MalformedCsv, NoMatch, NoTransitions,
                        ProfileTooShort)
from vlp.geometry import Vec3
from vlp.render import _quad_row_spans, apply_rolling_shutter, base_brightness, rasterize_panel


def test_id_bits_round_trip():
    for v in range(256):
        bits = id_bits(v)
        assert len(bits) == 8
        assert bits_value(bits) == v
    assert id_bits(0xB6) == (1, 0, 1, 1, 0, 1, 1, 0)  # MSB first


def test_id_bits_range_check():
    for bad in (-1, 256, 1000):
        with pytest.raises(ValueError):
            id_bits(bad)


def test_rotations_and_cyclic_equivalence():
    assert rotations((0, 0, 0, 0, 0, 0, 0, 1)) == {
        tuple(int(i == k) for i in range(8)) for k in range(8)
    }
    assert rotation_class(id_bits(0x80)) == id_bits(0x01)
    assert rotation_class(id_bits(0x81)) == id_bits(0x03)  # 10000001 vs 00000011
    assert rotation_class(id_bits(0x01)) != rotation_class(id_bits(0x03))
    assert len(rotations((0,) * 8)) == 1


def test_dm_encode_reference_pattern():
    w = dm_encode(0xB6)
    assert w.levels == (1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1)
    assert w.level_duration_us == 50.0
    assert w.period_us == 800.0
    assert dm_encode(0xB6, bit_rate_hz=5000.0).level_duration_us == 100.0


def test_dm_encode_rules_hold_for_every_id():
    """Two levels per bit; a transition at every interior bit boundary; a
    mid-bit transition exactly when the bit is 0."""
    for v in range(256):
        levels = dm_encode(v).levels
        bits = id_bits(v)
        assert len(levels) == 16
        assert set(levels) <= {0, 1}
        for k in range(8):
            first, second = levels[2 * k], levels[2 * k + 1]
            assert (first != second) == (bits[k] == 0)
            if k > 0:
                assert levels[2 * k - 1] != first  # boundary transition


def test_dm_encode_validation():
    with pytest.raises(ValueError):
        dm_encode(256)
    with pytest.raises(ValueError):
        dm_encode(10, bit_rate_hz=0.0)


def test_row_profile_validation():
    with pytest.raises(ValueError):
        RowProfile(np.array([]), 0)
    with pytest.raises(ValueError):
        RowProfile(np.array([0.5, 1.5]), 0)
    with pytest.raises(ValueError):
        RowProfile(np.array([[0.5]]), 0)


def test_extract_row_profile_means_interior(intr, panel):
    pose = nadir_pose(0.0, 0.0, 1.19)
    frame = rasterize_panel(intr, pose, panel, 1.0)
    striped = apply_rolling_shutter(frame, frame.quad, dm_encode(0xB6), phase_us=0.0)
    profile = extract_row_profile(striped, striped.quad)
    assert profile.row_start == 752
    assert profile.values.size == 800
    # each profile row is the mean of that row's in-quad pixels
    np.testing.assert_allclose(
        profile.values[10],
        striped.pixels[762, 464:1264].mean() / 255.0,
        atol=1e-12,
    )
    assert profile.values.min() >= 0.0 and profile.values.max() <= 1.0


def test_extract_row_profile_sums_each_rows_span(intr, panel):
    """On a yawed, noisy quad every row has its own column span; each
    profile value is that span's exact integer sum over its pixel count."""
    pose = nadir_pose(0.1, -0.05, 1.3, yaw=27.0)
    frame = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    striped = apply_rolling_shutter(frame, frame.quad, dm_encode(0x5A), phase_us=9.0)
    px = striped.pixels.copy()
    px[::3, ::7] = 200  # so every in-quad pixel counts, not just the fill
    noisy = type(striped)(px, striped.meta)
    profile = extract_row_profile(noisy, striped.quad)
    row_lo, _, col_lo, col_hi = _quad_row_spans(striped.quad.points, 1728, 2304)
    assert profile.row_start == row_lo
    for i, value in enumerate(profile.values):
        span = px[row_lo + i, col_lo[i] : col_hi[i] + 1]
        assert value == int(span.sum(dtype=np.int64)) / float(span.size) / 255.0


def test_extract_row_profile_rejects_offscreen_quad(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    offscreen = type(frame.quad)(frame.quad.points - 5000.0)
    with pytest.raises(EmptyQuad):
        extract_row_profile(frame, offscreen)


def _striped_profile(intr, panel, led_id, phase_us, height=1.3):
    pose = nadir_pose(0.0, 0.0, height)
    base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
    striped = apply_rolling_shutter(base, base.quad, dm_encode(led_id),
                                    phase_us=phase_us)
    return extract_row_profile(striped, striped.quad)


@pytest.mark.parametrize("led_id", [0x00, 0x01, 0x55, 0xAA, 0xB6, 0xFF])
def test_decode_recovers_rotation_class(intr, panel, led_id):
    for phase in (0.0, 333.3, 617.0):
        profile = _striped_profile(intr, panel, led_id, phase)
        cands = dm_decode(profile, 2.5, 68.0)
        assert any(c in rotations(id_bits(led_id)) for c in cands)


def test_decode_random_ids_and_phases(intr, panel):
    g = np.random.default_rng(29)
    for led_id in g.integers(0, 256, size=24):
        phase = float(g.uniform(0.0, 800.0))
        profile = _striped_profile(intr, panel, int(led_id), phase)
        cands = dm_decode(profile, 2.5, 68.0)
        rec = match_id(cands, LedDatabase([LedRecord(int(led_id), Vec3(0, 0, 2.56))]))
        assert rec.id == int(led_id)


def test_decode_needs_enough_rows(intr, panel):
    # a distant view leaves fewer rows than one 16-level code repetition
    profile = _striped_profile(intr, panel, 0xB6, 0.0, height=4.0)
    with pytest.raises(ProfileTooShort):
        dm_decode(profile, 2.5, 68.0)


def test_decode_rejects_unmodulated_profile(intr, panel):
    pose = nadir_pose(0.0, 0.0, 1.3)
    frame = rasterize_panel(intr, pose, panel, 1.0)
    profile = extract_row_profile(frame, frame.quad)
    with pytest.raises(NoTransitions):
        dm_decode(profile, 2.5, 68.0)


def test_decode_rejects_washed_out_exposure(intr, panel):
    profile = _striped_profile(intr, panel, 0xB6, 0.0)
    # an exposure read from a frame's meta is input, not a programming error
    with pytest.raises(NoTransitions, match="exposure covers a full bit period"):
        dm_decode(profile, 2.5, 200.0)
    with pytest.raises(NoTransitions):
        dm_decode(profile, 2.5, 100.0)  # exactly one bit period
    with pytest.raises(ValueError, match="timing parameters must be positive"):
        dm_decode(profile, -1.0, 68.0)


def test_stripe_merge_radius(intr):
    # 10 kHz at 2.5 us rows: a full bit spans 40 rows, radius 21 bridges it
    assert stripe_merge_radius(intr) == 21
    assert stripe_merge_radius(intr, bit_rate_hz=5000.0) == 41
    meta_like = type("M", (), {"row_readout_us": 1.0})()
    assert stripe_merge_radius(meta_like) == 51


def test_led_record_validation():
    with pytest.raises(ValueError):
        LedRecord(300, Vec3(0, 0, 2.56))


def test_database_rejects_confusable_ids():
    with pytest.raises(AmbiguousMatch, match="duplicate id 0x05"):
        LedDatabase([LedRecord(5, Vec3(0, 0, 2.56)), LedRecord(7, Vec3(2, 0, 2.56)),
                     LedRecord(5, Vec3(1, 0, 2.56))])
    with pytest.raises(AmbiguousMatch, match="ids 0x01 and 0x80 are cyclic rotations"):
        LedDatabase([LedRecord(0x01, Vec3(0, 0, 2.56)),
                     LedRecord(0x80, Vec3(1, 0, 2.56))])
    with pytest.raises(ValueError):
        LedDatabase([])


def test_database_csv_round_trip(tmp_path):
    p = tmp_path / "leds.csv"
    p.write_text(
        "id,x,y,z\n"
        "# comment line\n"
        "0xB6,3.0,4.0,2.56\n"
        "7,0.0,-1.5,2.56\n"
    )
    db = LedDatabase.from_csv(p)
    assert len(db) == 2
    ids = {r.id for r in db}
    assert ids == {0xB6, 7}
    rec = next(r for r in db if r.id == 0xB6)
    assert rec.world_position == Vec3(3.0, 4.0, 2.56)


def test_database_csv_rejects_short_rows(tmp_path):
    p = tmp_path / "leds.csv"
    p.write_text("id,x,y,z\n0xB6,3.0,4.0\n")
    with pytest.raises(MalformedCsv, match="expected id"):
        LedDatabase.from_csv(p)


@pytest.mark.parametrize("data, match", [
    (b"id,x,y,z\n0xZZ,3.0,4.0,2.56\n", ":2: invalid literal"),
    (b"id,x,y,z\n0xB6,3.0,north,2.56\n", ":2: .*north"),
    (b"id,x,y,z\n300,3.0,4.0,2.56\n", ":2: "),
    (b"id,x,y,z\n\xff\xfe,3.0,4.0,2.56\n", ":2: invalid literal"),
    (b"id,x,y,z\n", "no records"),
])
def test_database_csv_rejects_bad_cells(tmp_path, data, match):
    p = tmp_path / "leds.csv"
    p.write_bytes(data)
    with pytest.raises(MalformedCsv, match=match):
        LedDatabase.from_csv(p)


def test_match_id_candidates():
    db = LedDatabase([LedRecord(0xB6, Vec3(0, 0, 2.56)),
                      LedRecord(0x0F, Vec3(1, 1, 2.56))])
    assert match_id([id_bits(0xB6)], db).id == 0xB6
    rotated = id_bits(0xB6)[3:] + id_bits(0xB6)[:3]
    assert match_id([rotated], db).id == 0xB6
    # first match wins, and unmatched candidates before it are skipped
    assert match_id((id_bits(0x0F), id_bits(0xB6)), db).id == 0x0F
    assert match_id((id_bits(0x33), id_bits(0xB6)), db).id == 0xB6
    with pytest.raises(NoMatch):
        match_id([id_bits(0x33)], db)
    with pytest.raises(NoMatch):
        match_id([], db)
    with pytest.raises(ValueError):
        match_id([(1, 0, 1)], db)


def test_rcs_to_wcs_flips_the_vertical_axis():
    rec = LedRecord(0xB6, Vec3(3.0, 4.0, 2.56))
    fix = rcs_to_wcs(Vec3(0.5, -0.2, 1.3), rec)
    assert fix == Vec3(3.5, 3.8, 1.26)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=7))
def test_rotation_class_membership(value, k):
    bits = id_bits(value)
    rotated = bits[k:] + bits[:k]
    assert rotated in rotations(bits)
    assert rotation_class(id_bits(bits_value(rotated))) == rotation_class(bits)
