"""Differential Manchester codec, stripe profile decoding, and the LED
registry. The encoder is checked against the line-code rules directly;
decoding is checked by driving the real render path."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nadir_pose, rng
from helpers import reference_dm_decode, reference_row_profile, reference_row_spans
from vlp.codec import (
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
                        ProfileTooShort, VlpError)
from vlp.geometry import CornerSet, Vec3, in_fov, project_panel_corners
from vlp.harness import GridSpec
from vlp.render import (Frame, FrameMeta, add_capture_noise, apply_rolling_shutter,
                        base_brightness, rasterize_panel, row_exposure_fractions)
from vlp.vision import extract_corners


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
    row_lo, _, col_lo, col_hi = reference_row_spans(striped.quad, 1728, 2304)
    assert profile.row_start == row_lo
    for i, value in enumerate(profile.values):
        span = px[row_lo + i, col_lo[i] : col_hi[i] + 1]
        assert value == int(span.sum(dtype=np.int64)) / float(span.size) / 255.0


def _profile_cases(intr, panel):
    """(name, frame, quad) cases for the row profile: noisy striped frames
    at the four heights the codec gate decodes at, framed by their rendered
    quad and by their stripe-merged corners; panels clipped at the left and
    the right sensor edge; a frame of 255 under a quad past every edge, so
    each row sums to the largest possible value; and quads whose rows all
    span the crop's full width, where each span ends just where the next
    row's begins and the last one at the crop's end."""
    merge = stripe_merge_radius(intr)
    g = rng(77)
    poses = [(f"{h} m", nadir_pose(x, y, h, yaw=yaw)) for h, x, y, yaw in
             ((1.23, 0.0, 0.0, 0.0), (1.3, 0.2, -0.4, 13.0),
              (1.6, -0.4, 0.2, 0.0), (1.66, 0.4, 0.4, -31.0))]
    poses += [("clipped left", nadir_pose(0.5, 0.0, 1.3)),
              ("clipped right", nadir_pose(-0.5, 0.0, 1.3))]
    for name, pose in poses:
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        striped = apply_rolling_shutter(base, base.quad, dm_encode(int(g.integers(256))),
                                        phase_us=float(g.uniform(0.0, 800.0)))
        noisy = add_capture_noise(striped, 1.0, 5.1, g)
        yield name, noisy, striped.quad
        if not name.startswith("clipped"):
            yield f"{name} merged", noisy, extract_corners(noisy, merge_radius=merge)
    h, w = intr.height_px, intr.width_px
    full = Frame(np.full((h, w), 255, dtype=np.uint8), FrameMeta())
    yield "255 everywhere", full, CornerSet([[-9.0, -3.0], [w + 4.0, -3.0],
                                             [w + 4.0, h + 8.0], [-9.0, h + 8.0]])
    speckle = Frame(g.integers(0, 256, size=(h, w), dtype=np.uint8), FrameMeta())
    yield "rectangle", speckle, CornerSet([[100.2, 50.7], [900.4, 50.7],
                                           [900.4, 700.1], [100.2, 700.1]])
    yield "rectangle at the sensor's right and bottom edges", speckle, CornerSet(
        [[w - 300.0, h - 200.0], [w + 1.0, h - 200.0], [w + 1.0, h + 1.0],
         [w - 300.0, h + 1.0]])
    yield "widest at the bottom", speckle, CornerSet([[500.0, 300.0], [520.0, 300.0],
                                                      [800.0, 900.0], [200.0, 900.0]])


def test_extract_row_profile_matches_masked_sum(intr, panel):
    """extract_row_profile's values and row_start equal the masked int64
    sum's, bit for bit, on every _profile_cases frame."""
    for name, frame, quad in _profile_cases(intr, panel):
        profile = extract_row_profile(frame, quad)
        values, row_start = reference_row_profile(frame, quad)
        assert profile.row_start == row_start, name
        np.testing.assert_array_equal(profile.values, values, err_msg=name)


def test_extract_row_profile_rejects_offscreen_quad(intr, panel):
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    offscreen = type(frame.quad)(frame.quad.points - 5000.0)
    with pytest.raises(EmptyQuad):
        extract_row_profile(frame, offscreen)


def test_extract_row_profile_rejects_a_row_gap(intr, panel):
    """A steep sub-pixel sliver covers pixel centers on some rows and
    misses them on rows between: its covered rows are not contiguous."""
    frame = rasterize_panel(intr, nadir_pose(0.0, 0.0, 1.3), panel, 1.0)
    sliver = CornerSet([[10.2, 10.0], [14.7, 90.3], [14.9, 90.3], [10.4, 10.0]])
    row_lo, _, col_lo, col_hi = reference_row_spans(sliver, 1728, 2304)
    covered = np.flatnonzero(col_hi >= col_lo)
    assert covered[-1] - covered[0] + 1 > covered.size  # a gap, not just thin
    with pytest.raises(EmptyQuad, match="contiguous"):
        extract_row_profile(frame, sliver)


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


@pytest.mark.parametrize("led_id, rows", [
    pytest.param(led_id, rows, id=str(led_id) if rows == 1 else f"{led_id}-{rows}rows")
    for rows in (1, 8) for led_id in (0xB6, 0x5A, 0x0F)])
def test_decode_absorbs_a_one_row_fleck(led_id, rows):
    """A noise fleck that flips one row, or eight, in the middle of a stripe
    run is outvoted in its half-bit cells, and the id's rotation class
    still ranks first."""
    values = row_exposure_fractions(dm_encode(led_id), np.arange(480) * 2.5, 68.0)
    binary = values >= (values.max() + values.min()) / 2.0
    starts = np.flatnonzero(np.diff(binary)) + 1  # every run's start but the first
    k = int(np.searchsorted(starts, 240))
    mid = (starts[k - 1] + starts[k]) // 2  # the middle of the run holding row 240
    flecked = values.copy()
    lo = mid - rows // 2
    flecked[lo : lo + rows] = values.min() if binary[mid] else values.max()
    cands = dm_decode(RowProfile(flecked, 0), 2.5, 68.0)
    assert cands[0] == rotation_class(id_bits(led_id))


def _class_profiles(seed, rows, dark_rows=0):
    """(id, values) for one id of each of the 36 rotation classes at 8
    seeded phases: clean 68 us stripes at 2.5 us rows, under dark_rows
    rows of 0, clipped to [0, 1] since the exposure integral can round
    past 1."""
    g = np.random.default_rng(seed)
    ids = sorted({bits_value(rotation_class(id_bits(v))) for v in range(256)})
    for led_id in ids:
        for phase in g.uniform(0.0, 800.0, size=8):
            stripes = row_exposure_fractions(dm_encode(led_id),
                                             np.arange(rows) * 2.5 + phase, 68.0)
            yield led_id, np.clip(np.concatenate([np.zeros(dark_rows), stripes]), 0.0, 1.0)


def test_decode_reads_every_class_from_360_rows():
    """360 rows is one repetition and one bit: the grid, which uses every
    whole cell up to the profile's ends, reads every class first at
    every phase."""
    for led_id, values in _class_profiles(41, 360):
        cands = dm_decode(RowProfile(values, 0), 2.5, 68.0)
        assert cands[0] == rotation_class(id_bits(led_id)), (led_id, cands)


def test_decode_reads_under_dark_rows():
    """50 dark rows above the stripes, as when the top edge is framed too
    high, add one long dark run; the id still matches."""
    for led_id, values in _class_profiles(43, 480, dark_rows=50):
        cands = dm_decode(RowProfile(values, 0), 2.5, 68.0)
        db = LedDatabase([LedRecord(led_id, Vec3(0, 0, 2.56))])
        assert match_id(cands, db).id == led_id, (led_id, cands)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_decode_ranks_the_right_class_first_under_dark_rows(seed):
    """The cells of 50 dark rows hold no flip, and one alignment can have
    one more bit boundary among them than the other: counted, that can
    outweigh the one flip an odd-zero id's true alignment misses at the
    seam. Only boundaries between the first and the last flip count, so
    the right class comes first at every phase."""
    for led_id, values in _class_profiles(seed, 480, dark_rows=50):
        cands = dm_decode(RowProfile(values, 0), 2.5, 68.0)
        assert cands[0] == rotation_class(id_bits(led_id)), (led_id, cands)


def test_decode_rejects_a_steady_profile_with_a_fleck():
    """A steady LED with one dim row has two level changes but no change
    between half-bit cells, so it cannot read as the all-ones id."""
    values = np.ones(480)
    values[240] = 0.5
    with pytest.raises(NoTransitions):
        dm_decode(RowProfile(values, 0), 2.5, 68.0)


def test_decode_matches_run_grammar_where_it_reads(intr, panel):
    """On noisy striped frames made as the on-device fix makes them, framed
    by their stripe-merged corners, the first candidate is the run
    grammar's wherever the run grammar reads the profile."""
    g = rng(53)
    merge = stripe_merge_radius(intr)
    coords = GridSpec(1.2, 0.2).coordinates()
    poses = [nadir_pose(float(x), float(y), h) for h in (1.23, 1.3, 1.6, 1.66)
             for x in coords for y in coords]
    poses = [p for p in poses if in_fov(project_panel_corners(intr, p, panel), intr)]
    compared = 0
    for k in range(24):
        pose = poses[int(g.integers(len(poses)))]
        base = rasterize_panel(intr, pose, panel, base_brightness(pose, panel, intr))
        wave = dm_encode(int(g.integers(256)))
        striped = apply_rolling_shutter(base, base.quad, wave,
                                        phase_us=float(g.uniform(0.0, wave.period_us)))
        noisy = add_capture_noise(striped, 1.0, 5.1, g)
        profile = extract_row_profile(noisy, extract_corners(noisy, merge_radius=merge))
        try:
            want = reference_dm_decode(profile, 2.5, 68.0)
        except VlpError:
            continue
        assert dm_decode(profile, 2.5, 68.0)[0] == want[0], (k, pose)
        compared += 1
    assert compared >= 16


def test_decode_needs_enough_rows(intr, panel):
    # a distant view leaves fewer rows than one 16-level code repetition
    profile = _striped_profile(intr, panel, 0xB6, 0.0, height=4.0)
    with pytest.raises(ProfileTooShort):
        dm_decode(profile, 2.5, 68.0)


def test_decode_needs_sixteen_whole_cells():
    """320 rows hold one code repetition, 16 half-bit cells of 20 rows,
    only when the stripes phase the grid at row 0; off it, 15 cells are
    whole, too few to read 8 bits from."""
    values = row_exposure_fractions(dm_encode(0xB6), np.arange(320) * 2.5 + 25.0, 68.0)
    with pytest.raises(ProfileTooShort, match="only 15 whole half-bit cells"):
        dm_decode(RowProfile(values, 0), 2.5, 68.0)


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
