"""Dataset plumbing, sweep/capture generation, evaluation math and report
emission. The sweep is checked against a direct pose-by-pose enumeration
with the scalar projector; evaluation statistics against hand arithmetic."""

import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from vlp.errors import (BehindCamera, ConfigError, EmptyTestSet, InsufficientRows,
                        MalformedCsv, TooFewCorners)
from vlp.geometry import (
    Attitude,
    Pose,
    Vec3,
    in_fov,
    project_panel_corners,
)
from vlp.harness import (
    CaptureSpec,
    Dataset,
    EvalReport,
    GridSpec,
    StudyConfig,
    SweepSpec,
    build_study_config,
    evaluate,
    generate_capture_set,
    generate_sweep,
    parse_config_file,
    render_report_json,
    run_experiment,
    split,
    write_cdf_csv,
    write_grid_csv,
    write_grid_svg,
    write_report,
)
from vlp.harness import studies as studies_mod
from vlp.harness import sweep as sweep_mod
from vlp.learn import MODEL_KINDS


def test_grid_spec_coordinates():
    grid = GridSpec(1.2, 0.2)
    assert grid.side_count == 7
    np.testing.assert_allclose(grid.coordinates(), np.linspace(-0.6, 0.6, 7))
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.3)  # not an integer multiple
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.2)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(())
    with pytest.raises(ValueError):
        SweepSpec((1.3,), angle_step_deg=7)
    with pytest.raises(ValueError):
        SweepSpec((-1.0,))


def test_capture_spec_validation():
    with pytest.raises(ValueError):
        CaptureSpec((1.3,), per_location=0)
    with pytest.raises(ValueError):
        CaptureSpec((1.3,), yaw_limit_deg=60.0)
    with pytest.raises(ValueError):
        CaptureSpec((1.3,), tilt_max_deg=90.0)
    with pytest.raises(ValueError):
        CaptureSpec((0.0,))


@pytest.mark.parametrize("spec", [
    SweepSpec((1.3,), angle_step_deg=90, grid=GridSpec(0.4, 0.2)),
    # the 30 degree lattice has poses where a three-operand einsum rotation
    # rounded differently from the per-pose product
    SweepSpec((1.3,), angle_step_deg=30),
], ids=["90deg-small-grid", "30deg-default-grid"])
def test_sweep_matches_naive_enumeration(intr, panel, spec):
    """Every retained row of the batched sweep must also fall out of a
    plain loop over poses with the scalar projector, and vice versa, with
    bit-identical features."""
    ds = generate_sweep(spec, intr, panel)

    want = {}
    angles = np.arange(0.0, 360.0, spec.angle_step_deg)
    coords = spec.grid.coordinates()
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            for roll, pitch, yaw in itertools.product(angles, angles, angles):
                pose = Pose(Vec3(float(x), float(y), 1.3),
                            Attitude(roll, pitch, yaw))
                try:
                    corners = project_panel_corners(intr, pose, panel)
                except BehindCamera:
                    continue
                if not in_fov(corners, intr):
                    continue
                key = (round(float(x), 9), round(float(y), 9), roll, pitch, yaw)
                want[key] = (i, j, corners.points.reshape(8))

    got_keys = set()
    for k in range(len(ds)):
        t, a = ds.targets[k], ds.attitude[k]
        key = (round(t[0], 9), round(t[1], 9), a[0], a[1], a[2])
        assert key in want, key
        i, j, feats = want[key]
        assert (ds.grid_i[k], ds.grid_j[k]) == (i, j)
        np.testing.assert_array_equal(ds.features[k], feats)
        got_keys.add(key)
    assert got_keys == set(want)
    assert ds.source == "clean-sim"


def test_sweep_keeps_nadir_center_poses(intr, panel):
    ds = generate_sweep(SweepSpec((1.3,), angle_step_deg=90,
                                  grid=GridSpec(0.4, 0.2)), intr, panel)
    center = (ds.targets[:, 0] == 0.0) & (ds.targets[:, 1] == 0.0)
    nadir = (ds.attitude[:, 0] == 0.0) & (ds.attitude[:, 1] == 0.0)
    # a level camera under the panel center sees it whole at every yaw
    assert int((center & nadir).sum()) == 4


def test_sweep_empty_when_panel_unreachable(intr, panel):
    ds = generate_sweep(SweepSpec((8.0,), angle_step_deg=180,
                                  grid=GridSpec(0.2, 0.2)), intr, panel)
    # at 8 m every view is retained or none are; just exercise the shape
    assert len(ds) >= 0 and ds.features.shape[1] == 8


def test_dataset_validation_and_len():
    with pytest.raises(ValueError):
        Dataset(np.full((1, 8), np.nan), np.zeros((1, 3)), [0], [0], [1.3],
                np.zeros((1, 3)), "clean-sim")
    ds = Dataset(np.zeros((2, 8)), np.zeros((2, 3)), [0, 1], [0, 0],
                 [1.3, 1.3], np.zeros((2, 3)), "clean-sim")
    assert len(ds) == 2


def test_dataset_locations_in_sorted_key_order():
    ds = Dataset(np.zeros((6, 8)), np.zeros((6, 3)), [1, 0, 1, 0, 2, 0],
                 [0, 3, 0, 1, 0, 3], [1.66, 1.3, 1.66, 1.66, 1.3, 1.3],
                 np.zeros((6, 3)), "clean-sim")
    got = [(key, rows.tolist()) for key, rows in ds.locations()]
    assert got == [((1.3, 0, 3), [1, 5]), ((1.3, 2, 0), [4]),
                   ((1.66, 0, 1), [3]), ((1.66, 1, 0), [0, 2])]
    assert list(Dataset(np.empty((0, 8)), np.empty((0, 3)), [], [], [],
                        np.empty((0, 3)), "clean-sim").locations()) == []


def test_dataset_csv_round_trip(tmp_path, intr, panel):
    ds = generate_sweep(SweepSpec((1.3,), angle_step_deg=90,
                                  grid=GridSpec(0.4, 0.2)), intr, panel)
    path = tmp_path / "rows.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.targets, ds.targets)
    np.testing.assert_array_equal(back.grid_i, ds.grid_i)
    np.testing.assert_array_equal(back.grid_j, ds.grid_j)
    np.testing.assert_array_equal(back.height_m, ds.height_m)
    np.testing.assert_array_equal(back.attitude, ds.attitude)
    assert back.source == ds.source == "clean-sim"


def test_dataset_csv_keeps_a_long_source_tag(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# source=phone-capture\n" + Dataset.CSV_HEADER + "\n"
                    + ",".join(["0.5"] * 6 + ["1", "2", "1.3"] + ["0.5"] * 8) + "\n")
    ds = Dataset.from_csv(path)
    assert ds.source == "phone-capture"
    again = tmp_path / "again.csv"
    ds.to_csv(again)
    assert again.read_text() == path.read_text()


def test_dataset_to_csv_tags_an_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    Dataset(np.empty((0, 8)), np.empty((0, 3)), [], [], [], np.empty((0, 3)),
            "noisy-sim").to_csv(path)
    assert path.read_text() == "# source=noisy-sim\n" + Dataset.CSV_HEADER + "\n"


def test_dataset_from_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,\n")
    with pytest.raises(MalformedCsv, match="no data rows"):
        Dataset.from_csv(p)
    p.write_text("1.0,2.0,3.0\n")
    with pytest.raises(MalformedCsv, match="17 columns"):
        Dataset.from_csv(p)
    p.write_text(",".join(["1.0"] * 17) + "\n" + ",".join(["1.0"] * 16) + "\n")
    with pytest.raises(MalformedCsv, match=":2: expected 17 columns"):
        Dataset.from_csv(p)
    p.write_text(",".join(["1.0"] * 16 + ["abc"]) + "\n")
    with pytest.raises(MalformedCsv, match="abc"):
        Dataset.from_csv(p)
    p.write_bytes(b"\xff\xfe" + b",1.0" * 16 + b"\n")
    with pytest.raises(MalformedCsv, match=":1: "):
        Dataset.from_csv(p)
    p.write_text(",".join(["1.0"] * 16 + ["nan"]) + "\n")
    with pytest.raises(MalformedCsv, match="non-finite"):
        Dataset.from_csv(p)


@pytest.mark.parametrize("grid_j", ["1.7", "-2.0", "1e+19"],
                         ids=["not-integral", "negative", "past-int64"])
def test_dataset_from_csv_rejects_a_bad_grid_index(tmp_path, grid_j):
    p = tmp_path / "rows.csv"
    row = ["0.1", "0.2", "1.3", "0", "0", "0", "3", grid_j, "1.3"] + ["1.0"] * 8
    p.write_text(",".join(row) + "\n")
    with pytest.raises(MalformedCsv, match=re.escape(f"grid index {grid_j} is not an int64 >= 0")):
        Dataset.from_csv(p)
    row[7] = "2.0"
    p.write_text(",".join(row) + "\n")
    ds = Dataset.from_csv(p)
    assert (ds.grid_i.tolist(), ds.grid_j.tolist()) == ([3], [2])


def test_sweep_is_its_heights_in_order(intr, panel):
    """A sweep over several heights is each height's sweep joined in the
    spec's order: the same columns bit for bit, one source tag and no
    dropped rows; a subset by height takes each part back out."""
    grid = GridSpec(0.4, 0.2)
    heights = (1.66, 1.3)
    ds = generate_sweep(SweepSpec(heights, angle_step_deg=90, grid=grid), intr, panel)
    parts = [generate_sweep(SweepSpec((h,), angle_step_deg=90, grid=grid), intr, panel)
             for h in heights]
    assert (ds.source, ds.dropped, ds.clean_features) == ("clean-sim", 0, None)
    for name in ("features", "targets", "grid_i", "grid_j", "height_m", "attitude"):
        joined = np.concatenate([getattr(part, name) for part in parts])
        got = getattr(ds, name)
        assert got.dtype == joined.dtype and got.tobytes() == joined.tobytes(), name
    for h, part in zip(heights, parts):
        assert ds.subset(ds.height_m == h).features.tobytes() == part.features.tobytes()
    keys = [key for part in parts for key, _ in part.locations()]
    assert [key for key, _ in ds.locations()] == sorted(keys)


def test_split_partitions_per_location():
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=4, seed=3,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    ds = generate_capture_set(spec)
    assert len(ds) == 16 and ds.dropped == 0
    train, test = split(ds, test_per_location=1, seed=11)
    assert len(train) == 12 and len(test) == 4
    for _, rows in test.locations():
        assert rows.size == 1
    assert [key for key, _ in test.locations()] == [key for key, _ in ds.locations()]
    a = split(ds, test_per_location=1, seed=11)[1]
    np.testing.assert_array_equal(a.features, test.features)
    with pytest.raises(InsufficientRows):
        split(ds, test_per_location=5)


def test_capture_zero_noise_matches_projection(intr, panel):
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=2, seed=5,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    ds = generate_capture_set(spec)
    assert len(ds) == 8
    for k in range(len(ds)):
        pose = Pose(Vec3(*ds.targets[k]),
                    Attitude(*ds.attitude[k]))
        want = project_panel_corners(intr, pose, panel).points.reshape(8)
        assert float(np.abs(ds.features[k] - want).max()) < 2.0


def test_capture_aims_near_the_panel():
    # the protocol points the boresight at the panel center before the
    # small dither, so every attitude stays within a degree of that aim
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=2, seed=6,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    ds = generate_capture_set(spec)
    from vlp.geometry import attitude_matrices

    rotations = attitude_matrices(ds.attitude)
    for k in range(len(ds)):
        p = ds.targets[k]
        bore_should = -p / np.linalg.norm(p)
        r = rotations[k]
        bore_is = r @ np.array([0.0, 0.0, -1.0])
        ang = np.degrees(np.arccos(np.clip(bore_is @ bore_should, -1, 1)))
        assert ang < 0.2


def test_capture_clean_reference_and_determinism():
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=1, seed=7,
                       corner_jitter_px=1.0, pixel_sigma=0.02)
    a = generate_capture_set(spec, clean_reference=True)
    b = generate_capture_set(spec, clean_reference=True)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.clean_features, b.clean_features)
    assert not np.array_equal(a.features, a.clean_features)
    assert a.source == "noisy-sim"
    # noise streams are separate: the zero-noise run visits the same poses
    clean = generate_capture_set(replace(spec, corner_jitter_px=0.0, pixel_sigma=0.0))
    np.testing.assert_array_equal(clean.targets, a.targets)
    np.testing.assert_array_equal(clean.attitude, a.attitude)
    np.testing.assert_array_equal(clean.features, a.clean_features)


def test_capture_rejects_bad_noise():
    with pytest.raises(ValueError):
        CaptureSpec((1.3,), corner_jitter_px=-1.0, pixel_sigma=0.0)
    with pytest.raises(ValueError):
        CaptureSpec((1.3,), corner_jitter_px=0.0, pixel_sigma=1.5)


def test_capture_redraws_only_projection_failures(monkeypatch):
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=1, seed=0,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    calls = []
    real = sweep_mod.project_panel_corners

    def behind_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise BehindCamera("drawn behind the camera")
        return real(*args)

    monkeypatch.setattr(sweep_mod, "project_panel_corners", behind_once)
    assert len(generate_capture_set(spec)) == 4
    assert len(calls) == 5  # the refused pose is drawn again

    def broken(*args):
        raise RuntimeError("projector bug")

    monkeypatch.setattr(sweep_mod, "project_panel_corners", broken)
    with pytest.raises(RuntimeError, match="projector bug"):
        generate_capture_set(spec)


def test_capture_redraws_a_pose_out_of_view(monkeypatch):
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=1, seed=0,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    want = generate_capture_set(spec)
    calls = []
    real = sweep_mod.in_fov

    def refuse_once(*args):
        calls.append(args)
        return len(calls) > 1 and real(*args)

    monkeypatch.setattr(sweep_mod, "in_fov", refuse_once)
    ds = generate_capture_set(spec)
    assert len(ds) == len(want) == 4 and ds.dropped == 0
    assert len(calls) == 5  # the refused pose is drawn again
    np.testing.assert_array_equal(ds.features[1:], want.features[1:])


def test_capture_drops_a_row_whose_extraction_fails(monkeypatch):
    spec = CaptureSpec((1.3,), GridSpec(0.4, 0.4), per_location=1, seed=0,
                       corner_jitter_px=0.0, pixel_sigma=0.0)
    want = generate_capture_set(spec)
    real = sweep_mod.extract_corners
    calls = []

    def fail_once(frame, **kw):
        calls.append(frame)
        if len(calls) == 1:
            raise TooFewCorners("no quad in this frame")
        return real(frame, **kw)

    monkeypatch.setattr(sweep_mod, "extract_corners", fail_once)
    ds = generate_capture_set(spec)
    assert len(ds) == len(want) - 1 and ds.dropped == 1
    np.testing.assert_array_equal(ds.features, want.features[1:])
    np.testing.assert_array_equal(ds.targets, want.targets[1:])


class _Stub:
    def __init__(self, preds):
        self.preds = np.asarray(preds, dtype=np.float64)

    def predict(self, features):
        return self.preds


def _toy_test_set():
    targets = np.tile([0.2, -0.2, 1.3], (4, 1))
    return Dataset(np.zeros((4, 8)), targets, [0, 0, 1, 1], [0, 0, 0, 0],
                   [1.3] * 4, np.zeros((4, 3)), "noisy-sim")


def test_evaluate_statistics_by_hand():
    test = _toy_test_set()
    preds = test.targets + np.array([
        [0.03, 0.0, 0.0],
        [0.0, 0.04, 0.0],
        [0.0, 0.0, 0.12],
        [0.03, 0.04, 0.0],
    ])
    rep = evaluate(_Stub(preds), test, config={"variant": "unit"})
    assert rep.n_rows == 4
    assert rep.mean_3d_error_cm == pytest.approx((3 + 4 + 12 + 5) / 4.0)
    assert rep.p90_error_cm == pytest.approx(12.0)  # inverted CDF: a sample
    assert rep.max_error_cm == pytest.approx(12.0)
    assert rep.axis_mean_cm["x"] == pytest.approx(1.5)
    assert rep.axis_mean_cm["y"] == pytest.approx(2.0)
    assert rep.axis_mean_cm["z"] == pytest.approx(3.0)
    np.testing.assert_allclose(rep.cdf_3d_cm, [3.0, 4.0, 5.0, 12.0])
    got = {(g["grid_i"], g["grid_j"]): g["mean_error_cm"] for g in rep.per_grid}
    assert got[(0, 0)] == pytest.approx(3.5)
    assert got[(1, 0)] == pytest.approx(8.5)
    assert rep.config["variant"] == "unit"


def test_evaluate_rejects_empty_test_set():
    empty = Dataset(np.empty((0, 8)), np.empty((0, 3)), [], [], [],
                    np.empty((0, 3)), "noisy-sim")
    with pytest.raises(EmptyTestSet):
        evaluate(_Stub(np.zeros((1, 3))), empty)


def test_report_json_golden_bytes():
    rep = EvalReport(
        n_rows=3, mean_3d_error_cm=0.1 + 0.2, p90_error_cm=2.5, max_error_cm=12.0,
        axis_mean_cm={"x": 1.5, "y": 2.0, "z": 1e-17},
        axis_p90_cm={"x": 3.0, "y": 4.0, "z": 0.0},
        cdf_3d_cm=np.array([0.5, 2.5, 12.0]),
        cdf_axis_cm={"x": np.array([0.0, 1.5, 3.0]), "y": np.array([0.0, 2.0, 4.0]),
                     "z": np.zeros(3)},
        per_grid=[{"height_m": 1.3, "grid_i": 0, "grid_j": 1, "mean_error_cm": 1.5,
                   "count": 2},
                  {"height_m": 1.66, "grid_i": 1, "grid_j": 0, "mean_error_cm": 12.0,
                   "count": 1}],
        dropped_rows=4,
        config={"study": "model-selection", "heights_capture": [1.3, 1.66],
                "variant": "test-noisy"})
    assert render_report_json(rep) == (
        '{"axis_mean_cm":{"x":1.5,"y":2.0,"z":1e-17},'
        '"axis_p90_cm":{"x":3.0,"y":4.0,"z":0.0},'
        '"cdf_3d_cm":[0.5,2.5,12.0],'
        '"cdf_axis_cm":{"x":[0.0,1.5,3.0],"y":[0.0,2.0,4.0],"z":[0.0,0.0,0.0]},'
        '"config":{"heights_capture":[1.3,1.66],"study":"model-selection",'
        '"variant":"test-noisy"},'
        '"dropped_rows":4,"max_error_cm":12.0,"mean_3d_error_cm":0.30000000000000004,'
        '"n_rows":3,"p90_error_cm":2.5,'
        '"per_grid":[{"count":2,"grid_i":0,"grid_j":1,"height_m":1.3,"mean_error_cm":1.5},'
        '{"count":1,"grid_i":1,"grid_j":0,"height_m":1.66,"mean_error_cm":12.0}]}\n')


def test_report_emission_is_byte_stable(tmp_path):
    test = _toy_test_set()
    rep = evaluate(_Stub(test.targets + 0.01), test)
    assert render_report_json(rep) == render_report_json(rep)
    doc = json.loads(render_report_json(rep))
    assert doc["mean_3d_error_cm"] == rep.mean_3d_error_cm
    assert doc["per_grid"][0]["count"] == 2

    jpath = tmp_path / "report.json"
    write_report(jpath, rep)
    assert jpath.read_text().endswith("\n")

    cpath = tmp_path / "cdf.csv"
    write_cdf_csv(cpath, rep.cdf_3d_cm)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "error_cm,fraction"
    fracs = [float(l.split(",")[1]) for l in lines[1:]]
    assert fracs == sorted(fracs) and fracs[-1] == 1.0
    vals = [float(l.split(",")[0]) for l in lines[1:]]
    assert vals == sorted(vals)

    gpath = tmp_path / "grid.csv"
    write_grid_csv(gpath, rep.per_grid)
    glines = gpath.read_text().strip().splitlines()
    assert glines[0] == "height_m,grid_i,grid_j,mean_error_cm,count"
    assert len(glines) == 1 + len(rep.per_grid)

    spath = tmp_path / "grid.svg"
    write_grid_svg(spath, rep.per_grid, 1.3)
    svg = spath.read_text()
    assert svg.startswith("<svg") and svg.count("<rect") >= len(rep.per_grid)


def test_parse_config_file(tmp_path):
    p = tmp_path / "study.cfg"
    p.write_text(
        "# capture study at a reduced scale\n"
        "study = model-selection\n"
        "grid.extent_m = 0.4   # meters\n"
        "grid.spacing_m = 0.4\n"
        "capture.per_location = 4\n"
        "heights.capture = 1.3, 1.66\n"
        "models.kinds = forest, gbt\n"
        "\n"
    )
    raw = parse_config_file(p)
    assert raw["grid.extent_m"] == "0.4"
    cfg = build_study_config(raw)
    assert cfg.study == "model-selection"
    assert cfg.grid_extent_m == 0.4
    assert cfg.per_location == 4
    assert cfg.heights_capture == (1.3, 1.66)
    assert cfg.model_kinds == ("forest", "gbt")
    # overrides win over the file
    cfg2 = build_study_config(raw, per_location=9)
    assert cfg2.per_location == 9


def test_config_errors_name_the_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("study = model-selection\nstudy = again\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(p)
    p.write_text("just some words\n")
    with pytest.raises(ConfigError, match="not key=value"):
        parse_config_file(p)
    with pytest.raises(ConfigError, match="noise.bogus"):
        build_study_config({"study": "model-selection", "noise.bogus": "1"})
    with pytest.raises(ConfigError, match="expected an integer"):
        build_study_config({"study": "model-selection", "seed": "x"})
    with pytest.raises(ConfigError, match="unknown study"):
        build_study_config({"study": "nope"})
    with pytest.raises(ConfigError, match="missing"):
        build_study_config({})
    with pytest.raises(ConfigError, match="unknown model kind"):
        build_study_config({"study": "model-selection", "models.kinds": "svm"})


# config key -> (a raw value, the StudyConfig field value it parses to); every
# value differs from the field's default
_CONFIG_SAMPLES = {
    "study": ("sim-vs-capture", "sim-vs-capture"),
    "seed": ("7", 7),
    "grid.extent_m": ("0.4", 0.4),
    "grid.spacing_m": ("0.1", 0.1),
    "sweep.angle_step_deg": ("30", 30),
    "capture.per_location": ("3", 3),
    "capture.test_per_location": ("1", 1),
    "capture.yaw_limit_deg": ("5", 5.0),
    "capture.tilt_max_deg": ("8.5", 8.5),
    "noise.corner_jitter_px": ("0.5", 0.5),
    "noise.pixel_sigma": ("0.01", 0.01),
    "heights.capture": ("1.3, 1.5", (1.3, 1.5)),
    "heights.sweep_train": ("1.5", (1.5,)),
    "heights.test": ("1.4,1.45", (1.4, 1.45)),
    "models.kinds": ("gbt, forest", ("gbt", "forest")),
    "models.forest_trees": ("5", 5),
    "models.gbt_rounds": ("4", 4),
    "models.gbt_depth": ("3", 3),
    "models.gbt_lr": ("0.25", 0.25),
    "models.mlp_epochs": ("3", 3),
    "models.mlp_batch": ("16", 16),
}


def test_config_keys_match_study_config_fields():
    # one key per field, and every key names a field
    key_fields = [name for name, _ in studies_mod._KEYS.values()]
    field_names = list(StudyConfig.__dataclass_fields__)
    assert sorted(key_fields) == sorted(field_names)
    assert set(_CONFIG_SAMPLES) == set(studies_mod._KEYS)
    defaults = StudyConfig(study="model-selection")
    for key, (raw, want) in _CONFIG_SAMPLES.items():
        name = studies_mod._KEYS[key][0]
        assert getattr(defaults, name) != want, key
        cfg = build_study_config({"study": "model-selection", key: raw})
        got = getattr(cfg, name)
        assert got == want and type(got) is type(want), key
    # all together, the sim-vs-capture study fitting both its kinds
    cfg = build_study_config({k: raw for k, (raw, _) in _CONFIG_SAMPLES.items()})
    for key, (_, want) in _CONFIG_SAMPLES.items():
        assert getattr(cfg, studies_mod._KEYS[key][0]) == want, key


@pytest.mark.parametrize("fields, match", [
    ({"per_location": 2}, "test_per_location"),  # the default holds out 2
    ({"per_location": 3, "test_per_location": 0}, "test_per_location"),
    ({"model_kinds": ()}, "empty"),
    ({"model_kinds": ("gbt", "svm")}, "unknown model kind"),
    ({"forest_trees": 0}, "forest_trees"),
    ({"gbt_rounds": -1}, "gbt_rounds"),
    ({"gbt_depth": -1}, "gbt_depth"),
    ({"gbt_lr": 0.0}, "gbt_lr"),
    ({"mlp_epochs": -1}, "mlp_epochs"),
    ({"mlp_batch": 0}, "mlp_batch"),
    ({"corner_jitter_px": -0.5}, "corner_jitter_px"),
    ({"pixel_sigma": 2.0}, "pixel_sigma"),
    ({"study": "sim-vs-capture", "model_kinds": ("mlp",)}, "cannot fit"),
    ({"study": "height-generalization", "model_kinds": ("forest", "mlp")},
     "cannot fit"),
    ({"study": "height-generalization", "model_kinds": ("gbt", "gbt")}, "repeats"),
    # a study rejects a kind outside its set even when it could fit others
    ({"study": "sim-vs-capture", "model_kinds": ("gbt", "mlp")}, "cannot fit"),
    ({"study": "height-generalization", "model_kinds": ("tree", "gbt")}, "cannot fit"),
])
def test_study_config_rejects_what_a_run_would(fields, match):
    with pytest.raises(ValueError, match=match):
        StudyConfig(**{"study": "model-selection", **fields})


def test_every_model_kind_has_its_own_seed_slot():
    slots = studies_mod._SEED_SLOT
    assert set(MODEL_KINDS) < set(slots)
    # each of a study's eight seeds feeds at most one use: a fit, a capture
    # set or the split
    assert len(set(slots.values())) == len(slots)
    assert set(slots.values()) <= set(range(8))


def test_study_config_validation():
    with pytest.raises(ValueError, match="unknown study"):
        StudyConfig(study="bogus")
    # only model-selection splits its captures
    StudyConfig(study="sim-vs-capture", per_location=1)
    cfg = StudyConfig(study="model-selection")
    echo = cfg.echo()
    assert echo["study"] == "model-selection"
    assert echo["heights_capture"] == [1.3, 1.66]


@pytest.mark.parametrize("study, kinds", [
    ("model-selection", ["forest", "gbt", "mlp"]),
    ("sim-vs-capture", ["forest", "gbt"]),
    ("height-generalization", ["gbt"]),
])
def test_model_kinds_default_to_the_study_kinds(study, kinds):
    assert StudyConfig(study=study).echo()["model_kinds"] == kinds


def test_run_experiment_model_selection_micro(tmp_path):
    cfg = StudyConfig(
        study="model-selection", seed=3, grid_extent_m=0.4, grid_spacing_m=0.4,
        per_location=3, test_per_location=1, model_kinds=("tree", "gbt"),
        gbt_rounds=5, gbt_depth=4, mlp_epochs=1,
    )
    out = tmp_path / "out"
    reports = run_experiment(cfg, str(out))
    assert set(reports) == {"tree/test-clean", "tree/test-noisy",
                            "gbt/test-clean", "gbt/test-noisy"}
    for key, rep in reports.items():
        assert rep.n_rows == 8  # 4 locations x 2 heights x 1 test row
        assert rep.config["variant"] in key
    emitted = sorted(f.name for f in out.iterdir())
    assert "report_model-selection_gbt_test-clean.json" in emitted
    assert "cdf3d_model-selection_gbt_test-clean.csv" in emitted
    assert "heat_model-selection_gbt_test-clean_h1.3.svg" in emitted
    # micro scale is too sparse for accuracy; just require predictions to
    # stay inside the training hull (a full-cell miss is 40 cm here)
    assert reports["tree/test-clean"].mean_3d_error_cm < 45.0


_MICRO = dict(seed=3, grid_extent_m=0.4, grid_spacing_m=0.4, angle_step_deg=90,
              per_location=2, test_per_location=1, heights_capture=(1.3,),
              heights_sweep_train=(1.56,), heights_test=(1.23, 1.6),
              forest_trees=3, gbt_rounds=4, gbt_depth=3)


@pytest.mark.parametrize("study, heights", [
    ("model-selection", {f"{k}/{v}": (1.3,) for k in ("tree", "forest", "gbt")
                         for v in ("test-clean", "test-noisy")}),
    ("sim-vs-capture", {"forest/test-capture": (1.3,), "gbt/test-capture": (1.3,)}),
    ("height-generalization", {"gbt/test": (1.23, 1.6), "gbt/test-h1.23": (1.23,),
                               "gbt/test-h1.6": (1.6,)}),
], ids=["model-selection", "sim-vs-capture", "height-generalization"])
def test_run_experiment_every_study_micro(tmp_path, study, heights):
    """Each study's report keys, in order, and the files it writes; a rerun
    writes the same bytes."""
    kinds = tuple(dict.fromkeys(key.split("/")[0] for key in heights))
    cfg = StudyConfig(study=study, model_kinds=kinds, **_MICRO)
    reports = run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    assert list(reports) == list(heights)
    want = set()
    for key, hs in heights.items():
        name = f"{study}_{key.replace('/', '_')}"
        want |= {f"report_{name}.json", f"cdf3d_{name}.csv", f"grid_{name}.csv"}
        want |= {f"heat_{name}_h{h!r}.svg" for h in hs}
        rep = reports[key]
        assert rep.config["variant"] == key.split("/")[1]
        # only a whole capture set carries its dropped rows; a subset has none
        whole = key.endswith(("/test", "/test-capture"))
        assert rep.dropped_rows == (rep.config["capture_dropped"] if whole else 0)
    names = {f.name for f in (tmp_path / "a").iterdir()}
    assert names == want
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
