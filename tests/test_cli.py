"""End-to-end runs of the command line entry points at a micro scale:
capture -> train -> eval, simulate, encode -> extract -> decode, and the
error-to-exit-code contract."""

import subprocess
import sys

import numpy as np
import pytest

from vlp.cli import main
from vlp.render import Frame, FrameMeta, write_pgm


def test_capture_train_eval_flow(tmp_path, capsys):
    data = tmp_path / "train.csv"
    model = tmp_path / "model.json"
    report = tmp_path / "report.json"
    cdf = tmp_path / "cdf.csv"

    rc = main(["capture", "--out", str(data), "--heights", "1.3",
               "--extent", "0.4", "--spacing", "0.4", "--per-location", "3",
               "--jitter", "0", "--pixel-sigma", "0", "--seed", "1"])
    assert rc == 0
    assert "captured 12 rows" in capsys.readouterr().out

    rc = main(["train", "--data", str(data), "--kind", "tree",
               "--out", str(model), "--seed", "0"])
    assert rc == 0
    assert "trained tree on 12 rows" in capsys.readouterr().out

    rc = main(["eval", "--model", str(model), "--data", str(data),
               "--out", str(report), "--cdf", str(cdf)])
    assert rc == 0
    out = capsys.readouterr().out
    # an unpruned tree memorizes its own noise-free training rows
    assert "n=12 mean=0.000cm" in out
    assert report.exists() and cdf.exists()


def test_train_gbt_flags(tmp_path, capsys):
    data = tmp_path / "train.csv"
    main(["capture", "--out", str(data), "--heights", "1.3",
          "--extent", "0.4", "--spacing", "0.4", "--per-location", "2",
          "--jitter", "0", "--pixel-sigma", "0", "--seed", "2"])
    model = tmp_path / "gbt.json"
    rc = main(["train", "--data", str(data), "--kind", "gbt",
               "--out", str(model), "--rounds", "3",
               "--learning-rate", "0.5", "--max-depth", "3"])
    capsys.readouterr()
    assert rc == 0 and model.exists()


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["simulate", "--out", str(out), "--heights", "1.3",
               "--step", "90", "--extent", "0.4", "--spacing", "0.2"])
    assert rc == 0
    assert "retained" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# source=clean-sim"
    assert lines[1].startswith("x,y,z,roll")
    assert len(lines) > 3


def test_simulate_renders_frames(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rdir = tmp_path / "frames"
    rc = main(["simulate", "--out", str(out), "--heights", "1.3",
               "--step", "180", "--extent", "0.2", "--spacing", "0.2",
               "--render-dir", str(rdir), "--render-limit", "2"])
    assert rc == 0
    capsys.readouterr()
    pgms = sorted(rdir.glob("*.pgm"))
    assert len(pgms) == 2
    assert pgms[0].read_bytes().startswith(b"P5")


def test_encode_extract_decode_flow(tmp_path, capsys):
    pgm = tmp_path / "striped.pgm"
    rc = main(["codec", "encode", "--id", "0xB6", "--pgm", str(pgm),
               "--height", "1.3", "--phase", "13"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "id=0xB6" in out
    assert "levels=1101001101001101" in out

    rc = main(["extract", "--frame", str(pgm), "--striped"])
    assert rc == 0
    vals = [float(p) for p in capsys.readouterr().out.strip().split(",")]
    assert len(vals) == 8
    us, vs = np.array(vals[0::2]), np.array(vals[1::2])
    # h=1.3 nadir: half-side 1600*0.2975/1.3 = 366.15 px about the center.
    # The v extent may shrink where an off-stripe crosses a panel edge
    # (up to one 40-row off run per edge); u is stripe-immune.
    assert abs(us.max() - us.min() - 732.3) < 5.0
    assert 732.3 - 84.0 < vs.max() - vs.min() < 732.3 + 5.0

    db = tmp_path / "leds.csv"
    db.write_text("id,x,y,z\n0xB6,0.0,0.0,2.56\n")
    rc = main(["codec", "decode", "--frame", str(pgm), "--db", str(db)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidate id=" in out
    assert "matched id=0xB6" in out


def test_report_study_micro(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "study = model-selection\n"
        "seed = 3\n"
        "grid.extent_m = 0.4\n"
        "grid.spacing_m = 0.4\n"
        "capture.per_location = 3\n"
        "capture.test_per_location = 1\n"
        "models.kinds = tree\n"
    )
    out = tmp_path / "reports"
    rc = main(["report", "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "tree/test-clean:" in text and "tree/test-noisy:" in text
    assert (out / "report_model-selection_tree_test-clean.json").exists()


def test_vlp_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("study = model-selection\nnoise.bogus = 1\n")
    rc = main(["report", "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise.bogus" in err

    dark = tmp_path / "dark.pgm"
    write_pgm(Frame(np.zeros((40, 60), dtype=np.uint8), FrameMeta()), dark)
    rc = main(["extract", "--frame", str(dark)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    # malformed input files
    bad_pgm = tmp_path / "bad.pgm"
    bad_pgm.write_bytes(b"P5\n2 2\n255\n\x00")
    assert main(["extract", "--frame", str(bad_pgm)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "raster size mismatch" in err

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1.0,2.0,3.0\n")
    assert main(["train", "--data", str(bad_csv), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected 17 columns" in err

    pgm = tmp_path / "striped.pgm"
    assert main(["codec", "encode", "--id", "0xB6", "--pgm", str(pgm)]) == 0
    capsys.readouterr()
    bad_db = tmp_path / "leds.csv"
    bad_db.write_text("id,x,y,z\n0xZZ,0.0,0.0,2.56\n")
    assert main(["codec", "decode", "--frame", str(pgm), "--db", str(bad_db)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid literal" in err


@pytest.mark.parametrize("config, extra", [
    (b"study = model-selection\nseed = \xff\n", []),
    (b"study = model-selection\n", ["--per-location", "0"]),
    (b"study = model-selection\ngrid.spacing_m = 0.25\n", []),
], ids=["undecodable-byte", "per-location-0", "spacing-not-dividing-extent"])
def test_malformed_study_config_exits_2_before_any_output(tmp_path, capsys,
                                                          config, extra):
    cfg = tmp_path / "study.cfg"
    cfg.write_bytes(config)
    out = tmp_path / "reports"
    assert main(["report", "--out", str(out), "--config", str(cfg), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: config key")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["extract", "--frame", "missing.pgm"],
    ["eval", "--model", "missing.json", "--data", "missing.csv"],
])
def test_missing_input_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No such file" in err and "missing." in err


@pytest.mark.parametrize("text", [
    '{"format":"vlp-model/1","kind":"bogus","axes":{}}',
    '{"format":"vlp-model/1","kind":"gbt","axes":{"x":{"trees":[',
])
def test_eval_malformed_model_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["eval", "--model", str(bad), "--data", str(tmp_path / "d.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.json" in err


def test_argparse_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["train", "--data", "x.csv", "--kind", "svm", "--out", "m.json"])
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vlp.cli", "codec", "encode", "--id", "182"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "id=0xB6" in proc.stdout
