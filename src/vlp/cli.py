"""Command-line interface: dataset generation, feature extraction, model
training and evaluation, waveform encode/decode, and the canned studies."""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from .codec import (DEFAULT_BIT_RATE_HZ, LedDatabase, bits_value, dm_decode, dm_encode,
                    extract_row_profile, match_id, stripe_merge_radius)
from .errors import VlpError
from .geometry import Attitude, CameraIntrinsics, LedPanel, Pose, Vec3
from .harness import (STUDIES, CaptureSpec, Dataset, GridSpec, StudyConfig,
                      SweepSpec, build_study_config, evaluate, generate_capture_set,
                      generate_sweep, parse_config_file, run_experiment,
                      write_cdf_csv, write_grid_csv, write_report)
from .learn import (MODEL_KINDS, fit_forest, fit_gbt, fit_mlp, fit_position_model,
                    fit_tree, load_model, save_model)
from .render import (apply_rolling_shutter, base_brightness, rasterize_panel,
                     read_pgm, write_pgm)
from .vision import extract_corners


def _heights(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _given(args, *targets) -> dict:
    """The parsed flags that name a parameter of one of targets. A flag for a
    spec field or a fitter keyword has no parser default, so when it is left
    out it is absent here and the target's own default applies."""
    names = set().union(*(inspect.signature(t).parameters for t in targets))
    return {k: v for k, v in vars(args).items() if k in names}


def _cmd_simulate(args) -> int:
    spec = SweepSpec(grid=GridSpec(**_given(args, GridSpec)), **_given(args, SweepSpec))
    intr, panel = CameraIntrinsics(), LedPanel()
    ds = generate_sweep(spec, intr, panel)
    ds.to_csv(args.out)
    print(f"retained {len(ds)} poses -> {args.out}")
    if args.render_dir:
        os.makedirs(args.render_dir, exist_ok=True)
        limit = len(ds) if args.render_limit is None else min(args.render_limit, len(ds))
        for k in range(limit):
            pose = Pose(Vec3(*ds.targets[k]), Attitude(*ds.attitude[k]))
            frame = rasterize_panel(intr, pose, panel,
                                    base_brightness(pose, panel, intr))
            write_pgm(frame, os.path.join(args.render_dir, f"frame_{k:05d}.pgm"))
        print(f"rendered {limit} frames -> {args.render_dir}")
    return 0


def _cmd_capture(args) -> int:
    spec = CaptureSpec(grid=GridSpec(**_given(args, GridSpec)),
                       **_given(args, CaptureSpec))
    ds = generate_capture_set(spec)
    ds.to_csv(args.out)
    print(f"captured {len(ds)} rows ({ds.dropped} dropped) -> {args.out}")
    return 0


def _cmd_extract(args) -> int:
    frame = read_pgm(args.frame)
    radius = stripe_merge_radius(frame.meta) if args.striped else 0
    corners = extract_corners(frame, merge_radius=radius)
    print(",".join(repr(float(v)) for v in corners.points.reshape(8)))
    return 0


def _cmd_train(args) -> int:
    ds = Dataset.from_csv(args.data)
    # kind, seed and the fitter keywords given; fit_position_model rejects
    # a keyword that the kind's fitter does not take
    model = fit_position_model(ds.features, ds.targets, **_given(
        args, fit_position_model, fit_tree, fit_forest, fit_gbt, fit_mlp))
    save_model(model, args.out)
    print(f"trained {model.kind} on {len(ds)} rows -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = Dataset.from_csv(args.data)
    report = evaluate(model, ds, config={"model": args.model, "data": args.data})
    if args.out:
        write_report(args.out, report)
    if args.cdf:
        write_cdf_csv(args.cdf, report.cdf_3d_cm)
    if args.grid_csv:
        write_grid_csv(args.grid_csv, report.per_grid)
    print(f"n={report.n_rows} mean={report.mean_3d_error_cm:.3f}cm "
          f"p90={report.p90_error_cm:.3f}cm max={report.max_error_cm:.3f}cm")
    return 0


def _cmd_codec_encode(args) -> int:
    led_id = int(args.id, 0)
    w = dm_encode(led_id, bit_rate_hz=args.bit_rate)
    print(f"id=0x{led_id:02X} levels={''.join(str(v) for v in w.levels)} "
          f"level_duration_us={w.level_duration_us!r}")
    if args.pgm:
        intr, panel = CameraIntrinsics(), LedPanel()
        pose = Pose(Vec3(0.0, 0.0, args.height), Attitude(0.0, 0.0, 0.0))
        frame = rasterize_panel(intr, pose, panel,
                                base_brightness(pose, panel, intr))
        frame = apply_rolling_shutter(frame, frame.quad, w,
                                      **_given(args, apply_rolling_shutter))
        write_pgm(frame, args.pgm)
        print(f"striped frame -> {args.pgm}")
    return 0


def _cmd_codec_decode(args) -> int:
    frame = read_pgm(args.frame)
    radius = stripe_merge_radius(frame.meta, bit_rate_hz=args.bit_rate)
    corners = extract_corners(frame, merge_radius=radius)
    profile = extract_row_profile(frame, corners)
    candidates = dm_decode(profile, frame.meta.row_readout_us,
                           frame.meta.exposure_us, bit_rate_hz=args.bit_rate)
    for bits in candidates:
        print(f"candidate id=0x{bits_value(bits):02X} bits={''.join(map(str, bits))}")
    if args.db:
        db = LedDatabase.from_csv(args.db)
        rec = match_id(candidates, db)
        print(f"matched id=0x{rec.id:02X} "
              f"world=({rec.world_position.x!r},{rec.world_position.y!r},"
              f"{rec.world_position.z!r})")
    return 0


def _cmd_report(args) -> int:
    raw = parse_config_file(args.config) if args.config else {}
    cfg = build_study_config(raw, **_given(args, StudyConfig))
    reports = run_experiment(cfg, args.out)
    for key in sorted(reports):
        r = reports[key]
        print(f"{key}: n={r.n_rows} mean={r.mean_3d_error_cm:.3f}cm "
              f"p90={r.p90_error_cm:.3f}cm max={r.max_error_cm:.3f}cm")
    print(f"reports -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vlp",
                                description="LED-panel visible light positioning toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # In these commands a flag with no default here names a spec field or a
    # fitter keyword (its dest); left out, it takes the spec's or fitter's
    # own default.
    param_flags = dict(argument_default=argparse.SUPPRESS)

    s = sub.add_parser("simulate", help="exhaustive pose sweep to a features CSV",
                       **param_flags)
    s.add_argument("--out", required=True)
    s.add_argument("--heights", dest="heights_m", type=_heights,
                   default=StudyConfig.heights_capture, help="comma list, meters")
    s.add_argument("--step", dest="angle_step_deg", type=int,
                   help="attitude step, degrees")
    s.add_argument("--extent", dest="extent_m", type=float)
    s.add_argument("--spacing", dest="spacing_m", type=float)
    s.add_argument("--render-dir", default=None, help="also write PGM frames here")
    s.add_argument("--render-limit", type=int, default=None)
    s.set_defaults(fn=_cmd_simulate)

    s = sub.add_parser("capture", help="randomized noisy capture set to a features CSV",
                       **param_flags)
    s.add_argument("--out", required=True)
    s.add_argument("--heights", dest="heights_m", type=_heights,
                   default=StudyConfig.heights_capture)
    s.add_argument("--per-location", type=int)
    s.add_argument("--extent", dest="extent_m", type=float)
    s.add_argument("--spacing", dest="spacing_m", type=float)
    s.add_argument("--jitter", dest="corner_jitter_px", type=float,
                   help="corner jitter sigma, px")
    s.add_argument("--pixel-sigma", type=float,
                   help="pixel noise sigma, fraction of full scale")
    s.add_argument("--yaw-limit", dest="yaw_limit_deg", type=float,
                   help="boresight yaw dither, degrees")
    s.add_argument("--tilt-max", dest="tilt_max_deg", type=float,
                   help="aim wobble ceiling, degrees")
    s.add_argument("--seed", type=int)
    s.set_defaults(fn=_cmd_capture)

    s = sub.add_parser("extract", help="corner features from one PGM frame")
    s.add_argument("--frame", required=True)
    s.add_argument("--striped", action="store_true",
                   help="close modulation stripes before detection")
    s.set_defaults(fn=_cmd_extract)

    s = sub.add_parser("train", help="fit a position model from a features CSV",
                       **param_flags)
    s.add_argument("--data", required=True)
    s.add_argument("--kind", choices=MODEL_KINDS)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trees", dest="n_trees", type=int)
    s.add_argument("--rounds", type=int)
    s.add_argument("--learning-rate", type=float)
    s.add_argument("--max-depth", type=int)
    s.add_argument("--epochs", type=int)
    s.add_argument("--batch", dest="batch_size", type=int)
    s.set_defaults(fn=_cmd_train)

    s = sub.add_parser("eval", help="evaluate a model on a features CSV")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", default=None, help="report JSON path")
    s.add_argument("--cdf", default=None, help="3D error CDF CSV path")
    s.add_argument("--grid-csv", default=None)
    s.set_defaults(fn=_cmd_eval)

    c = sub.add_parser("codec", help="waveform encode/decode")
    csub = c.add_subparsers(dest="codec_command", required=True)
    s = csub.add_parser("encode", help="LED id to its blink waveform")
    s.add_argument("--id", required=True, help="LED id, e.g. 0xB6 or 182")
    s.add_argument("--bit-rate", type=float, default=DEFAULT_BIT_RATE_HZ)
    s.add_argument("--pgm", default=None, help="also render a striped frame")
    s.add_argument("--height", type=float, default=1.3)
    s.add_argument("--phase", dest="phase_us", type=float, default=argparse.SUPPRESS)
    s.set_defaults(fn=_cmd_codec_encode)
    s = csub.add_parser("decode", help="recover the id from a striped PGM frame")
    s.add_argument("--frame", required=True)
    s.add_argument("--bit-rate", type=float, default=DEFAULT_BIT_RATE_HZ)
    s.add_argument("--db", default=None, help="luminaire CSV: id,x,y,z")
    s.set_defaults(fn=_cmd_codec_decode)

    s = sub.add_parser("report", help="run a canned study and write its reports",
                       **param_flags)
    s.add_argument("--out", required=True)
    s.add_argument("--study", choices=STUDIES)
    s.add_argument("--config", default=None, help="key=value config file")
    s.add_argument("--seed", type=int)
    s.add_argument("--per-location", type=int)
    s.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (VlpError, OSError, ValueError) as exc:
        # OSError: a missing or unreadable path; ValueError: a flag value
        # that a spec, fitter or id check rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
