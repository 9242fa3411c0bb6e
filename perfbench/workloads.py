"""The benchmark's three workloads: one closed-loop caller each.

Every workload has the same shape: ``setup(k)`` builds what a request
needs (the runner repeats it and reports the median), ``request(i)`` is
one timed unit of work, ``summarize(i, raw)`` turns its result into a
checkable record outside the timed region, and ``verify(outputs)`` lists
what is wrong with the records. The workload seed reaches the toolkit
only as generated inputs: study seeds, poses, ids, phases and fit seeds.

The toolkit is called through module attributes (``render.rasterize_panel``
rather than an imported name) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from vlp import codec, geometry, render, vision
from vlp.errors import BehindCamera, VlpError
from vlp.geometry import Attitude, CameraIntrinsics, LedPanel, Pose, Vec3
from vlp.harness import StudyConfig, run_experiment
from vlp.harness import sweep as sweep_mod
from vlp.learn import model as learn_model

# criterion 1 decodes at these camera-to-panel distances
FIX_HEIGHTS = (1.23, 1.3, 1.6, 1.66)
CORNER_JITTER_PX = 1.0
PIXEL_SIGMA_GRAY = 0.02 * 255.0
# A plain frame's corners sit within a few sigma of the 1 px corner jitter.
PLAIN_CORNER_BOUND_PX = 6.0


def merged_corner_bound_px(intr: CameraIntrinsics) -> float:
    """A striped frame's top or bottom rows can fall in a dark stripe that
    closing cannot recover, so its corners may move by up to one dark run
    (two half-bits of rows) on top of the plain bound."""
    dark_run_rows = (1e6 / codec.DEFAULT_BIT_RATE_HZ) / intr.row_readout_us
    return dark_run_rows + PLAIN_CORNER_BOUND_PX


def _tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -- study ------------------------------------------------------------------

@dataclass(frozen=True)
class StudyScale:
    """A model-selection study small enough to repeat within one run."""

    heights: tuple[float, ...] = (1.3, 1.66)
    per_location: int = 3
    forest_trees: int = 10
    gbt_rounds: int = 20
    gbt_depth: int = 6
    mlp_epochs: int = 4
    setups: int = 3


class StudyWorkload:
    """``vlp report`` traffic: one request runs the model-selection study
    and writes its report tree. Set-up is what the command pays before
    the study starts: a fresh interpreter importing the toolkit."""

    name = "study"
    request_unit = "studies"

    def __init__(self, seed: int, root: str, work: str, scale: StudyScale = StudyScale()):
        self.scale = scale
        self.root = root
        self.work = work
        self.cfg = StudyConfig(
            study="model-selection", seed=seed,
            grid_extent_m=0.4, grid_spacing_m=0.4,
            per_location=scale.per_location, test_per_location=1,
            heights_capture=scale.heights, forest_trees=scale.forest_trees,
            gbt_rounds=scale.gbt_rounds, gbt_depth=scale.gbt_depth,
            mlp_epochs=scale.mlp_epochs)
        self.setups = scale.setups
        self.min_requests = 2
        self.traced_requests = 2

    def setup(self, k: int) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        subprocess.run([sys.executable, "-c", "import vlp.cli"], cwd=self.root,
                       env=env, check=True, timeout=60)

    def request(self, i: int):
        out_dir = os.path.join(self.work, f"study-{i}")
        return out_dir, run_experiment(self.cfg, out_dir)

    def summarize(self, i: int, raw) -> dict:
        out_dir, reports = raw
        digest = _tree_digest(out_dir)
        shutil.rmtree(out_dir)
        noisy = reports["gbt/test-noisy"]
        rows = noisy.config["train_rows"] + noisy.n_rows
        dropped = noisy.config["capture_dropped"]
        return {"digest": digest, "mean_3d_cm": noisy.mean_3d_error_cm,
                "attempted": rows + dropped, "failed": dropped}

    def verify(self, outputs: list[dict]) -> list[str]:
        first = outputs[0]
        problems = []
        for k, out in enumerate(outputs[1:], 1):
            if out["digest"] != first["digest"]:
                problems.append(f"study {k}: report tree differs from study 0")
            if out["mean_3d_cm"] != first["mean_3d_cm"]:
                problems.append(f"study {k}: mean_3d_cm {out['mean_3d_cm']!r} "
                                f"!= {first['mean_3d_cm']!r}")
        return problems

    def mean_3d_cm(self, outputs: list[dict]) -> float:
        return outputs[0]["mean_3d_cm"]


# -- fix --------------------------------------------------------------------

@dataclass(frozen=True)
class FixScale:
    """Three set-ups of 12 frame pairs: 72 frames of 4 MB, about 290 MB,
    well past a server's last-level cache (105 MB on the Xeon the first
    baseline was measured on)."""

    pairs_per_setup: int = 12
    model_rounds: int = 8
    model_depth: int = 6
    setups: int = 3
    min_requests: int = 100


def rotation_class_ids() -> list[int]:
    """One id per cyclic-rotation class of 8-bit patterns (36 classes),
    the largest set of ids a deployment can tell apart."""
    reps = {min(codec.rotations(codec.id_bits(i))) for i in range(256)}
    return sorted(codec.bits_value(bits) for bits in reps)


class FixWorkload:
    """The on-device positioning fix. A request takes one pre-rendered
    frame pair: corners from the plain frame give the position through
    the model, corners from the striped frame frame the row profile that
    decodes the LED id. Set-up fits the model, builds the database and
    renders one shard of the frame pool; shards accumulate."""

    name = "fix"
    request_unit = "fixes"

    def __init__(self, seed: int, root: str, work: str, scale: FixScale = FixScale()):
        self.seed = seed
        self.scale = scale
        self.setups = scale.setups
        self.min_requests = scale.min_requests
        # one pass over the whole pool
        self.traced_requests = scale.setups * scale.pairs_per_setup
        self.intr = CameraIntrinsics()
        self.panel = LedPanel()
        self.merge = codec.stripe_merge_radius(self.intr)
        self.ids = rotation_class_ids()
        self.pool: list[dict] = []
        self.model = None
        self.db = None

    def _poses(self) -> dict[float, list[Pose]]:
        """Criterion 1's poses: nadir grid points with the panel in frame."""
        coords = sweep_mod.GridSpec(1.2, 0.2).coordinates()
        poses: dict[float, list[Pose]] = {h: [] for h in FIX_HEIGHTS}
        for h in FIX_HEIGHTS:
            for x in coords:
                for y in coords:
                    pose = Pose(Vec3(float(x), float(y), h), Attitude())
                    try:
                        quad = geometry.project_panel_corners(self.intr, pose, self.panel)
                    except BehindCamera:
                        continue
                    if geometry.in_fov(quad, self.intr):
                        poses[h].append(pose)
        return poses

    def setup(self, k: int) -> None:
        sweep = sweep_mod.generate_sweep(sweep_mod.SweepSpec(FIX_HEIGHTS),
                                         self.intr, self.panel)
        self.model = learn_model.fit_position_model(
            sweep.features, sweep.targets, "gbt", seed=self.seed,
            rounds=self.scale.model_rounds, max_depth=self.scale.model_depth)
        self.db = codec.LedDatabase(
            [codec.LedRecord(i, Vec3(0.0, 0.0, 2.56)) for i in self.ids])
        poses = self._poses()
        # Poses are fixed, spread evenly over each height's list, so the
        # seed moves ids, phases and noise but not the mix of panel sizes
        # that sets how long a fix takes.
        per_height = -(-self.scale.pairs_per_setup // len(FIX_HEIGHTS))
        slots = per_height * self.setups
        for p in range(self.scale.pairs_per_setup):
            rng = np.random.default_rng([self.seed, k, p])
            height = FIX_HEIGHTS[p % len(FIX_HEIGHTS)]
            slot = k * per_height + p // len(FIX_HEIGHTS)
            candidates = poses[height]
            pose = candidates[(2 * slot + 1) * len(candidates) // (2 * slots)]
            led = self.ids[int(rng.integers(len(self.ids)))]
            wave = codec.dm_encode(led)
            base = render.rasterize_panel(
                self.intr, pose, self.panel,
                render.base_brightness(pose, self.panel, self.intr))
            plain = render.add_capture_noise(base, CORNER_JITTER_PX,
                                             PIXEL_SIGMA_GRAY, rng)
            striped = render.apply_rolling_shutter(
                base, base.quad, wave, phase_us=float(rng.uniform(0.0, wave.period_us)))
            striped = render.add_capture_noise(striped, CORNER_JITTER_PX,
                                               PIXEL_SIGMA_GRAY, rng)
            self.pool.append({
                "pose": pose, "id": led, "plain": plain, "striped": striped,
                "truth": geometry.project_panel_corners(self.intr, pose, self.panel),
            })

    def request(self, i: int):
        pair = self.pool[i % len(self.pool)]
        try:
            corners = vision.extract_corners(pair["plain"])
            position = self.model.predict(corners.points.reshape(1, 8))[0]
            framed = vision.extract_corners(pair["striped"], merge_radius=self.merge)
            profile = codec.extract_row_profile(pair["striped"], framed)
            candidates = codec.dm_decode(profile, self.intr.row_readout_us,
                                         self.intr.exposure_us)
            record = codec.match_id(candidates, self.db)
        except VlpError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"corners": corners.points, "framed": framed.points,
                "position": position, "id": record.id}

    def summarize(self, i: int, raw: dict) -> dict:
        pair = self.pool[i % len(self.pool)]
        out = {"pair": i % len(self.pool), "attempted": 1}
        if "error" in raw:
            return dict(out, failed=1, error=raw["error"])
        truth = pair["truth"].points
        wrong = raw["id"] != pair["id"]
        return dict(
            out, failed=int(wrong), id=raw["id"], want=pair["id"],
            plain_err_px=float(np.abs(raw["corners"] - truth).max()),
            framed_err_px=float(np.abs(raw["framed"] - truth).max()),
            error_cm=float(100.0 * np.linalg.norm(
                raw["position"] - pair["pose"].position.as_array())),
            key=(raw["corners"].tobytes(), raw["framed"].tobytes(),
                 raw["position"].tobytes(), raw["id"]))

    def verify(self, outputs: list[dict]) -> list[str]:
        problems = []
        bound = merged_corner_bound_px(self.intr)
        first: dict[int, tuple] = {}
        for k, out in enumerate(outputs):
            if "error" in out:
                problems.append(f"fix {k}: {out['error']}")
                continue
            if out["failed"]:
                problems.append(f"fix {k}: decoded id {out['id']}, want {out['want']}")
            if out["plain_err_px"] > PLAIN_CORNER_BOUND_PX:
                problems.append(f"fix {k}: plain corner error {out['plain_err_px']:.2f} px "
                                f"> {PLAIN_CORNER_BOUND_PX} px")
            if out["framed_err_px"] > bound:
                problems.append(f"fix {k}: striped corner error "
                                f"{out['framed_err_px']:.2f} px > {bound} px")
            if first.setdefault(out["pair"], out["key"]) != out["key"]:
                problems.append(f"fix {k}: pair {out['pair']} gave a different result")
        return problems

    def mean_3d_cm(self, outputs: list[dict]) -> float:
        errs = [o["error_cm"] for o in outputs if "error_cm" in o]
        return float(np.mean(errs)) if errs else 0.0


# -- train ------------------------------------------------------------------

@dataclass(frozen=True)
class TrainScale:
    """The sim-vs-capture training set with fewer rounds, trees and epochs."""

    heights: tuple[float, ...] = (1.3, 1.66)
    grid_extent_m: float = 1.2
    grid_spacing_m: float = 0.2
    gbt_rounds: int = 16
    gbt_depth: int = 8
    forest_trees: int = 6
    mlp_epochs: int = 2
    predict_repeats: int = 3
    setups: int = 9

    def fits(self):
        return (("gbt", {"rounds": self.gbt_rounds, "max_depth": self.gbt_depth}),
                ("forest", {"n_trees": self.forest_trees}),
                ("mlp", {"epochs": self.mlp_epochs}))


class TrainWorkload:
    """Model training: one request fits gbt, forest and mlp on the lattice
    sweep and batch-predicts the sweep with each. Set-up builds the sweep."""

    name = "train"
    request_unit = "training passes"

    def __init__(self, seed: int, root: str, work: str, scale: TrainScale = TrainScale()):
        self.seed = seed
        self.work = work
        self.scale = scale
        self.setups = scale.setups
        self.min_requests = 2
        self.traced_requests = 2
        self.data = None

    def setup(self, k: int) -> None:
        spec = sweep_mod.SweepSpec(
            self.scale.heights,
            grid=sweep_mod.GridSpec(self.scale.grid_extent_m, self.scale.grid_spacing_m))
        self.data = sweep_mod.generate_sweep(spec, CameraIntrinsics(), LedPanel())

    def request(self, i: int):
        x, y = self.data.features, self.data.targets
        models = {kind: learn_model.fit_position_model(x, y, kind, seed=self.seed, **params)
                  for kind, params in self.scale.fits()}
        preds = {}
        for kind, model in models.items():
            for _ in range(self.scale.predict_repeats):
                preds[kind] = model.predict(x)
        return models, preds

    def summarize(self, i: int, raw) -> dict:
        models, preds = raw
        reloaded_ok = {}
        for kind, model in models.items():
            path = os.path.join(self.work, f"model-{kind}.json")
            learn_model.save_model(model, path)
            again = learn_model.load_model(path).predict(self.data.features)
            os.remove(path)
            reloaded_ok[kind] = np.array_equal(again, preds[kind])
        err = 100.0 * np.linalg.norm(preds["gbt"] - self.data.targets, axis=1)
        return {"attempted": len(models), "failed": 0, "reloaded_ok": reloaded_ok,
                "key": {k: p.tobytes() for k, p in preds.items()},
                "mean_3d_cm": float(err.mean())}

    def verify(self, outputs: list[dict]) -> list[str]:
        problems = []
        for k, out in enumerate(outputs):
            for kind, ok in out["reloaded_ok"].items():
                if not ok:
                    problems.append(f"pass {k}: {kind} predictions change after "
                                    "save_model/load_model")
            for kind, key in out["key"].items():
                if key != outputs[0]["key"][kind]:
                    problems.append(f"pass {k}: {kind} predictions differ from pass 0")
        return problems

    def mean_3d_cm(self, outputs: list[dict]) -> float:
        return outputs[0]["mean_3d_cm"]


WORKLOADS = {"study": StudyWorkload, "fix": FixWorkload, "train": TrainWorkload}
