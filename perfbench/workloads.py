"""The benchmark's workloads: seeded inputs, one CLI call per input, and
the checks on what each call wrote.

Each workload puts a different layer of the pipeline in charge:

* ``batch-small``: ``batch --profile building --jobs 2`` over a manifest
  of 64x64 masks. ``snake.evolve`` dominates (50 solver steps, 51 energy
  evaluations per image) and the two-thread pool contends on the GIL.
* ``run-large``: serial ``run --profile medical --out`` on 256x256
  blobs. Four exact EDTs and the boundary F-score take most of the time;
  it is the only workload that writes ``result.json`` with the energy
  trace.
* ``learn-64``: ``learn`` on each 64x64 suite fixture. Every epoch
  evolves on per-pixel ``beta``/``kappa`` maps that change between
  epochs, and discards the energies; EDT runs once per fit and the
  metrics module not at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from contourflow import shapes

INPUTS_JSON = "inputs.json"
MANIFEST = "manifest.txt"
OUT = Path("out")
AGGREGATE_TOLERANCE = 2e-6  # report values are rounded to six decimals


@dataclass
class Outcome:
    """One CLI call as the output checks judged it."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: list[dict] = field(default_factory=list)  # per image: iou, boundf

    def fail_all(self, message: str) -> "Outcome":
        self.failed = self.attempted
        self.errors.append(message)
        self.quality = []
        return self


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def last_json_line(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def encode_pgm(mask: np.ndarray) -> bytes:
    height, width = mask.shape
    return b"P5\n%d %d\n255\n" % (width, height) + np.where(mask, 255, 0).astype(np.uint8).tobytes()


def read_pgm(path) -> np.ndarray:
    """The binary PGMs the CLI writes: three header lines, then pixels."""
    magic, dims, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    if magic != b"P5" or int(maxval) > 255 or len(payload) != width * height:
        raise ValueError(f"{path}: not a {width}x{height} binary PGM")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def read_pfm(path) -> np.ndarray:
    """The single-channel PFMs the CLI writes: three header lines, then floats."""
    magic, dims, scale, payload = Path(path).read_bytes().split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    if magic != b"Pf" or len(payload) != 4 * width * height:
        raise ValueError(f"{path}: not a {width}x{height} single-channel PFM")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width)


class Workload:
    name = ""
    jobs = 1            # threads one CLI call may use
    epochs = 1          # evolve runs per image
    layer_unit = "image"

    def masks(self, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def pool(self, inputs: list[dict]) -> int:
        """Distinct CLI calls in one pass over the inputs."""
        return len(inputs)

    def images(self, inputs: list[dict]) -> int:
        """Images one CLI call processes."""
        return 1

    def argv(self, inputs: list[dict], pos: int) -> list[str]:
        raise NotImplementedError

    def output(self, inputs: list[dict], pos: int) -> Path:
        return OUT / inputs[pos]["name"]

    def check(self, main, inputs: list[dict], pos: int, code: int, stdout: str,
              first_pass: bool) -> Outcome:
        raise NotImplementedError


class BatchSmall(Workload):
    name = "batch-small"
    jobs = 2
    blobs = 7
    report = OUT / "report.jsonl"

    def masks(self, rng):
        fixtures = [(f.name, f.mask) for f in shapes.suite(64)]
        blobs = [(f"blob{i:02d}", shapes.random_blob_mask(rng, 64, 64)) for i in range(self.blobs)]
        return fixtures + blobs

    def pool(self, inputs):
        return 1

    def images(self, inputs):
        return len(inputs)

    def argv(self, inputs, pos):
        return ["batch", "--manifest", MANIFEST, "--profile", "building",
                "--jobs", str(self.jobs), "--out", str(self.report)]

    def output(self, inputs, pos):
        return self.report

    def check(self, main, inputs, pos, code, stdout, first_pass):
        outcome = Outcome(attempted=len(inputs))
        try:
            text = self.report.read_text(encoding="utf-8")
            records = [json.loads(line) for line in text.splitlines()]
            rows, aggregate = records[:-1], records[-1]
        except (OSError, ValueError, IndexError) as exc:
            return outcome.fail_all(f"unreadable report: {exc}")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if stdout != text:
            problems.append("stdout differs from the report file")
        if [(r.get("index"), r.get("mask")) for r in rows] != \
                [(i, item["path"]) for i, item in enumerate(inputs)]:
            problems.append("rows do not match the manifest one to one")
        ok = [r for r in rows if "error" not in r]
        if aggregate.get("aggregate") is not True or aggregate.get("items") != len(inputs) \
                or aggregate.get("failed") != len(rows) - len(ok):
            problems.append(f"bad aggregate counts: {aggregate}")
        for key, column in (("miou", "iou"), ("mean_dice", "dice"), ("mean_boundf", "boundf")):
            mean = sum(r[column] for r in ok) / len(ok) if ok else 0.0
            if not abs(aggregate.get(key, math.nan) - mean) <= AGGREGATE_TOLERANCE:
                problems.append(f"aggregate {key} {aggregate.get(key)} is not the row mean {mean}")
        if problems:
            return outcome.fail_all("; ".join(problems))
        outcome.failed = len(rows) - len(ok)
        outcome.errors = [f"{r['mask']}: {r['error']}" for r in rows if "error" in r]
        outcome.quality = [{"iou": r["iou"], "boundf": r["boundf"]} for r in ok]
        return outcome


class RunLarge(Workload):
    name = "run-large"
    blobs = 16

    def masks(self, rng):
        return [(f"blob{i:02d}", shapes.random_blob_mask(rng, 256, 256)) for i in range(self.blobs)]

    def argv(self, inputs, pos):
        return ["run", "--mask", inputs[pos]["path"], "--profile", "medical",
                "--out", str(self.output(inputs, pos))]

    def check(self, main, inputs, pos, code, stdout, first_pass):
        outcome = Outcome(attempted=1)
        item = inputs[pos]
        out = self.output(inputs, pos)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            result = json.loads((out / "result.json").read_text(encoding="utf-8"))
            entries = result["config"]["iterations"] + 1
            trace = result["trace"]
            if len(trace["energies"]) != entries or len(trace["mean_displacements"]) != entries:
                raise ValueError(f"trace does not have iterations + 1 = {entries} entries")
            shape = read_pgm(out / "prediction.pgm").shape
            if shape != (item["height"], item["width"]):
                raise ValueError(f"prediction.pgm is {shape}, the mask is "
                                 f"{(item['height'], item['width'])}")
            if last_json_line(stdout)["iou"] != result["metrics"]["iou"]:
                raise ValueError("stdout and result.json disagree on iou")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return outcome.fail_all(f"{item['path']}: {exc}")
        outcome.quality = [{"iou": result["metrics"]["iou"], "boundf": result["metrics"]["boundf"]}]
        return outcome


class Learn64(Workload):
    name = "learn-64"
    epochs = 20
    layer_unit = "epoch"

    def masks(self, rng):
        fixtures = shapes.suite(64)
        return [(fixtures[i].name, fixtures[i].mask) for i in rng.permutation(len(fixtures))]

    def argv(self, inputs, pos):
        return ["learn", "--gt", inputs[pos]["path"], "--epochs", str(self.epochs),
                "--out", str(self.output(inputs, pos))]

    def check(self, main, inputs, pos, code, stdout, first_pass):
        outcome = Outcome(attempted=1)
        item = inputs[pos]
        out = self.output(inputs, pos)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            alpha = json.loads((out / "alpha.json").read_text(encoding="utf-8"))["alpha"]
            if not (math.isfinite(alpha) and alpha >= 0.0):
                raise ValueError(f"alpha {alpha} is not finite and >= 0")
            for name in ("beta.pfm", "kappa.pfm"):
                values = read_pfm(out / name)
                if values.shape != (item["height"], item["width"]):
                    raise ValueError(f"{name} is {values.shape}, the mask is "
                                     f"{(item['height'], item['width'])}")
                if not np.isfinite(values).all():
                    raise ValueError(f"{name} has non-finite values")
            summary = last_json_line(stdout)
            if summary["epochs"] != self.epochs or not 0.0 <= summary["best_iou"] <= 1.0:
                raise ValueError(f"bad summary {summary}")
            if first_pass:
                # score the fitted maps the way a user applies them
                applied_code, applied, _ = call_cli(main, [
                    "run", "--mask", item["path"], "--alpha", repr(alpha),
                    "--beta", str(out / "beta.pfm"), "--kappa", str(out / "kappa.pfm")])
                if applied_code != 0:
                    raise ValueError(f"run with the fitted maps exited {applied_code}")
                outcome.quality = [{"iou": summary["best_iou"],
                                    "boundf": last_json_line(applied)["boundf"]}]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return outcome.fail_all(f"{item['path']}: {exc}")
        return outcome


WORKLOADS = {w.name: w for w in (BatchSmall(), RunLarge(), Learn64())}


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[dict]:
    """Generate the workload's masks from ``seed`` and write them as P5 PGMs,
    a manifest of ``<image> <mask>`` lines and an index with their sizes and
    foreground pixel counts."""
    rng = np.random.default_rng(seed)
    (directory / "inputs").mkdir(parents=True)
    inputs = []
    for name, mask in workload.masks(rng):
        path = f"inputs/{name}.pgm"
        (directory / path).write_bytes(encode_pgm(mask))
        inputs.append({"name": name, "path": path, "height": mask.shape[0],
                       "width": mask.shape[1], "foreground": int(mask.sum())})
    (directory / MANIFEST).write_text("".join(f"{i['path']} {i['path']}\n" for i in inputs),
                                      encoding="utf-8")
    (directory / INPUTS_JSON).write_text(json.dumps({"seed": seed, "inputs": inputs}),
                                         encoding="utf-8")
    return inputs


def clear_output(path: Path) -> None:
    """Remove an earlier call's output so a check never reads stale files."""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
