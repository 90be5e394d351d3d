"""Command-line pipeline: mask in, distance field, force field, automatic
initialization, contour evolution, metrics out.

Subcommands: run, batch, metrics, dt, learn, sweep. Exit codes: 0 on
success, 1 on computation failure, 2 on usage or I/O errors. All output
files are written atomically and contain no timestamps, so reruns with
identical inputs are byte-identical; wall-clock timing goes to stderr.

`batch` runs its manifest items one after another in manifest order; the
image column of a manifest only labels each report row and is never
read, and `--jobs` is accepted for compatibility but has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autoinit import circle_to_contour, circumscribed_circle, inscribed_circle
from .edt import mask_to_dt
from .fields import Circle, Contour, boundary_mask, rasterize
from .fileio import (atomic_write_text, read_mask_pgm, read_pfm, write_mask_pgm,
                     write_pfm, write_pgm)
from .flow import ForceField, dvf, energy_gradient_field, lcdvf
from .learning import INIT_MODES, fit_parameters
from .metrics import MetricsReport, evaluate
from .snake import EvolutionTrace, ParameterSet, SnakeConfig, evolve

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# both profiles inflate: the settled contour then rests a fraction of a
# pixel outside the distance-transform zero line, keeping the boundary
# ring of the mask covered (a deflating balloon parks inside the line and
# excludes every inner-boundary pixel center from the prediction)
PROFILES = {
    "building": {"nodes": 60, "iters": 50, "init": "circumscribed", "kappa": "0.2"},
    "medical": {"nodes": 100, "iters": 10, "init": "inscribed", "kappa": "0.2"},
}

BASE_DEFAULTS = {
    "field": "lcdvf",
    "tau": 0.1,
    "clip": 2.0,
    "alpha": 0.01,
    "beta": "0.1",
    "resample": False,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    mask_path: str
    gt_path: str | None = None
    profile: str = "building"
    field: str = "lcdvf"
    init: str = "circumscribed"
    iterations: int = 50
    tau: float = 0.1
    nodes: int = 60
    resample: bool = False
    clip: float = 2.0
    alpha: float = 0.01
    beta: str = "0.1"
    kappa: str = "0.2"
    out_dir: str | None = None
    dump_frames: str | None = None

    def snake_config(self) -> SnakeConfig:
        return SnakeConfig(iterations=self.iterations, time_step=self.tau,
                           node_count=self.nodes, resample_each_step=self.resample)


@dataclass
class RunResult:
    contour: Contour
    prediction: np.ndarray
    report: MetricsReport
    trace: EvolutionTrace
    mask: np.ndarray
    wall_ms: float


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    return value


def _json_line(obj) -> str:
    return json.dumps(_round6(obj), separators=(", ", ": "))


# settings a config file or a flag can give; a config file may also name the profile
_RUN_KEYS = ("mask", "gt", "field", "init", "iters", "tau", "nodes",
             "resample", "clip", "alpha", "beta", "kappa", "out", "dump_frames")
_CONFIG_FILE_KEYS = ("profile",) + _RUN_KEYS
# commands without --mask: learn fits --gt and batch takes each item's mask,
# so a config file's mask key would be read and then ignored
_MASKLESS_COMMANDS = ("learn", "batch")


def _parse_config_file(path: str) -> dict:
    settings = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FILE_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} "
                           f"(accepted: {', '.join(_CONFIG_FILE_KEYS)})")
        settings[key] = value
    return settings


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, value):
    if value is None:
        return None
    try:
        if key in ("iters", "nodes"):
            return int(value)
        if key in ("tau", "clip", "alpha"):
            return float(value)
    except ValueError as exc:
        raise CliError(f"bad value for {key}: {value!r}") from exc
    if key == "resample":
        if isinstance(value, bool):
            return value
        low = str(value).lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise CliError(f"bad boolean for resample: {value!r}")
    return value


def resolve_run_config(args) -> RunConfig:
    """Merge profile defaults, config file entries and explicit flags,
    in that precedence order (flags win)."""
    file_settings = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    if "mask" in file_settings and args.command in _MASKLESS_COMMANDS:
        raise CliError(f"{args.config}: key 'mask' is not accepted by {args.command}")
    profile = getattr(args, "profile", None) or file_settings.get("profile") or "building"
    if profile not in PROFILES:
        raise CliError(f"unknown profile {profile!r} (choose from {sorted(PROFILES)})")

    settings = dict(BASE_DEFAULTS)
    settings.update(PROFILES[profile])
    for key, value in file_settings.items():
        if key == "profile":
            continue
        settings[key] = _coerce(key, value)
    for key in _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            settings[key] = _coerce(key, value)

    mask_path = settings.get("mask")
    if not mask_path:
        raise CliError("a mask file is required (--mask)")
    try:
        cfg = RunConfig(
            mask_path=str(mask_path),
            gt_path=str(settings["gt"]) if settings.get("gt") else None,
            profile=profile,
            field=str(settings["field"]),
            init=str(settings["init"]),
            iterations=int(settings["iters"]),
            tau=float(settings["tau"]),
            nodes=int(settings["nodes"]),
            resample=bool(settings["resample"]),
            clip=float(settings["clip"]),
            alpha=float(settings["alpha"]),
            beta=str(settings["beta"]),
            kappa=str(settings["kappa"]),
            out_dir=str(settings["out"]) if settings.get("out") else None,
            dump_frames=str(settings["dump_frames"]) if settings.get("dump_frames") else None,
        )
        cfg.snake_config()  # rejects bad iterations, tau and nodes up front
        if not cfg.clip > 0.0:
            raise ValueError("clip must be positive (inf disables clipping)")
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad configuration value: {exc}") from exc
    return cfg


def _load_weight_map(spec: str, shape: tuple[int, int], name: str) -> np.ndarray:
    try:
        const = float(spec)
    except ValueError:
        try:
            field = read_pfm(spec)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load {name} map {spec!r}: {exc}") from exc
        if field.shape != shape:
            raise CliError(f"{name} map {spec!r} has shape {field.shape}, expected {shape}")
        return field
    return np.full(shape, const)


def _build_force(cfg: RunConfig, mask: np.ndarray) -> ForceField:
    if cfg.field == "lcdvf":
        return lcdvf(mask_to_dt(mask), cfg.clip)
    if cfg.field == "dvf":
        return dvf(mask_to_dt(mask), cfg.clip)
    if cfg.field.startswith("energy:"):
        path = cfg.field.split(":", 1)[1]
        try:
            energy = read_pfm(path)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load energy map {path!r}: {exc}") from exc
        if energy.shape != mask.shape:
            raise CliError(f"energy map {path!r} has shape {energy.shape}, "
                           f"expected {mask.shape}")
        return energy_gradient_field(energy, cfg.clip)
    raise CliError(f"unknown field kind {cfg.field!r} "
                   "(use lcdvf, dvf, or energy:<file.pfm>)")


def _build_init_circle(cfg: RunConfig, mask: np.ndarray) -> Circle:
    spec = cfg.init
    if spec == "inscribed":
        return inscribed_circle(mask)
    if spec == "circumscribed":
        return circumscribed_circle(mask)
    if spec.startswith("circle:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise CliError("circle init must be circle:<cu>,<cv>,<r>")
        try:
            cu, cv, r = (float(p) for p in parts)
            return Circle((cu, cv), r)
        except ValueError as exc:
            raise CliError(f"bad circle init {spec!r}: {exc}") from exc
    raise CliError(f"unknown init mode {spec!r} "
                   "(use inscribed, circumscribed, or circle:<cu>,<cv>,<r>)")


def run_pipeline(cfg: RunConfig) -> RunResult:
    started = time.perf_counter()
    # ingest everything up front so failures never leave partial outputs
    try:
        mask = read_mask_pgm(cfg.mask_path)
        gt = read_mask_pgm(cfg.gt_path) if cfg.gt_path else mask
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if gt.shape != mask.shape:
        raise CliError(f"ground-truth shape {gt.shape} does not match mask {mask.shape}")
    height, width = mask.shape
    beta = _load_weight_map(cfg.beta, (height, width), "beta")
    kappa = _load_weight_map(cfg.kappa, (height, width), "kappa")

    try:
        force = _build_force(cfg, mask)
        params = ParameterSet(alpha=cfg.alpha, beta=beta, kappa=kappa)
        config = cfg.snake_config()
        circle = _build_init_circle(cfg, mask)
        start = circle_to_contour(circle, cfg.nodes, width, height)
        final, trace = evolve(start, force, params, config)
        prediction = rasterize(final, width, height)
        report = evaluate(prediction, gt)
    except CliError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc), EXIT_COMPUTE) from exc
    wall_ms = (time.perf_counter() - started) * 1e3
    return RunResult(contour=final, prediction=prediction, report=report,
                     trace=trace, mask=mask, wall_ms=wall_ms)


def _contour_json(contour: Contour) -> str:
    nodes = [[_round6(float(u)), _round6(float(v))] for u, v in contour.nodes]
    return json.dumps({"nodes": nodes}) + "\n"


def _result_json(cfg: RunConfig, result: RunResult) -> str:
    payload = {
        "metrics": result.report.as_dict(),
        "trace": {
            "energies": [float(e) for e in result.trace.energies],
            "mean_displacements": [float(d) for d in result.trace.displacements],
        },
        "config": {
            "profile": cfg.profile,
            "field": cfg.field,
            "init": cfg.init,
            "iterations": cfg.iterations,
            "tau": cfg.tau,
            "nodes": cfg.nodes,
            "resample": cfg.resample,
            "clip": cfg.clip,
            "alpha": cfg.alpha,
        },
    }
    return json.dumps(_round6(payload), indent=2) + "\n"


def _render_frame(mask: np.ndarray, contour: Contour) -> np.ndarray:
    height, width = mask.shape
    img = np.where(mask, 96, 0).astype(np.uint8)
    region = rasterize(contour, width, height)
    img[region] = np.maximum(img[region], 160)
    img[boundary_mask(region)] = 255
    return img


def write_run_outputs(cfg: RunConfig, result: RunResult) -> None:
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_mask_pgm(out / "prediction.pgm", result.prediction)
        atomic_write_text(out / "contour.json", _contour_json(result.contour))
        atomic_write_text(out / "result.json", _result_json(cfg, result))
    if cfg.dump_frames:
        frames = Path(cfg.dump_frames)
        frames.mkdir(parents=True, exist_ok=True)
        for i, contour in enumerate(result.trace.contours):
            write_pgm(frames / f"frame_{i:04d}.pgm", _render_frame(result.mask, contour))
            atomic_write_text(frames / f"frame_{i:04d}.json", _contour_json(contour))


def _cmd_run(args) -> int:
    cfg = resolve_run_config(args)
    result = run_pipeline(cfg)
    write_run_outputs(cfg, result)
    print(_json_line(result.report.as_dict()))
    print(f"run completed in {result.wall_ms:.1f} ms", file=sys.stderr)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    try:
        pred = read_mask_pgm(args.pred)
        gt = read_mask_pgm(args.gt)
        report = evaluate(pred, gt)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if args.json:
        print(_json_line(report.as_dict()))
    else:
        per = " ".join(f"{v:.6f}" for v in report.boundf_per_threshold)
        print(f"iou {report.iou:.6f}  dice {report.dice:.6f}  "
              f"boundf {report.boundf:.6f}  per-threshold {per}")
    return EXIT_OK


def _cmd_dt(args) -> int:
    try:
        mask = read_mask_pgm(args.mask)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    try:
        field = mask_to_dt(mask)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_COMPUTE) from exc
    write_pfm(args.out, field)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_learn(args) -> int:
    if args.gt is None:
        raise CliError("learn requires a ground-truth mask (--gt)")
    if args.epochs < 1:
        raise CliError("epochs must be >= 1")
    if not (np.isfinite(args.lr) and args.lr > 0.0):
        raise CliError(f"lr must be finite and > 0, got {args.lr}")
    args.mask = args.gt  # the ground truth drives the force field
    cfg = resolve_run_config(args)
    try:
        gt = read_mask_pgm(cfg.mask_path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if cfg.init not in INIT_MODES:
        raise CliError(f"learn supports inscribed or circumscribed initialization only, "
                       f"got {cfg.init!r}")
    try:
        force = _build_force(cfg, gt)
        fit = fit_parameters(gt, force, cfg.snake_config(), learn_rate=args.lr,
                             epochs=args.epochs, init_mode=cfg.init)
    except CliError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc), EXIT_COMPUTE) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "alpha.json", json.dumps({"alpha": _round6(fit.params.alpha)}) + "\n")
    atomic_write_text(out / "history.json",
                      json.dumps({"iou_history": _round6(fit.iou_history)}) + "\n")
    write_pfm(out / "beta.pfm", fit.params.beta)
    write_pfm(out / "kappa.pfm", fit.params.kappa)
    print(_json_line({"baseline_iou": fit.baseline_iou, "best_iou": fit.best_iou,
                      "epochs": args.epochs}))
    return EXIT_OK


def _parse_manifest(path: str) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read manifest {path}: {exc}") from exc
    pairs = []
    base = Path(path).parent
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise CliError(f"{path}:{lineno}: expected '<image> <mask>', got {raw!r}")
        image, mask = ((p if Path(p).is_absolute() else str(base / p)) for p in parts)
        pairs.append((image, mask))
    if not pairs:
        raise CliError(f"manifest {path} lists no items")
    return pairs


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise CliError("jobs must be >= 1")
    args.mask = "<manifest>"  # placeholder; each item sets its own mask
    cfg_template = resolve_run_config(args)
    pairs = _parse_manifest(args.manifest)

    rows = []
    for index, (image, mask) in enumerate(pairs):
        cfg = replace(cfg_template, mask_path=mask, out_dir=None, dump_frames=None)
        row = {"index": index, "image": image, "mask": mask}
        try:
            result = run_pipeline(cfg)
        except CliError as exc:
            row["error"] = str(exc)
        else:
            row.update(iou=result.report.iou, dice=result.report.dice,
                       boundf=result.report.boundf)
        rows.append(row)

    successes = [r for r in rows if "error" not in r]
    aggregate = {
        "aggregate": True,
        "items": len(rows),
        "failed": len(rows) - len(successes),
        "miou": float(np.mean([r["iou"] for r in successes])) if successes else 0.0,
        "mean_dice": float(np.mean([r["dice"] for r in successes])) if successes else 0.0,
        "mean_boundf": float(np.mean([r["boundf"] for r in successes])) if successes else 0.0,
    }
    lines = [_json_line(r) for r in rows] + [_json_line(aggregate)]
    report_text = "\n".join(lines) + "\n"
    sys.stdout.write(report_text)
    if args.out:
        atomic_write_text(args.out, report_text)
    return EXIT_OK if aggregate["failed"] == 0 else EXIT_COMPUTE


_SWEEP_AXES = ("radius", "iterations", "field", "init")


def _cmd_sweep(args) -> int:
    if args.axis not in _SWEEP_AXES:
        raise CliError(f"unknown sweep axis {args.axis!r} (choose from {_SWEEP_AXES})")
    cfg = resolve_run_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise CliError("sweep needs at least one value")

    center = None
    if args.axis == "radius":
        try:
            mask = read_mask_pgm(cfg.mask_path)
            center = circumscribed_circle(mask).center
        except (OSError, ValueError) as exc:
            raise CliError(str(exc), EXIT_USAGE) from exc

    rows = ["axis_value,iou,dice,boundf,error"]
    for value in values:
        try:
            item = cfg
            if args.axis == "radius":
                radius = float(value)
                item = replace(cfg, init=f"circle:{center[0]},{center[1]},{radius}")
            elif args.axis == "iterations":
                item = replace(cfg, iterations=int(value))
            elif args.axis == "field":
                item = replace(cfg, field=value)
            else:
                item = replace(cfg, init=value)
            item = replace(item, out_dir=None, dump_frames=None)
            result = run_pipeline(item)
            rows.append(f"{value},{result.report.iou:.6f},{result.report.dice:.6f},"
                        f"{result.report.boundf:.6f},")
        except (CliError, ValueError) as exc:
            rows.append(f"{value},,,,{str(exc).replace(',', ';')}")
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.out:
        atomic_write_text(args.out, table)
    return EXIT_OK


def _add_run_options(parser: argparse.ArgumentParser, with_mask: bool = True) -> None:
    if with_mask:
        parser.add_argument("--mask", required=True, help="driving mask (PGM)")
        parser.add_argument("--gt", help="ground-truth mask (PGM); defaults to --mask")
    else:
        parser.add_argument("--gt", help="ground-truth mask (PGM)")
    parser.add_argument("--profile", choices=sorted(PROFILES))
    parser.add_argument("--field", help="lcdvf | dvf | energy:<file.pfm>")
    parser.add_argument("--init", help="inscribed | circumscribed | circle:<cu>,<cv>,<r>")
    parser.add_argument("--iters", type=int, help="evolution iterations")
    parser.add_argument("--tau", type=float, help="time step")
    parser.add_argument("--nodes", type=int, help="contour node count")
    parser.add_argument("--resample", action="store_true", default=None,
                        help="resample nodes to uniform arc length each step")
    parser.add_argument("--clip", type=float, help="force magnitude clip (inf disables)")
    parser.add_argument("--alpha", type=float, help="continuity weight")
    parser.add_argument("--beta", help="curvature weight: constant or file.pfm")
    parser.add_argument("--kappa", help="balloon weight: constant or file.pfm")
    parser.add_argument("--config", help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contourflow",
                                     description="distance-transform driven active contours")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="segment one mask and report metrics")
    _add_run_options(p_run)
    p_run.add_argument("--out", help="output directory (prediction.pgm, contour.json, result.json)")
    p_run.add_argument("--dump-frames", dest="dump_frames",
                       help="directory for per-iteration frame_%%04d.pgm/.json dumps")
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="score a prediction against a ground truth")
    p_metrics.add_argument("--pred", required=True)
    p_metrics.add_argument("--gt", required=True)
    p_metrics.add_argument("--json", action="store_true", help="emit a JSON object")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_dt = sub.add_parser("dt", help="distance transform of a mask boundary")
    p_dt.add_argument("--mask", required=True)
    p_dt.add_argument("--out", required=True, help="output PFM path")
    p_dt.set_defaults(func=_cmd_dt)

    p_learn = sub.add_parser("learn", help="fit parameter maps on one image")
    _add_run_options(p_learn, with_mask=False)
    p_learn.add_argument("--epochs", type=int, default=100)
    p_learn.add_argument("--lr", type=float, default=1e-3)
    p_learn.add_argument("--out", required=True, help="output directory for "
                         "alpha.json, beta.pfm, kappa.pfm, history.json")
    p_learn.set_defaults(func=_cmd_learn)

    p_batch = sub.add_parser("batch", help="run a manifest of (image, mask) pairs; "
                             "the image column only labels each row")
    _add_run_options(p_batch, with_mask=False)
    p_batch.add_argument("--manifest", required=True)
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility (must be >= 1); items always "
                         "run one at a time")
    p_batch.add_argument("--out", help="also write the JSONL report here")
    p_batch.set_defaults(func=_cmd_batch)

    p_sweep = sub.add_parser("sweep", help="rerun one config across an axis of values")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", help="also write the CSV table here")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return exc.code
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # keep stderr machine-readable on surprises
        print(json.dumps({"error": f"unexpected failure: {exc}"}), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
