"""Command-line pipeline: mask in, distance field, force field, automatic
initialization, contour evolution, metrics out.

Subcommands: run, batch, metrics, dt, learn, sweep. Exit codes: 0 on
success, 1 on computation failure, 2 on usage or I/O errors. One rule
maps a failure to its code, through ``_failing``: reading inputs and
writing outputs fail with 2, computing fails with 1. All output files
are written atomically and contain no timestamps, so reruns with
identical inputs are byte-identical; wall-clock timing goes to stderr,
for `run`, `batch` and `sweep` as one JSON line of milliseconds per
pipeline stage.

`run`, `sweep`, `batch` and `learn` each read the settings that
``COMMAND_SETTINGS`` lists for them, as flags and ``--config`` keys
built from ``SETTINGS``; ``RunConfig`` holds the only defaults, and a
profile, the config file and the flags override them in that order.
``_load`` then checks them and loads, once, what does not depend on the
mask (weights and their PFM maps, the field, the init), so a bad setting
or sweep axis value exits 2 before any mask is read.

Every command reads its masks through ``prepare``, the one check that a
ground truth has its mask's shape (`metrics` too: a mismatch exits 2).
`run`, `batch` and `sweep` share one pipeline, ``run_pipeline``, over a
group of items of one mask shape; every value is the one the item gets
alone, and only `run`, a group of one, keeps every step and an energy
trace. A group whose forces come from its masks builds its EDTs and
forces on a box of the frame (``_group_box``) and falls back to the
frame the first time a contour leaves it; `learn` and `dt` always use
the frame.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import blas
from .autoinit import circle_to_contour, circumscribed_circle, inscribed_circle
from .edt import edt_from_sites, mask_to_dt
from .fields import Box, Circle, Contour, boundary_mask, bounding_box, corner_box, rasterize
from .fileio import (atomic_write_text, read_mask_pgm, read_pfm, write_mask_pgm,
                     write_pfm, write_pgm)
from .flow import ForceField, dvf, energy_gradient_field, lcdvf
from .learning import fit_parameters
from .metrics import MetricsReport, evaluate
from .snake import EvolutionTrace, LeftBox, ParameterSet, SnakeConfig, evolve

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# a group's force-field stack holds at most the field of one 256² run, and
# its stack of (nodes, nodes) systems at most as many entries
GROUP_PIXELS = 1 << 16

# a group's mask forces are built on its foreground and known starts widened
# by this many pixels, and one more for the gradient stencil
BOX_MARGIN = 8

# both profiles inflate: the settled contour then rests a fraction of a
# pixel outside the distance-transform zero line, keeping the boundary
# ring of the mask covered (a deflating balloon parks inside the line and
# excludes every inner-boundary pixel center from the prediction)
PROFILES = {
    "building": {},  # RunConfig's defaults
    "medical": {"nodes": 100, "iters": 10, "init": "inscribed", "kappa": "0.2"},
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(code: int, prefix: str = ""):
    """Turn an OSError, ValueError or RuntimeError raised inside into
    ``CliError(prefix + message, code)``; a ``CliError`` passes unchanged."""
    try:
        yield
    except (OSError, ValueError, RuntimeError) as exc:
        raise CliError(f"{prefix}{exc}", code) from exc


@dataclass
class RunConfig:
    """One run's settings under their ``SETTINGS`` names; the defaults are
    the building profile's."""
    profile: str = "building"
    mask: str | None = None
    gt: str | None = None
    field: str = "lcdvf"
    init: str = "circumscribed"
    iters: int = 50
    tau: float = 0.1
    nodes: int = 60
    resample: bool = False
    clip: float = 2.0
    alpha: float = 0.01
    beta: str = "0.1"
    kappa: str = "0.2"
    out: str | None = None
    dump_frames: str | None = None

    def snake_config(self) -> SnakeConfig:
        return SnakeConfig(iterations=self.iters, time_step=self.tau,
                           resample_each_step=self.resample)


def _boolean(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# every setting a command can read: the type that parses its value, and
# its flag's help; a _boolean setting is a flag without a value
SETTINGS = {
    "mask": (str, "driving mask (PGM)"),
    "gt": (str, "ground-truth mask (PGM); defaults to the segmented mask"),
    "field": (str, "lcdvf | dvf | energy:<file.pfm>"),
    "init": (str, "inscribed | circumscribed | circle:<cu>,<cv>,<r>"),
    "iters": (int, "evolution iterations"),
    "tau": (float, "time step"),
    "nodes": (int, "contour node count"),
    "resample": (_boolean, "resample nodes to uniform arc length each step"),
    "clip": (float, "force magnitude clip (inf disables)"),
    "alpha": (float, "continuity weight"),
    "beta": (str, "curvature weight: constant or file.pfm"),
    "kappa": (str, "balloon weight: constant or file.pfm"),
    "out": (str, "output directory (prediction.pgm, contour.json, result.json)"),
    "dump_frames": (str, "directory for per-iteration frame_%%04d.pgm/.json dumps"),
}
_SOLVER = ("field", "init", "iters", "tau", "nodes", "resample", "clip")
_WEIGHTS = ("alpha", "beta", "kappa")
# the settings each command reads, as flags and as config-file keys; batch
# takes each item's mask from its manifest and scores the item against it,
# and learn fits --gt starting from fixed weights
COMMAND_SETTINGS = {
    "run": ("mask", "gt") + _SOLVER + _WEIGHTS + ("out", "dump_frames"),
    "sweep": ("mask", "gt") + _SOLVER + _WEIGHTS,
    "batch": _SOLVER + _WEIGHTS,
    "learn": ("gt",) + _SOLVER,
}


class StageTimer:
    """Wall milliseconds per pipeline stage, reported in pipeline order.
    Timing goes to stderr only, so output files stay deterministic."""

    STAGES = ("read", "field", "init", "evolve", "rasterize", "metrics", "write")

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Add the time since the previous lap (or since creation) to ``stage``."""
        now = time.perf_counter()
        self.ms[stage] = self.ms.get(stage, 0.0) + (now - self._last) * 1e3
        self._last = now

    def emit(self) -> None:
        """One JSON line of the stage totals on stderr, in ``STAGES`` order
        (the starts a box needs are built before the field)."""
        stages = sorted(self.ms, key=self.STAGES.index)
        stage_ms = {stage: round(self.ms[stage], 3) for stage in stages}
        print(json.dumps({"stage_ms": stage_ms}), file=sys.stderr)


@dataclass
class Prepared:
    """A mask and its ground truth, read once; ``dt`` is the mask's EDT on
    ``box`` (the frame when None), computed on first use unless
    ``_share_dts`` set it from a stacked call. A prep keeps the box of the
    last group it ran in, so a next group on the same box reuses the EDT."""
    mask: np.ndarray
    gt: np.ndarray
    box: tuple[slice, slice] | None = None

    @cached_property
    def dt(self) -> np.ndarray:
        return mask_to_dt(self.mask[self.box or ...])

    def drop_dt(self) -> None:
        """Forget the EDT; it is computed again if read again."""
        self.__dict__.pop("dt", None)

    def place(self, box: tuple[slice, slice] | None) -> None:
        """Move the EDT to ``box``, dropping one computed on another."""
        if box != self.box:
            self.drop_dt()
            self.box = box


def prepare(mask_path: str, gt_path: str | None = None) -> Prepared:
    """Read a mask and its ground truth, which defaults to the mask."""
    with _failing(EXIT_USAGE):
        mask = read_mask_pgm(mask_path)
        gt = read_mask_pgm(gt_path) if gt_path else mask
    if gt.shape != mask.shape:
        raise CliError(f"ground-truth shape {gt.shape} does not match mask {mask.shape}")
    return Prepared(mask, gt)


@dataclass
class RunResult:
    prediction: np.ndarray
    report: MetricsReport
    trace: EvolutionTrace | None


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    return value


def _json_line(obj) -> str:
    return json.dumps(_round6(obj))


def _parse_config_file(path: str, command: str) -> dict:
    """The ``key=value`` lines of ``path``: ``profile`` or a setting that
    ``command`` reads, its value parsed with the setting's type."""
    accepted = ("profile",) + COMMAND_SETTINGS[command]
    settings = {}
    with _failing(EXIT_USAGE, f"cannot read config file {path}: "):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in accepted:
            raise CliError(f"{path}:{lineno}: {command} does not read key {key!r} "
                           f"(accepted: {', '.join(accepted)})")
        if key != "profile":
            with _failing(EXIT_USAGE, f"bad value for {key}: "):
                value = SETTINGS[key][0](value)
        settings[key] = value
    return settings


def resolve_run_config(args) -> tuple[RunConfig, _Loaded]:
    """The profile, then the config file, then the flags override ``RunConfig``'s
    defaults for the settings ``args.command`` reads; ``_load`` checks and loads them."""
    settings = _parse_config_file(args.config, args.command) if args.config else {}
    file_profile = settings.pop("profile", None)
    profile = args.profile or file_profile or RunConfig.profile
    if profile not in PROFILES:
        raise CliError(f"unknown profile {profile!r} (choose from {sorted(PROFILES)})")
    keys = COMMAND_SETTINGS[args.command]
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    cfg = RunConfig(profile=profile, **{**PROFILES[profile], **settings, **flags})
    if "mask" in keys and not cfg.mask:
        raise CliError("a mask file is required (--mask)")
    return cfg, _load(cfg)


@dataclass
class _EnergyField:
    """An ``energy:`` map and its force field, built on first use and then
    shared by every mask the map fits."""
    path: str
    energy: np.ndarray
    clip: float

    @cached_property
    def force(self) -> ForceField:
        return energy_gradient_field(self.energy, self.clip)


@dataclass(frozen=True)
class _Loaded:
    """The settings that do not depend on the mask, loaded: each weight a
    constant or a map, the field a kind or an energy map, the init a mode or a circle."""
    beta: float | np.ndarray
    kappa: float | np.ndarray
    field: str | _EnergyField
    init: str | Circle


def _read_map(name: str, path: str) -> np.ndarray:
    with _failing(EXIT_USAGE, f"cannot load {name} map {path!r}: "):
        return read_pfm(path)


def _load_weight(name: str, spec: str) -> float | np.ndarray:
    """A constant or a PFM map; every value finite, and every beta value >= 0."""
    try:
        values = float(spec)
    except ValueError:
        values = _read_map(name, spec)
    if not np.isfinite(values).all():
        raise CliError(f"{name} must be finite, got {spec!r}")
    if name == "beta" and (np.asarray(values) < 0.0).any():
        raise CliError(f"{name} must be >= 0 everywhere, got {spec!r}")
    return values


def _load_field(spec: str, clip: float) -> str | _EnergyField:
    if spec.startswith("energy:"):
        path = spec.split(":", 1)[1]
        return _EnergyField(path, _read_map("energy", path), clip)
    if spec not in ("lcdvf", "dvf"):
        raise CliError(f"unknown field kind {spec!r} (use lcdvf, dvf, or energy:<file.pfm>)")
    return spec


def _load_init(spec: str) -> str | Circle:
    if spec.startswith("circle:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise CliError("circle init must be circle:<cu>,<cv>,<r>")
        with _failing(EXIT_USAGE, f"bad circle init {spec!r}: "):
            cu, cv, r = (float(p) for p in parts)
            return Circle((cu, cv), r)
    if spec not in ("inscribed", "circumscribed"):
        raise CliError(f"unknown init mode {spec!r} "
                       "(use inscribed, circumscribed, or circle:<cu>,<cv>,<r>)")
    return spec


def _load(cfg: RunConfig) -> _Loaded:
    """Check ``cfg`` and load what does not depend on the mask; a bad value exits 2."""
    with _failing(EXIT_USAGE, "bad configuration value: "):
        cfg.snake_config()  # rejects bad iterations and tau
        if cfg.nodes < 3:
            raise ValueError("nodes must be >= 3")
        if not (np.isfinite(cfg.alpha) and cfg.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not cfg.clip > 0.0:
            raise ValueError("clip must be positive (inf disables clipping)")
    return _Loaded(_load_weight("beta", cfg.beta), _load_weight("kappa", cfg.kappa),
                   _load_field(cfg.field, cfg.clip), _load_init(cfg.init))


def _fit(name: str, values, spec: str, shape: tuple[int, int]) -> None:
    """Exit 2 unless ``values``, a constant or a map, fits the ``shape`` frame."""
    if np.ndim(values) and values.shape != shape:
        raise CliError(f"{name} map {spec!r} has shape {values.shape}, expected {shape}")


def _fit_maps(cfg: RunConfig, loaded: _Loaded, shape: tuple[int, int]) -> None:
    """Check that every map the run reads (an energy map too) fits ``shape``."""
    _fit("beta", loaded.beta, cfg.beta, shape)
    _fit("kappa", loaded.kappa, cfg.kappa, shape)
    if isinstance(loaded.field, _EnergyField):
        _fit("energy", loaded.field.energy, loaded.field.path, shape)


def _over(values, shape: tuple[int, int], box: Box | None) -> np.ndarray:
    """A constant spread over ``box`` of the ``shape`` frame (the frame when
    None), or a map of that frame read over ``box`` as a view."""
    if np.ndim(values) == 0:
        return np.full(box.shape if box else shape, values)
    return values[box.rows, box.cols] if box else values


def _force_key(prep: Prepared, loaded: _Loaded):
    """What a force depends on: an ``energy:`` map alone, ``lcdvf`` or ``dvf`` the mask too."""
    return id(loaded.field) if isinstance(loaded.field, _EnergyField) else (loaded.field, id(prep))


def _build_force(cfg: RunConfig, loaded: _Loaded, prep: Prepared) -> ForceField:
    if isinstance(loaded.field, str):
        return (lcdvf if loaded.field == "lcdvf" else dvf)(prep.dt, cfg.clip)
    _fit("energy", loaded.field.energy, loaded.field.path, prep.mask.shape)
    return loaded.field.force


def _start(cfg: RunConfig, loaded: _Loaded, prep: Prepared) -> Contour:
    mask, circle = prep.mask, loaded.init
    if circle == "circumscribed":
        circle = circumscribed_circle(mask)
    elif circle == "inscribed":
        if not mask.any():  # an empty mask has no EDT to read
            raise ValueError("mask has no foreground")
        if mask.all():  # mask_to_dt refuses a full frame, whose inner boundary is its border
            circle = inscribed_circle(mask, edt_from_sites(boundary_mask(mask)))
        else:  # the field's EDT, on the box that holds the foreground
            rows, cols = prep.box or (slice(0, None), slice(0, None))
            circle = inscribed_circle(mask[rows, cols], prep.dt)
            circle = Circle((circle.center[0] + cols.start, circle.center[1] + rows.start),
                            circle.radius)
    return circle_to_contour(circle, cfg.nodes, mask.shape[1], mask.shape[0])


def _share_dts(preps: list[Prepared], box: tuple[slice, slice] | None) -> list[Prepared]:
    """Move each distinct prep's EDT to ``box``; give each that has no EDT
    yet and whose mask has one its slice of stacked ``mask_to_dt`` calls,
    each over at most the rows of a square ``GROUP_PIXELS`` image, as many
    as a 256² run's EDT (four 64² masks), and return those preps. A lone
    prep, and an empty or full-frame mask, keeps the lazy ``dt``, which
    raises as it does for a lone run."""
    preps = list({id(prep): prep for prep in preps}.values())
    for prep in preps:
        prep.place(box)
    preps = [prep for prep in preps
             if "dt" not in prep.__dict__ and prep.mask.any() and not prep.mask.all()]
    if len(preps) < 2:
        return []
    per_call = max(1, math.isqrt(GROUP_PIXELS) // preps[0].mask[box or ...].shape[0])
    for first in range(0, len(preps), per_call):
        chunk = preps[first:first + per_call]
        for prep, dt in zip(chunk, mask_to_dt(np.stack([prep.mask[box or ...] for prep in chunk]))):
            prep.dt = dt
    return preps


def _group_box(items: list[tuple[Prepared, _Loaded]],
               starts: list[Contour]) -> tuple[tuple[slice, slice], tuple[slice, slice]] | None:
    """The box of the frame a group's EDTs and forces are built on, and the
    part of it where they equal the frame's; None when a force does not
    come from its mask (an ``energy:`` map) or the box is the frame.

    The part holds every foreground pixel of the items and every bilinear
    corner of ``starts`` (the starts known before the EDT), widened by
    ``BOX_MARGIN`` and clipped to the frame; an inscribed start's corners
    lie within two pixels of its foreground. The box adds one pixel on each
    side short of the frame's edge, which the gradient's central
    differences there read. Every boundary pixel, the EDT's sites, lies
    inside, so the box's EDT holds the frame's integers."""
    if not all(isinstance(loaded.field, str) for _, loaded in items):
        return None
    shape = items[0][0].mask.shape
    spans = [bounding_box(mask) for mask in {id(prep.mask): prep.mask for prep, _ in items}.values()
             if mask.any()]
    spans += [corner_box(start.nodes, *shape) for start in starts]
    if not spans:
        return None
    lo = np.min([(rows.start, cols.start) for rows, cols in spans], axis=0)
    hi = np.max([(rows.stop, cols.stop) for rows, cols in spans], axis=0)
    boxes = []
    for pad in (BOX_MARGIN + 1, BOX_MARGIN):
        first, stop = np.maximum(lo - pad, 0).tolist(), np.minimum(hi + pad, shape).tolist()
        boxes.append(tuple(slice(a, b) for a, b in zip(first, stop)))
    return None if boxes[0] == tuple(slice(0, n) for n in shape) else tuple(boxes)


def _forces(cfg: RunConfig, items: list[tuple[Prepared, _Loaded]], keys: list, shared: bool,
            known: dict, box: tuple[slice, slice] | None, inner: Box | None,
            timer: StageTimer):
    """Each item's force, built on ``box`` (the frame when None) once per
    distinct ``_force_key`` and read over ``inner``, the part of ``box``
    where it equals the frame's, and its start (``known`` holds those that
    need no EDT, or their errors): the shared force (None unless
    ``shared``), a view, else the (K, h, w, 2) stack with one slot per
    started item, the starts, and each failed item's error."""
    crop = inner and tuple(slice(part.start - whole.start, part.stop - whole.start)
                           for part, whole in zip((inner.rows, inner.cols), box))
    stacked = _share_dts([prep for prep, loaded in items
                          if isinstance(loaded.field, str) or loaded.init == "inscribed"], box)
    shape = inner.shape if inner else items[0][0].mask.shape
    vectors = None if shared else np.empty((len(items), *shape, 2))
    force, starts, failed = None, [], {}
    slot_of = {}  # force key -> the slot that holds the force built for it
    for index, ((prep, loaded), key) in enumerate(zip(items, keys)):
        try:
            with _failing(EXIT_COMPUTE):
                if key not in slot_of and (force is None or not shared):
                    force = _build_force(cfg, loaded, prep)
                timer.lap("field")
                start = known[index] if index in known else _start(cfg, loaded, prep)
                if isinstance(start, CliError):
                    raise start
                starts.append(start)
                timer.lap("init")
        except CliError as exc:
            failed[index] = exc
            continue
        slot = len(starts) - 1
        if key in slot_of:  # a force already built: copy its slot
            vectors[slot] = vectors[slot_of[key]]
        elif not shared:  # the item's slot holds a copy, and its force is dropped
            vectors[slot], force, slot_of[key] = force.vectors[crop or ...], None, slot
    for prep in stacked:
        prep.drop_dt()
    if crop and force is not None:
        force = ForceField(force.vectors[crop], force.potential[crop])
    return force, vectors, starts, failed


def run_pipeline(cfg: RunConfig, items: list[tuple[Prepared, _Loaded]],
                 timer: StageTimer | None = None,
                 counts: list[int] | None = None) -> list[RunResult | CliError]:
    """Segment each item's mask with ``cfg`` and its loaded settings and score
    it against its ground truth after each of ``counts`` steps (none past
    ``cfg.iters``): one result per item and count, item-major, each the one
    the item gets alone, or its ``CliError``. Only those steps are kept and
    ``trace`` is ``None``; without ``counts``, as `run` calls it, the count is
    ``cfg.iters``, ``trace`` holds every step and the force's potential, and
    the items must share one force (else ``ValueError``).

    The items share one mask shape and ``cfg``'s weights (a map that does
    not fit raises). Fit the maps; build the starts that need no EDT; take
    the group's ``_group_box``; compute the EDTs on it in stacked calls;
    build a force that drives every item once (read through a view), else
    each distinct ``_force_key``'s once, into the slot of every item with
    that key in a (K, h, w, 2) stack; build the inscribed starts; spread
    the weights over the part of the box where the forces equal the
    frame's, which the forces are read over too; step the starts in one
    ``evolve`` call, which checks that every node reads that part; the
    first time one does not, build the forces, starts and weights again on
    the frame and step again. Rasterize every kept contour in one call and score them
    all in one stacked ``evaluate`` call. A count at or past a collapse
    gets the collapse's message.
    """
    timer = timer or StageTimer()
    height, width = items[0][0].mask.shape
    weights = items[0][1]
    _fit_maps(cfg, weights, (height, width))
    timer.lap("read")
    keys = [_force_key(*item) for item in items]
    shared = len(set(keys)) == 1
    tracing, counts = counts is None, counts or [cfg.iters]
    if tracing and not shared:
        raise ValueError("a traced run needs items that share one force")
    known = {}  # the starts that need no EDT, or their errors, by item
    for index, (prep, loaded) in enumerate(items):
        if loaded.init != "inscribed":
            try:
                with _failing(EXIT_COMPUTE):
                    known[index] = _start(cfg, loaded, prep)
            except CliError as exc:
                known[index] = exc
    timer.lap("init")
    boxes = _group_box(items, [start for start in known.values() if isinstance(start, Contour)])
    for box, inner in (boxes, (None, None)) if boxes else [(None, None)]:
        inner = inner and Box(*inner, height, width)
        force, vectors, starts, failed = _forces(cfg, items, keys, shared, known, box, inner,
                                                 timer)
        try:
            with _failing(EXIT_COMPUTE):
                paths = []
                params = ParameterSet(cfg.alpha, *(_over(values, (height, width), inner)
                                                   for values in (weights.beta, weights.kappa)))
                if starts:
                    stack = force.vectors[None] if shared else vectors[:len(starts)]
                    keep = None if tracing else set(counts)
                    paths = evolve(starts, stack, params, cfg.snake_config(), keep, inner)
            break
        except LeftBox:
            continue
    timer.lap("evolve")
    with _failing(EXIT_COMPUTE):
        started, kept, gts, results = iter(paths), [], [], []
        for index, (prep, _) in enumerate(items):
            if index in failed:
                results += [failed[index]] * len(counts)
                continue
            path = next(started)
            for count in counts:
                if count not in path.contours:  # the path stopped before this count
                    results.append(CliError(str(path.error), EXIT_COMPUTE))
                    continue
                trace = (EvolutionTrace(list(path.contours.values()), force.potential, params,
                                        inner) if tracing else None)
                results.append(RunResult(None, None, trace))  # rasterized and scored below
                kept.append(path.contours[count])
                gts.append(prep.gt)
        done = [result for result in results if isinstance(result, RunResult)]
        if done:
            predictions = rasterize(kept, width, height)
            for result, prediction in zip(done, predictions):
                result.prediction = prediction
        timer.lap("rasterize")
        if done:
            for result, report in zip(done, evaluate(predictions, np.stack(gts))):
                result.report = report
        timer.lap("metrics")
    return results


def _contour_json(contour: Contour) -> str:
    return _json_line({"nodes": contour.nodes.tolist()}) + "\n"


def _result_json(cfg: RunConfig, result: RunResult) -> str:
    payload = {
        "metrics": result.report.as_dict(),
        "trace": {
            "energies": [float(e) for e in result.trace.energies],
            "mean_displacements": [float(d) for d in result.trace.displacements],
        },
        "config": {"profile": cfg.profile, "field": cfg.field, "init": cfg.init,
                   "iterations": cfg.iters, "tau": cfg.tau, "nodes": cfg.nodes,
                   "resample": cfg.resample, "clip": cfg.clip, "alpha": cfg.alpha},
    }
    return json.dumps(_round6(payload), indent=2) + "\n"


def _render_frame(mask: np.ndarray, contour: Contour) -> np.ndarray:
    height, width = mask.shape
    img = np.where(mask, 96, 0).astype(np.uint8)
    region = rasterize(contour, width, height)
    img[region] = np.maximum(img[region], 160)
    img[boundary_mask(region)] = 255
    return img


def write_run_outputs(cfg: RunConfig, prep: Prepared, result: RunResult) -> None:
    if cfg.out:
        out = Path(cfg.out)
        with _failing(EXIT_USAGE, f"cannot write {out}: "):
            out.mkdir(parents=True, exist_ok=True)
            write_mask_pgm(out / "prediction.pgm", result.prediction)
            atomic_write_text(out / "contour.json", _contour_json(result.trace.contours[-1]))
            atomic_write_text(out / "result.json", _result_json(cfg, result))
    if cfg.dump_frames:
        frames = Path(cfg.dump_frames)
        with _failing(EXIT_USAGE, f"cannot write {frames}: "):
            frames.mkdir(parents=True, exist_ok=True)
            for i, contour in enumerate(result.trace.contours):
                write_pgm(frames / f"frame_{i:04d}.pgm", _render_frame(prep.mask, contour))
                atomic_write_text(frames / f"frame_{i:04d}.json", _contour_json(contour))


def _cmd_run(args) -> int:
    cfg, loaded = resolve_run_config(args)
    timer = StageTimer()  # "read" covers prepare
    prep = prepare(cfg.mask, cfg.gt)
    [result] = run_pipeline(cfg, [(prep, loaded)], timer)
    if isinstance(result, CliError):
        raise result
    write_run_outputs(cfg, prep, result)
    timer.lap("write")
    print(_json_line(result.report.as_dict()))
    timer.emit()
    return EXIT_OK


def _cmd_metrics(args) -> int:
    prep = prepare(args.pred, args.gt)
    report = evaluate(prep.mask, prep.gt)
    if args.json:
        print(_json_line(report.as_dict()))
    else:
        per = " ".join(f"{v:.6f}" for v in report.boundf_per_threshold)
        print(f"iou {report.iou:.6f}  dice {report.dice:.6f}  "
              f"boundf {report.boundf:.6f}  per-threshold {per}")
    return EXIT_OK


def _cmd_dt(args) -> int:
    with _failing(EXIT_COMPUTE):
        field = prepare(args.mask).dt  # a read failure passes through with its 2
    with _failing(EXIT_USAGE, f"cannot write {args.out}: "):
        write_pfm(args.out, field)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_learn(args) -> int:
    if args.epochs < 1:
        raise CliError("epochs must be >= 1")
    if not (np.isfinite(args.lr) and args.lr > 0.0):
        raise CliError(f"lr must be finite and > 0, got {args.lr}")
    cfg, loaded = resolve_run_config(args)
    if not cfg.gt:
        raise CliError("learn requires a ground-truth mask (--gt)")
    prep = prepare(cfg.gt)  # the ground truth also drives the force field
    with _failing(EXIT_COMPUTE):
        start = _start(cfg, loaded, prep)
        force = _build_force(cfg, loaded, prep)
        fit = fit_parameters(prep.mask, force, start, cfg.snake_config(), learn_rate=args.lr,
                             epochs=args.epochs)
    out = Path(args.out)
    with _failing(EXIT_USAGE, f"cannot write {out}: "):
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "alpha.json", _json_line({"alpha": fit.params.alpha}) + "\n")
        atomic_write_text(out / "history.json", _json_line({"iou_history": fit.iou_history}) + "\n")
        write_pfm(out / "beta.pfm", fit.params.beta)
        write_pfm(out / "kappa.pfm", fit.params.kappa)
    print(_json_line({"baseline_iou": fit.baseline_iou, "best_iou": fit.best_iou,
                      "epochs": args.epochs}))
    return EXIT_OK


def _parse_manifest(path: str) -> list[tuple[str, str]]:
    with _failing(EXIT_USAGE, f"cannot read manifest {path}: "):
        text = Path(path).read_text(encoding="utf-8")
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


def _group_by_shape(items: list[tuple[Prepared, _Loaded]], nodes: int) -> list[list[int]]:
    """The indices of the ``(prep, loaded)`` items of one mask shape in order,
    cut into groups of at most ``GROUP_PIXELS`` pixels of stacked forces (one
    if the items share one ``_force_key``, else one per item) and entries of
    their (nodes, nodes) systems; an item over either cap is a group alone."""
    groups, open_group = [], {}  # shape -> its open group and that group's force keys
    for index, (prep, loaded) in enumerate(items):
        key = _force_key(prep, loaded)
        group, keys = open_group.get(prep.mask.shape, ([], set()))
        count = len(group) + 1
        forces = 1 if keys <= {key} else count
        if not group or max(forces * prep.mask.size, count * nodes * nodes) > GROUP_PIXELS:
            group, keys = open_group[prep.mask.shape] = [], set()
            groups.append(group)
        group.append(index)
        keys.add(key)
    return groups


def _write_report(text: str, path: str | None, timer: StageTimer) -> None:
    """Print a report, write it to ``path`` too when given, then the timings."""
    sys.stdout.write(text)
    if path:
        with _failing(EXIT_USAGE, f"cannot write {path}: "):
            atomic_write_text(path, text)
    timer.lap("write")
    timer.emit()


def _cmd_batch(args) -> int:
    """Read every manifest item's mask first, then run its
    ``_group_by_shape`` groups. Rows stay in manifest order, an item's own
    failure (an unreadable mask, a map that does not fit it, a failed
    computation) is its row, the image column only labels the row, and
    `--jobs` has no effect."""
    if args.jobs < 1:
        raise CliError("jobs must be >= 1")
    cfg, loaded = resolve_run_config(args)
    timer = StageTimer()
    pairs = _parse_manifest(args.manifest)

    rows, items = [], []
    for index, (image, mask) in enumerate(pairs):
        row = {"index": index, "image": image, "mask": mask}
        rows.append(row)
        try:
            prep = prepare(mask)
            _fit_maps(cfg, loaded, prep.mask.shape)  # a map that does not fit fails the item
        except CliError as exc:
            row["error"] = str(exc)
            continue
        items.append((row, prep))
    work = [(prep, loaded) for _, prep in items]
    for group in _group_by_shape(work, cfg.nodes):
        results = run_pipeline(cfg, [work[i] for i in group], timer, [cfg.iters])
        for i, result in zip(group, results):
            row, prep = items[i]
            if isinstance(result, CliError):
                row["error"] = str(result)
            else:
                row.update(iou=result.report.iou, dice=result.report.dice,
                           boundf=result.report.boundf)
            prep.drop_dt()

    successes = [r for r in rows if "error" not in r]
    aggregate = {"aggregate": True, "items": len(rows), "failed": len(rows) - len(successes)}
    for key, name in (("iou", "miou"), ("dice", "mean_dice"), ("boundf", "mean_boundf")):
        aggregate[name] = float(np.mean([r[key] for r in successes])) if successes else 0.0
    lines = [_json_line(r) for r in rows] + [_json_line(aggregate)]
    _write_report("\n".join(lines) + "\n", args.out, timer)
    return EXIT_OK if aggregate["failed"] == 0 else EXIT_COMPUTE


def _cmd_sweep(args) -> int:
    """One CSV row per axis value, each scored as `run` scores the mask with
    that value; a failed computation is a row and makes the sweep exit 1."""
    cfg, loaded = resolve_run_config(args)
    # a circle:<cu>,<cv>,<r> init spec is one value
    values = re.findall(r"\s*circle:[^,]*,[^,]*,[^,]*|[^,]+", args.values)
    values = [v.strip() for v in values if v.strip()]
    if not values:
        raise CliError("sweep needs at least one value")

    rows = []  # (loaded settings, step count) per row, all checked before the mask is read
    for value in values:
        with _failing(EXIT_USAGE, f"bad {args.axis} value {value!r}: "):
            row, iters = loaded, cfg.iters
            if args.axis == "iterations":
                iters = int(value)
                replace(cfg, iters=iters).snake_config()  # rejects a negative count
            elif args.axis == "field":
                row = replace(loaded, field=_load_field(value, cfg.clip))
            elif args.axis == "init":
                row = replace(loaded, init=_load_init(value))
            else:  # a radius, centred on the mask's circumscribed circle below
                row = replace(loaded, init=Circle((0.0, 0.0), float(value)))
        rows.append((row, iters))

    timer = StageTimer()
    prep = prepare(cfg.mask, cfg.gt)  # every row shares the mask and its EDT
    for row, _ in rows:  # a map that does not fit the mask stops the sweep here
        _fit_maps(cfg, row, prep.mask.shape)
    if args.axis == "radius":
        with _failing(EXIT_COMPUTE):
            center = circumscribed_circle(prep.mask).center
        rows = [(replace(row, init=replace(row.init, center=center)), iters)
                for row, iters in rows]
    if args.axis == "iterations":  # one evolution, read at each row's step count
        counts = [iters for _, iters in rows]
        results = run_pipeline(replace(cfg, iters=max(counts)), [(prep, loaded)], timer, counts)
    else:  # radius and init rows share one force, field rows have one each
        items, results = [(prep, row) for row, _ in rows], []
        for group in _group_by_shape(items, cfg.nodes):
            results += run_pipeline(cfg, [items[i] for i in group], timer, [cfg.iters])

    table, failed = ["axis_value,iou,dice,boundf,error"], 0
    for value, result in zip(values, results):
        cell = value.replace(",", ";")
        if isinstance(result, CliError):  # every map fits, so only a computation can fail
            table.append(f"{cell},,,,{str(result).replace(',', ';')}")
            failed += 1
        else:
            report = result.report
            table.append(f"{cell},{report.iou:.6f},{report.dice:.6f},{report.boundf:.6f},")
    _write_report("\n".join(table) + "\n", args.out, timer)
    return EXIT_COMPUTE if failed else EXIT_OK


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """--profile, --config and a flag for each setting ``command`` reads."""
    parser.add_argument("--profile", choices=sorted(PROFILES))
    for key in COMMAND_SETTINGS[command]:
        kind, help_text = SETTINGS[key]
        flag = "--" + key.replace("_", "-")
        if kind is _boolean:
            parser.add_argument(flag, dest=key, action="store_true", default=None,
                                help=help_text)
        else:
            parser.add_argument(flag, dest=key, type=kind, help=help_text)
    parser.add_argument("--config", help="key=value config file")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; ``main``
    runs the command function ``_cmd_<command>`` it names."""
    parser = argparse.ArgumentParser(prog="contourflow",
                                     description="distance-transform driven active contours")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="segment one mask and report metrics")
    _add_settings(p_run, "run")

    p_metrics = sub.add_parser("metrics", help="score a prediction against a ground truth")
    p_metrics.add_argument("--pred", required=True)
    p_metrics.add_argument("--gt", required=True)
    p_metrics.add_argument("--json", action="store_true", help="emit a JSON object")

    p_dt = sub.add_parser("dt", help="distance transform of a mask boundary")
    p_dt.add_argument("--mask", required=True)
    p_dt.add_argument("--out", required=True, help="output PFM path")

    p_learn = sub.add_parser("learn", help="fit parameter maps on one image")
    _add_settings(p_learn, "learn")
    p_learn.add_argument("--epochs", type=int, default=100)
    p_learn.add_argument("--lr", type=float, default=1e-3)
    p_learn.add_argument("--out", required=True, help="output directory for "
                         "alpha.json, beta.pfm, kappa.pfm, history.json")

    p_batch = sub.add_parser("batch", help="run a manifest of (image, mask) pairs; "
                             "the image column only labels each row")
    _add_settings(p_batch, "batch")
    p_batch.add_argument("--manifest", required=True)
    p_batch.add_argument("--jobs", type=int, default=1, help="accepted for compatibility "
                         "(must be >= 1); no effect: items of one mask shape are "
                         "evolved together in one process")
    p_batch.add_argument("--out", help="also write the JSONL report here")

    p_sweep = sub.add_parser("sweep", help="rerun one config across an axis of values")
    _add_settings(p_sweep, "sweep")
    p_sweep.add_argument("--axis", required=True,
                         choices=("radius", "iterations", "field", "init"))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", help="also write the CSV table here")

    return parser


def main(argv=None) -> int:
    blas.pin()
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)  # per call: the parser is cached
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
