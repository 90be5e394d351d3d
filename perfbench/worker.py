"""Child process of the benchmark.

``setup`` times importing contourflow plus generating and writing one
workload's inputs. ``measure`` runs the workload's CLI calls through
``contourflow.cli.main`` in a closed loop, in whole passes over the
inputs, until a given time has passed; it checks each call's outputs and
prints one JSON record as its last line. Ending on a pass boundary gives
every input the same weight whatever the machine's speed. With
``--trace 1`` each input is called twice in a row, untraced and then
with timing wrappers installed, so both halves cover the same inputs.

Both modes also time a fixed reference loop next to the work they time
(``reference_seconds``), so the caller can tell the program's speed from
the machine's.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

THREAD_ENV_PREFIXES = ("OPENBLAS", "OMP", "MKL", "BLIS", "GOTO", "VECLIB", "NUMEXPR")
# Each half of the reference loop takes about 25 ms on a 2-vCPU Xeon VM at
# its usual speed, and 15 to 35 ms as the load of the host varies.
SCALAR_LOOPS = 7_500
ARRAY_LOOPS = 1_700


def reference_seconds() -> float:
    """Time a fixed loop of the two kinds of work the program spends its
    time in: interpreted arithmetic on NumPy scalars with tiny arrays (as
    in the EDT's parabola envelope) and whole-array operations on 64x64
    grids (as in the snake's field sampling). When the machine slows, the
    scalar half alone slows about 1.5 times as much as a one-thread CLI
    call and the array half about 0.75 times as much; together they slow
    like it. The loop uses no BLAS, threads or
    allocation that outlives it, so the program's state cannot change
    its duration; the machine's speed of the moment does."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    b = np.empty(64)
    grid = np.linspace(0.5, 1.5, 64 * 64).reshape(64, 64)
    out = np.empty_like(grid)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(SCALAR_LOOPS):
        np.minimum(a, a[::-1] + 1.0, out=b)
        acc += b[i % 64] * a[(i * 7) % 64]
    for _ in range(ARRAY_LOOPS):
        np.multiply(grid, 1.0001, out=out)
        np.sqrt(out, out=out)
        np.minimum(out, grid, out=out)
        acc += out.sum()
    return time.perf_counter() - t0


def setup(args) -> dict:
    import contourflow  # noqa: F401  -- the import a user pays is part of set-up

    from workloads import WORKLOADS, write_inputs

    inputs = write_inputs(WORKLOADS[args.workload], args.seed, Path(args.dir))
    setup_s = time.perf_counter() - _STARTED
    return {"setup_s": setup_s, "ref_s": reference_seconds(), "inputs": len(inputs)}


def measure(args) -> dict:
    import contourflow.cli as cli

    from tracing import Tracer, installed, layer_totals
    from workloads import INPUTS_JSON, OUT, WORKLOADS, call_cli, clear_output

    workload = WORKLOADS[args.workload]
    os.chdir(args.dir)
    OUT.mkdir(exist_ok=True)
    index = json.loads(Path(INPUTS_JSON).read_text(encoding="utf-8"))
    inputs = index["inputs"]
    pool = workload.pool(inputs)
    images = workload.images(inputs)
    tracer = Tracer() if args.trace else None
    absent: list[str] = []
    items, quality, errors = [], [], []
    repeats = 2 if tracer else 1  # calls per input in one pass
    period = repeats * pool

    started = time.perf_counter()
    k = 0
    while k == 0 or k % period or time.perf_counter() - started < args.seconds:
        pos = (k // repeats) % pool
        traced = tracer is not None and k % 2 == 1
        first_pass = k < period and not traced
        clear_output(workload.output(inputs, pos))
        argv = workload.argv(inputs, pos)
        ref_before = reference_seconds()
        if traced:
            with installed(tracer) as absent, tracer.item(k):
                t0 = time.perf_counter()
                code, stdout, stderr = call_cli(cli.main, argv)
                seconds = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            code, stdout, stderr = call_cli(cli.main, argv)
            seconds = time.perf_counter() - t0
        ref_s = (ref_before + reference_seconds()) / 2.0
        outcome = workload.check(cli.main, inputs, pos, code, stdout, first_pass=first_pass)
        if code != 0 and stderr.strip():
            outcome.errors.append(stderr.strip()[-500:])
        items.append({"k": k, "pos": pos, "traced": traced, "seconds": seconds, "ref_s": ref_s,
                      "images": images, "epochs": images * workload.epochs,
                      "attempted": outcome.attempted, "failed": outcome.failed})
        errors.extend(outcome.errors)
        if first_pass:
            quality.extend(outcome.quality)
        k += 1
    loop_s = time.perf_counter() - started

    record = {
        "workload": workload.name, "seed": index["seed"], "trace": args.trace,
        "seconds": args.seconds, "loop_s": loop_s, "jobs": workload.jobs,
        "layer_unit": workload.layer_unit,
        "inputs": inputs, "items": items, "errors": errors,
        "quality": {
            "images": len(quality),
            "miou": sum(q["iou"] for q in quality) / len(quality) if quality else 0.0,
            "mean_boundf": sum(q["boundf"] for q in quality) / len(quality) if quality else 0.0,
        },
        "outputs": hash_tree(OUT),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        record["absent"] = absent
        record["layers"] = layer_totals(tracer.spans)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(list(span)) + "\n")
    return record


def hash_tree(top: Path) -> dict:
    """SHA-256 of every file under ``top`` and one digest over all of them."""
    files = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        files[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256("".join(f"{p} {h}\n" for p, h in files.items()).encode())
    return {"sha256": combined.hexdigest(), "files": files}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.split("_", 1)[0] in THREAD_ENV_PREFIXES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    setup_parser = modes.add_parser("setup")
    setup_parser.add_argument("--seed", type=int, required=True)
    measure_parser = modes.add_parser("measure")
    measure_parser.add_argument("--seconds", type=float, required=True)
    measure_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure_parser.add_argument("--spans", help="where --trace 1 writes its spans (JSON lines)")
    for mode_parser in (setup_parser, measure_parser):
        mode_parser.add_argument("--workload", required=True)
        mode_parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    record = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
