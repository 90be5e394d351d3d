"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 20 --trace 0

Sets the workload up in a fresh process ``SETUP_BEFORE`` times before
the measurement and ``SETUP_AFTER`` times after it (``setup_s`` is the
median, so a slow spell of the machine moves it less), measures the
last set-up's inputs in one more fresh process, checks its outputs,
and prints a readable summary. The last line of standard output is one
JSON object with the metrics that BENCHMARK.json names: the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``. Every
run's record is saved under ``.perfbench/results`` for ``report.py``.
Exits 1 if an output check failed and 2 if the program's sources or the
benchmark definition are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_BEFORE = 3
SETUP_AFTER = 2
DEADLINE_S = 170.0


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py and return the JSON record on its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_summary(record, metrics, spec_metrics, setups) -> None:
    attempted, failed = summary.failures(record)
    inputs = record["inputs"]
    env = record["env"]
    sizes = sorted({f"{i['width']}x{i['height']}" for i in inputs})
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"loop {record['loop_s']:.2f} s  calls {len(record['items'])}")
    print(f"inputs: {len(inputs)} masks {', '.join(sizes)}; foreground px "
          + " ".join(f"{i['name']}={i['foreground']}" for i in inputs))
    print(f"env: python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"thread env {env['thread_env'] or '{} (unset)'}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  commit {env['commit']}")
    refs = [i["ref_s"] for i in record["items"]]
    samples = " ".join(f"{s['setup_s']:.4f}" for s in setups)
    print(f"unscaled setup_s samples: {samples}; "
          f"reference loop {1e3 * statistics.median(refs):.1f} ms median "
          f"({1e3 * min(refs):.1f}-{1e3 * max(refs):.1f}); one-thread times scaled to "
          f"{1e3 * summary.REFERENCE_S:.0f} ms")
    for spec in spec_metrics:
        print(f"  {spec['name']:<34} {metrics[spec['name']]:>14.6f} {spec['unit']}")
    if not record["trace"]:
        items = record["items"]
        print(f"  {'unscaled images_per_s':<34} "
              f"{sum(i['images'] for i in items) / sum(i['seconds'] for i in items):>14.6f} 1/s")
        print(f"  {'image_ms_p50 samples':<34} {len(record['items']):>14d} calls")
        print(f"  {'quality images':<34} {record['quality']['images']:>14d}")
    else:
        print(f"  traced calls {sum(i['traced'] for i in record['items'])}  "
              f"absent wrap points: {', '.join(record['absent']) or 'none'}")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6f} ({failed}/{attempted})")
    print(f"outputs sha256 {record['outputs']['sha256']} ({len(record['outputs']['files'])} files)")
    for error in record["errors"][:10]:
        print(f"error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contourflow benchmark, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contourflow" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/contourflow) are missing", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / tag
    results = STATE / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for i in range(SETUP_BEFORE + SETUP_AFTER):
            directory = work / f"setup{i}"
            setups.append(child(["setup", "--workload", args.workload, "--seed", str(args.seed),
                                 "--dir", str(directory)], 60.0))
            if i == SETUP_BEFORE - 1:
                record = child(["measure", "--workload", args.workload, "--dir", str(directory),
                                "--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--spans", str(results / f"{tag}.spans.jsonl")],
                               DEADLINE_S - (time.monotonic() - started))
            else:
                shutil.rmtree(directory)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in spec_metrics]
    if args.trace:
        metrics = summary.per_layer(record, names)
    else:
        metrics = summary.end_to_end(record, setups)
    record["setups"] = setups
    record["metrics"] = {name: metrics[name] for name in names}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print_summary(record, metrics, spec_metrics, setups)
    attempted, failed = summary.failures(record)
    correct = failed == 0 and record["quality"]["images"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
