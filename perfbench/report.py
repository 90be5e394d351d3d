"""Tables of the benchmark results saved under ``.perfbench/results``.

    python3 perfbench/report.py [RESULTS_DIR]

Prints, for every workload with saved runs, the per-layer numbers of
its traced runs (median over runs) and the end-to-end numbers of its
untraced runs (median, and the quartile spread as a share of the
median). Run it on two commits to cite a before/after pair.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def load(results: Path) -> dict[tuple[int, str], list[dict]]:
    runs: dict[tuple[int, str], list[dict]] = {}
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["trace"], record["workload"]), []).append(record)
    return runs


def table(title: str, metrics: list[dict], workloads: list[str], runs, trace: int) -> None:
    present = [w for w in workloads if (trace, w) in runs]
    if not present:
        return
    width = max(len(m["name"]) for m in metrics) + 2
    print(f"\n{title}")
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>22}" for w in present))
    print(f"{'runs (seeds)':<{width}}{'':<8}" + "".join(
        f"{len(runs[trace, w]):>22}" for w in present))
    if trace:
        print(f"{'values per':<{width}}{'':<8}" + "".join(
            f"{runs[trace, w][0]['layer_unit']:>22}" for w in present))
    for metric in metrics:
        cells = []
        for w in present:
            values = [r["metrics"][metric["name"]] for r in runs[trace, w]
                      if metric["name"] in r["metrics"]]
            if not values:
                cells.append(f"{'-':>22}")
            elif trace or len(values) < 2:
                cells.append(f"{statistics.median(values):>22.4f}")
            else:
                median = statistics.median(values)
                share = summary.spread(values) if median else float("nan")
                cells.append(f"{median:>13.4f} ±{100 * share:>6.2f}%")
        print(f"{metric['name']:<{width}}{metric['unit']:<8}" + "".join(cells))
    if trace:
        for w in present:
            absent = sorted({a for r in runs[trace, w] for a in r.get("absent", [])})
            if absent:
                print(f"{w}: absent wrap points {', '.join(absent)}")


def main(argv: list[str]) -> int:
    results = Path(argv[0]) if argv else ROOT / ".perfbench" / "results"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = load(results)
    if not runs:
        print(f"no results under {results}", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    table("per layer, traced runs (median over runs)",
          spec["per_layer"], workloads, runs, trace=1)
    table("end to end, untraced runs (median ± quartile spread / median)",
          spec["end_to_end"], workloads, runs, trace=0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
