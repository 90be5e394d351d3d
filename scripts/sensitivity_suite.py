"""Desk-scale sensitivity studies on the bundled shape suite.

Reproduces three study families as CSV tables:
  * iterations.csv  - metrics over the evolution iteration count
  * radius.csv      - metrics over the initialization circle radius,
                      for the distance-scaled flow and the unscaled
                      distance-potential baseline
  * ablation.csv    - force-field and balloon ablations per fixture

Each run goes through the CLI's pipeline (``contourflow.cli.run_pipeline``)
on one ``Prepared`` per fixture, scored against the fixture's own mask; an
iteration study is one evolution per fixture, scored at each count.

Usage: python scripts/sensitivity_suite.py --out studies/
"""

import argparse
from pathlib import Path

import numpy as np

from contourflow.autoinit import circumscribed_circle
from contourflow.cli import CliError, Prepared, RunConfig, _load, run_pipeline
from contourflow.shapes import full_suite

KAPPA = 0.2


def run_once(prep, init, field="lcdvf", counts=(50,), kappa=KAPPA):
    """The reports of one evolution scored after each of ``counts`` steps."""
    cfg = RunConfig(field=field, init=init, iters=max(counts), nodes=60, clip=np.inf,
                    alpha=0.01, beta="0.1", kappa=str(kappa))
    results = run_pipeline(cfg, [(prep, _load(cfg))], counts=list(counts))
    for result in results:
        if isinstance(result, CliError):
            raise result
    return [result.report for result in results]


def iteration_study(out_dir: Path) -> None:
    rows = ["fixture,size,iterations,iou,dice,boundf"]
    for fx in full_suite():
        prep = Prepared(fx.mask, fx.mask)
        counts = (5, 10, 25, 50, 100, 200)
        for iters, r in zip(counts, run_once(prep, fx.init_mode, counts=counts)):
            rows.append(f"{fx.name},{fx.size},{iters},"
                        f"{r.iou:.6f},{r.dice:.6f},{r.boundf:.6f}")
    (out_dir / "iterations.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'iterations.csv'}")


def radius_study(out_dir: Path) -> None:
    rows = ["fixture,size,field,radius_ratio,iou,dice,boundf"]
    disks = [fx for fx in full_suite() if fx.name == "disk"]
    for fx in disks:
        prep = Prepared(fx.mask, fx.mask)
        circum = circumscribed_circle(fx.mask)
        cu, cv = circum.center
        # the unscaled distance-potential baseline descends the EDT itself: dvf
        for field, kind in (("lcdvf", "lcdvf"), ("dt_potential", "dvf")):
            for ratio in np.linspace(0.25, 2.5, 10):
                init = f"circle:{cu},{cv},{float(ratio * circum.radius)}"
                [r] = run_once(prep, init, field=kind, kappa=0.0)
                rows.append(f"{fx.name},{fx.size},{field},{ratio:.3f},"
                            f"{r.iou:.6f},{r.dice:.6f},{r.boundf:.6f}")
    (out_dir / "radius.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'radius.csv'}")


def ablation_study(out_dir: Path) -> None:
    rows = ["fixture,size,variant,iou,dice,boundf"]
    variants = (("lcdvf", KAPPA, "lcdvf"),
                ("dvf", KAPPA, "dvf"),
                ("lcdvf", 0.0, "no_balloon"))
    for fx in full_suite():
        prep = Prepared(fx.mask, fx.mask)
        for field, kappa, label in variants:
            [r] = run_once(prep, fx.init_mode, field=field, kappa=kappa)
            rows.append(f"{fx.name},{fx.size},{label},"
                        f"{r.iou:.6f},{r.dice:.6f},{r.boundf:.6f}")
    (out_dir / "ablation.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'ablation.csv'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="studies", help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    iteration_study(out_dir)
    radius_study(out_dir)
    ablation_study(out_dir)


if __name__ == "__main__":
    main()
