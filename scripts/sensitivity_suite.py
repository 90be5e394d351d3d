"""Desk-scale sensitivity studies on the bundled shape suite.

Reproduces three study families as CSV tables:
  * iterations.csv  - metrics over the evolution iteration count
  * radius.csv      - metrics over the initialization circle radius,
                      for the distance-scaled flow and the unscaled
                      distance-potential baseline
  * ablation.csv    - force-field and balloon ablations per fixture

Usage: python scripts/sensitivity_suite.py --out studies/
"""

import argparse
from pathlib import Path

import numpy as np

from contourflow.autoinit import circle_to_contour, circumscribed_circle, inscribed_circle
from contourflow.edt import mask_to_dt
from contourflow.fields import Circle, rasterize
from contourflow.flow import dvf, energy_gradient_field, lcdvf
from contourflow.metrics import evaluate
from contourflow.shapes import full_suite
from contourflow.snake import ParameterSet, SnakeConfig, evolve

NODES = 60
ALPHA = 0.01
BETA = 0.1
KAPPA = 0.2


def run_once(mask, init_mode, field="lcdvf", iterations=50, kappa=KAPPA,
             init_circle=None):
    height, width = mask.shape
    dist = mask_to_dt(mask)
    builders = {"lcdvf": lcdvf, "dvf": dvf,
                "dt_potential": lambda d, c: energy_gradient_field(d, c)}
    force = builders[field](dist, np.inf)
    if init_circle is None:
        init_circle = (inscribed_circle(mask) if init_mode == "inscribed"
                       else circumscribed_circle(mask))
    start = circle_to_contour(init_circle, NODES, width, height)
    params = ParameterSet.uniform(width, height, alpha=ALPHA, beta=BETA, kappa=kappa)
    final, _ = evolve(start, force, params, SnakeConfig(iterations=iterations))
    return evaluate(rasterize(final, width, height), mask)


def iteration_study(out_dir: Path) -> None:
    rows = ["fixture,size,iterations,iou,dice,boundf"]
    for fx in full_suite():
        for iters in (5, 10, 25, 50, 100, 200):
            r = run_once(fx.mask, fx.init_mode, iterations=iters)
            rows.append(f"{fx.name},{fx.size},{iters},"
                        f"{r.iou:.6f},{r.dice:.6f},{r.boundf:.6f}")
    (out_dir / "iterations.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'iterations.csv'}")


def radius_study(out_dir: Path) -> None:
    rows = ["fixture,size,field,radius_ratio,iou,dice,boundf"]
    disks = [fx for fx in full_suite() if fx.name == "disk"]
    for fx in disks:
        circum = circumscribed_circle(fx.mask)
        for field in ("lcdvf", "dt_potential"):
            for ratio in np.linspace(0.25, 2.5, 10):
                init = Circle(circum.center, float(ratio * circum.radius))
                r = run_once(fx.mask, fx.init_mode, field=field, kappa=0.0,
                             init_circle=init)
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
        for field, kappa, label in variants:
            r = run_once(fx.mask, fx.init_mode, field=field, kappa=kappa)
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
