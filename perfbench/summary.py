"""Metrics from one measured record: end-to-end ones from the untraced
calls, per-layer ones from the spans of the traced calls.

Times of work that runs on one thread are scaled to a machine of fixed
speed. The worker times a fixed reference loop next to each call and
each set-up, and a time measured while that loop took ``ref_s`` is
reported as ``seconds * REFERENCE_S / ref_s``: the time the same work
would take on a machine where the loop takes ``REFERENCE_S``. On a
shared virtual machine the speed can drift by 2x within minutes; the
loop slows with a one-thread call, so the scaled times follow the
program and much less the machine. A call on two threads (``batch
--jobs 2``) slowed far less than the loop, so its times stay unscaled.
"""

from __future__ import annotations

import statistics

REFERENCE_S = 0.05
BUSY_RATIO = "cli.batch.busy_ratio"
OVERHEAD = "trace.overhead_ratio"
_QUANTITIES = {"calls": ("calls", 1.0), "ms": ("total_s", 1e3), "self_ms": ("self_s", 1e3)}


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``, at the
    speed at which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ref_s


def call_seconds(record, item) -> float:
    """A call's duration, scaled when the workload runs it on one thread."""
    if record["jobs"] > 1:
        return item["seconds"]
    return scaled(item["seconds"], item["ref_s"])


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failures(record) -> tuple[int, int]:
    """(attempted, failed) over every call of the run."""
    return (sum(i["attempted"] for i in record["items"]),
            sum(i["failed"] for i in record["items"]))


def end_to_end(record, setups) -> dict[str, float]:
    """``images_per_s`` and ``epochs_per_s`` divide work by the summed
    duration of the untraced calls; ``image_ms_p50`` is the median over
    calls of a call's duration per image; ``setup_s`` is the median
    scaled set-up time."""
    items = [i for i in record["items"] if not i["traced"]]
    busy = sum(call_seconds(record, i) for i in items)
    return {
        "setup_s": statistics.median(scaled(s["setup_s"], s["ref_s"]) for s in setups),
        "images_per_s": sum(i["images"] for i in items) / busy,
        "image_ms_p50": statistics.median(
            1e3 * call_seconds(record, i) / i["images"] for i in items),
        "epochs_per_s": sum(i["epochs"] for i in items) / busy,
        "miou": record["quality"]["miou"],
        "mean_boundf": record["quality"]["mean_boundf"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record, names) -> dict[str, float]:
    """Each ``<module>.<function>.<quantity>`` per image (per epoch when the
    record's layer unit is the epoch), summed over the traced calls. Span
    times are scaled by the traced calls' summed scaled over unscaled
    duration. A layer with no spans reads 0."""
    traced = [i for i in record["items"] if i["traced"]]
    untraced = [i for i in record["items"] if not i["traced"]]
    units = sum(i["epochs" if record["layer_unit"] == "epoch" else "images"] for i in traced)
    wall = sum(i["seconds"] for i in traced)
    speed = sum(call_seconds(record, i) for i in traced) / wall
    layers = record["layers"]
    values = {}
    for name in names:
        if name == BUSY_RATIO:
            busy = layers.get("cli.run_pipeline", {}).get("total_s", 0.0)
            values[name] = busy / (wall * record["jobs"])
        elif name == OVERHEAD:
            values[name] = (sum(call_seconds(record, i) for i in traced)
                            / sum(call_seconds(record, i) for i in untraced) - 1.0)
        else:
            span, quantity = name.rsplit(".", 1)
            key, scale = _QUANTITIES[quantity]
            if quantity != "calls":
                scale *= speed
            values[name] = scale * layers.get(span, {}).get(key, 0) / units
    return values
