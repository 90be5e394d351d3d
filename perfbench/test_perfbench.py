"""Tests of the benchmark's own arithmetic and wrapping.

    python3 -m pytest -q perfbench
"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import summary  # noqa: E402
from tracing import ITEM_SPAN, Span, Tracer, covered, installed, layer_totals  # noqa: E402


def ticking_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]
    return clock


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, 0),
        Span(2, "inner", 1.0, 4.0, 1, 0),
        Span(3, "inner", 3.0, 6.0, 1, 0),  # overlaps its sibling, as threads do
        Span(4, "leaf", 2.0, 3.0, 2, 0),
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert totals["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert totals["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrapped_calls_nest_and_carry_the_item():
    tracer = Tracer(clock=ticking_clock())
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: leaf(x) * 2)
    with tracer.item(7):
        assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["leaf"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name[ITEM_SPAN].id
    assert by_name[ITEM_SPAN].parent is None
    assert {s.item for s in tracer.spans} == {7}
    # ticks: item 1..6, outer 2..5, leaf 3..4
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["self_s"] == 2.0
    assert totals[ITEM_SPAN]["self_s"] == 2.0


def test_spans_from_pool_threads_attach_to_the_item():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    with tracer.item(3):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    item = next(s for s in tracer.spans if s.name == ITEM_SPAN)
    assert [s.parent for s in tracer.spans if s.name == "work"] == [item.id]


def test_concurrent_spans_are_all_kept_with_unique_ids():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    threads_n, calls = 6, 2000

    def run():
        for _ in range(calls):
            work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == threads_n * calls
    assert len({s.id for s in tracer.spans}) == threads_n * calls
    assert all(s.parent is None for s in tracer.spans)


def test_installed_restores_originals_and_reports_absent_points(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.step = lambda: "step"
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original = module.step
    points = (("fake.step", "fake_layer", "step"),
              ("fake.gone", "fake_layer", "gone"),
              ("fake.lost", "no_such_module_anywhere", "f"))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, points) as absent:
            assert module.step is not original
            assert module.step() == "step"
            raise RuntimeError("the traced call failed")
    assert module.step is original
    assert absent == ["fake_layer.gone", "no_such_module_anywhere.f"]
    assert [s.name for s in tracer.spans] == ["fake.step"]


def item(seconds, images=1, epochs=1, traced=False, ref_s=summary.REFERENCE_S):
    return {"seconds": seconds, "ref_s": ref_s, "images": images, "epochs": epochs,
            "traced": traced, "attempted": images, "failed": 0}


def setups(*seconds, ref_s=summary.REFERENCE_S):
    return [{"setup_s": s, "ref_s": ref_s} for s in seconds]


def record(items, layers=None, layer_unit="image", jobs=1):
    return {"items": items, "layers": layers or {}, "layer_unit": layer_unit, "jobs": jobs,
            "quality": {"miou": 0.9, "mean_boundf": 0.8}, "peak_rss_mb": 50.0}


def test_image_ms_p50_is_the_median_per_image_time():
    odd = summary.end_to_end(record([item(0.3), item(0.1), item(0.2)]), setups(1.0, 3.0, 2.0))
    assert odd["image_ms_p50"] == pytest.approx(200.0)
    assert odd["setup_s"] == 2.0
    even = summary.end_to_end(record([item(0.4, 4), item(0.1), item(0.3), item(0.2)]),
                              setups(1.0))
    assert even["image_ms_p50"] == pytest.approx(150.0)
    assert even["images_per_s"] == pytest.approx(7 / 1.0)


def test_end_to_end_ignores_traced_calls():
    values = summary.end_to_end(record([item(1.0, 2, 40), item(9.0, 2, 40, traced=True)]),
                                setups(1.0))
    assert values["images_per_s"] == pytest.approx(2.0)
    assert values["epochs_per_s"] == pytest.approx(40.0)


def test_per_layer_values_are_per_unit_of_traced_work():
    layers = {"snake.evolve": {"calls": 4, "total_s": 0.2, "self_s": 0.05},
              "cli.run_pipeline": {"calls": 4, "total_s": 1.5, "self_s": 0.1}}
    rec = record([item(0.5, 2, 40), item(1.0, 2, 40, traced=True),
                  item(0.5, 2, 40), item(1.0, 2, 40, traced=True)],
                 layers=layers, layer_unit="epoch", jobs=2)
    names = ["snake.evolve.calls", "snake.evolve.ms", "snake.evolve.self_ms",
             "metrics.boundf.ms", summary.BUSY_RATIO, summary.OVERHEAD]
    values = summary.per_layer(rec, names)
    assert values["snake.evolve.calls"] == pytest.approx(4 / 80)
    assert values["snake.evolve.ms"] == pytest.approx(200.0 / 80)
    assert values["snake.evolve.self_ms"] == pytest.approx(50.0 / 80)
    assert values["metrics.boundf.ms"] == 0.0
    assert values[summary.BUSY_RATIO] == pytest.approx(1.5 / (2.0 * 2))
    assert values[summary.OVERHEAD] == pytest.approx(1.0)


def test_times_are_scaled_by_the_reference_loop_next_to_them():
    slow = 2 * summary.REFERENCE_S  # the machine ran at half speed
    values = summary.end_to_end(
        record([item(2.0, 2, ref_s=slow), item(0.5, 1, ref_s=summary.REFERENCE_S / 2)]),
        setups(0.4, 0.2, ref_s=slow))
    assert values["images_per_s"] == pytest.approx(3 / (1.0 + 1.0))
    assert values["image_ms_p50"] == pytest.approx(750.0)
    assert values["setup_s"] == pytest.approx(0.15)
    layers = {"edt.edt_from_sites": {"calls": 4, "total_s": 0.8, "self_s": 0.8}}
    rec = record([item(1.0, ref_s=slow), item(3.0, traced=True, ref_s=slow),
                  item(1.0, ref_s=summary.REFERENCE_S), item(1.0, traced=True, ref_s=slow)],
                 layers=layers)
    values = summary.per_layer(rec, ["edt.edt_from_sites.calls", "edt.edt_from_sites.ms",
                                     summary.OVERHEAD])
    assert values["edt.edt_from_sites.calls"] == 2.0
    assert values["edt.edt_from_sites.ms"] == pytest.approx(200.0)
    assert values[summary.OVERHEAD] == pytest.approx(2.0 / 1.5 - 1.0)


def test_two_thread_calls_stay_unscaled():
    slow = 2 * summary.REFERENCE_S
    rec = record([item(2.0, 4, ref_s=slow), item(2.0, 4, ref_s=slow)], jobs=2)
    values = summary.end_to_end(rec, setups(0.4, ref_s=slow))
    assert values["images_per_s"] == pytest.approx(2.0)
    assert values["image_ms_p50"] == pytest.approx(500.0)
    assert values["setup_s"] == pytest.approx(0.2)  # set-up runs on one thread


def test_spread_is_the_interquartile_range_over_the_median():
    assert summary.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert summary.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
