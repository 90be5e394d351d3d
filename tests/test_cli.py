import json

import numpy as np
import pytest

from contourflow.cli import main
from contourflow.edt import mask_to_dt
from contourflow.fileio import read_mask_pgm, read_pfm, write_mask_pgm, write_pgm
from contourflow.metrics import evaluate
from contourflow.shapes import disk_mask, suite


@pytest.fixture
def disk_paths(tmp_path):
    mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
    mask_path = tmp_path / "disk.pgm"
    write_mask_pgm(mask_path, mask)
    return mask, mask_path


def read_result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


class TestRun:
    def test_disk_building_profile(self, tmp_path, disk_paths, capsys):
        mask, mask_path = disk_paths
        out = tmp_path / "out"
        code = main(["run", "--mask", str(mask_path), "--profile", "building",
                     "--out", str(out)])
        assert code == 0
        result = read_result(out)
        assert result["metrics"]["iou"] >= 0.95
        assert (out / "prediction.pgm").exists()
        assert (out / "contour.json").exists()
        # metrics in result.json match a standalone scoring of the emitted mask
        pred = read_mask_pgm(out / "prediction.pgm")
        report = evaluate(pred, mask)
        assert result["metrics"]["iou"] == round(report.iou, 6)
        assert result["metrics"]["boundf"] == round(report.boundf, 6)

    def test_rerun_is_byte_identical(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--mask", str(mask_path), "--out", str(out)]) == 0
        for name in ("prediction.pgm", "contour.json", "result.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_iterations_returns_init_raster(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        out = tmp_path / "out"
        code = main(["run", "--mask", str(mask_path), "--iters", "0",
                     "--init", "circle:32,32,10", "--nodes", "120",
                     "--out", str(out)])
        assert code == 0
        pred = read_mask_pgm(out / "prediction.pgm")
        # prediction is the rasterized initialization circle
        uu, vv = np.meshgrid(np.arange(64.0), np.arange(64.0))
        inside = np.hypot(uu - 32, vv - 32) <= 10.0
        assert (pred ^ inside).sum() <= 12  # 120-gon vs circle: rim pixels only

    def test_missing_mask_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--mask", str(tmp_path / "absent.pgm"), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"]

    def test_dump_frames(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        frames = tmp_path / "frames"
        code = main(["run", "--mask", str(mask_path), "--iters", "5",
                     "--dump-frames", str(frames)])
        assert code == 0
        pgms = sorted(p.name for p in frames.glob("frame_*.pgm"))
        assert pgms == [f"frame_{i:04d}.pgm" for i in range(6)]
        polyline = json.loads((frames / "frame_0003.json").read_text())
        assert len(polyline["nodes"]) == 60

    def test_energy_field_mode(self, tmp_path, disk_paths):
        from contourflow.fileio import write_pfm
        mask, mask_path = disk_paths
        dist = mask_to_dt(mask)
        energy_path = tmp_path / "energy.pfm"
        write_pfm(energy_path, 0.5 * dist * dist)
        out = tmp_path / "out"
        code = main(["run", "--mask", str(mask_path), "--clip", "inf",
                     "--field", f"energy:{energy_path}", "--out", str(out)])
        assert code == 0
        assert read_result(out)["metrics"]["iou"] >= 0.9

    def test_config_file_and_flag_precedence(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("nodes=40\niters=3\n")
        out = tmp_path / "out"
        code = main(["run", "--mask", str(mask_path), "--config", str(config),
                     "--nodes", "24", "--out", str(out)])
        assert code == 0
        result = read_result(out)
        assert result["config"]["nodes"] == 24      # flag wins
        assert result["config"]["iterations"] == 3  # config file beats profile
        contour = json.loads((out / "contour.json").read_text())
        assert len(contour["nodes"]) == 24

    def test_medical_profile_defaults(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        out = tmp_path / "out"
        code = main(["run", "--mask", str(mask_path), "--profile", "medical",
                     "--out", str(out)])
        assert code == 0
        result = read_result(out)
        assert result["config"]["nodes"] == 100
        assert result["config"]["iterations"] == 10
        assert result["config"]["init"] == "inscribed"

    def test_bad_field_kind_is_usage_error(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        assert main(["run", "--mask", str(mask_path), "--field", "bogus"]) == 2

    @pytest.mark.parametrize("flags", [["--nodes", "2"], ["--tau", "-1"],
                                       ["--iters", "-1"], ["--clip", "0"],
                                       ["--clip", "nan"], ["--clip", "-1"]])
    def test_bad_solver_setting_is_usage_error(self, tmp_path, disk_paths, capsys, flags):
        _, mask_path = disk_paths
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--out", str(out)] + flags) == 2
        assert not out.exists()
        assert "bad configuration value" in capsys.readouterr().err

    def test_non_numeric_config_value_names_key(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("iters=abc\n")
        code = main(["run", "--mask", str(mask_path), "--config", str(config)])
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert "iters" in error and "abc" in error

    def test_unknown_config_key_lists_accepted_keys(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("iter=500\n")
        code = main(["run", "--mask", str(mask_path), "--config", str(config)])
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert "'iter'" in error and "iters" in error and "profile" in error

    def test_image_flag_rejected(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mask", str(mask_path), "--image", "x.pgm", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_image_config_key_rejected(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("image=x.pgm\n")
        code = main(["run", "--mask", str(mask_path), "--config", str(config)])
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert "'image'" in error and "accepted: profile, mask, gt, field" in error


class TestCollapse:
    """A deflating balloon that folds the contour through itself stops the
    run with a computation failure naming the iteration."""

    ARGS = ["--init", "circumscribed", "--kappa", "-5", "--iters", "200", "--nodes", "60"]

    @pytest.fixture
    def collapse_mask(self, tmp_path):
        path = tmp_path / "disk20.pgm"
        write_mask_pgm(path, disk_mask(64, 64, (32, 32), 20))
        return path

    def test_run_exits_one(self, tmp_path, collapse_mask, capsys):
        out = tmp_path / "out"
        code = main(["run", "--mask", str(collapse_mask), *self.ARGS, "--out", str(out)])
        assert code == 1
        assert not (out / "result.json").exists()
        assert "reversed at iteration 47" in capsys.readouterr().err

    def test_batch_reports_the_item_and_exits_one(self, tmp_path, collapse_mask, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{collapse_mask} {collapse_mask}\n")
        code = main(["batch", "--manifest", str(manifest), *self.ARGS])
        assert code == 1
        item, agg = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert "reversed at iteration 47" in item["error"]
        assert agg["failed"] == 1


class TestMetricsCommand:
    def test_json_output(self, tmp_path, disk_paths, capsys):
        mask, mask_path = disk_paths
        code = main(["metrics", "--pred", str(mask_path), "--gt", str(mask_path),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["iou"] == 1.0
        assert payload["dice"] == 1.0
        assert payload["boundf"] == 1.0
        assert payload["boundf_per_threshold"] == [1.0] * 5

    def test_dimension_mismatch_is_usage_error(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        other = tmp_path / "small.pgm"
        write_mask_pgm(other, np.ones((8, 8), dtype=bool))
        assert main(["metrics", "--pred", str(mask_path), "--gt", str(other)]) == 2


class TestDtCommand:
    def test_writes_distance_field(self, tmp_path, disk_paths):
        mask, mask_path = disk_paths
        out = tmp_path / "dist.pfm"
        assert main(["dt", "--mask", str(mask_path), "--out", str(out)]) == 0
        got = read_pfm(out)
        want = mask_to_dt(mask)
        assert np.abs(got - want).max() <= 1e-6  # float32 storage

    def test_empty_mask_is_compute_error(self, tmp_path):
        empty = tmp_path / "empty.pgm"
        write_pgm(empty, np.zeros((8, 8), dtype=np.uint8))
        assert main(["dt", "--mask", str(empty), "--out", str(tmp_path / "o.pfm")]) == 1


class TestLearnCommand:
    def test_writes_parameter_maps(self, tmp_path, capsys):
        fx = suite(64)[3]  # u_shape
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, fx.mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--epochs", "3", "--lr", "1e-3",
                     "--clip", "inf", "--out", str(out)])
        assert code == 0
        alpha = json.loads((out / "alpha.json").read_text())
        assert alpha["alpha"] >= 0.0
        assert read_pfm(out / "beta.pfm").shape == (64, 64)
        assert read_pfm(out / "kappa.pfm").shape == (64, 64)
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"baseline_iou", "best_iou", "epochs"} <= set(summary)

    def test_history_has_one_iou_per_epoch(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[3].mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--epochs", "4", "--lr", "1e-3",
                     "--clip", "inf", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        history = json.loads((out / "history.json").read_text())["iou_history"]
        assert len(history) == 4
        assert max(history) == summary["best_iou"]
        assert history[0] == summary["baseline_iou"]

    def test_mask_config_key_rejected(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        mask_path = tmp_path / "other.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        write_mask_pgm(mask_path, suite(64)[3].mask)
        config = tmp_path / "learn.cfg"
        config.write_text(f"mask={mask_path}\n")
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--config", str(config),
                     "--epochs", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'mask'" in json.loads(captured.err.strip().splitlines()[-1])["error"]
        assert not out.exists()

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--epochs", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-5"])
    def test_bad_learning_rate_is_usage_error(self, tmp_path, capsys, lr):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--epochs", "1", "--lr", lr,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "lr must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("init", ["bogus", "circle:32,32,10"])
    def test_unknown_init_mode_is_usage_error(self, tmp_path, capsys, init):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--init", init, "--epochs", "1",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inscribed or circumscribed" in captured.err

    def test_mask_flag_rejected(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        mask_path = tmp_path / "other.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        write_mask_pgm(mask_path, suite(64)[3].mask)
        out = tmp_path / "params"
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--gt", str(gt_path), "--mask", str(mask_path),
                  "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestBatchCommand:
    def _manifest(self, tmp_path, entries):
        lines = [f"{img} {mask}" for img, mask in entries]
        path = tmp_path / "manifest.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_item_aggregate_equals_item(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)])
        code = main(["batch", "--manifest", str(manifest)])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        item, agg = lines
        assert agg["aggregate"] and agg["items"] == 1 and agg["failed"] == 0
        assert agg["miou"] == item["iou"]

    def test_identical_items_identical_lines(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)] * 2)
        assert main(["batch", "--manifest", str(manifest), "--jobs", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        a, b = json.loads(lines[0]), json.loads(lines[1])
        assert a["iou"] == b["iou"] and a["boundf"] == b["boundf"]
        assert a["index"] == 0 and b["index"] == 1

    def test_failed_item_recorded_and_nonzero_exit(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(
            tmp_path, [(mask_path, mask_path), (mask_path, tmp_path / "nope.pgm")])
        code = main(["batch", "--manifest", str(manifest)])
        assert code == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert "error" in lines[1]
        assert lines[-1]["failed"] == 1
        assert lines[-1]["miou"] == lines[0]["iou"]  # aggregate over successes

    def test_bad_solver_setting_stops_before_any_item(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)] * 2)
        for flags in (["--nodes", "2"], ["--clip", "0"], ["--clip", "nan"], ["--clip", "-1"]):
            code = main(["batch", "--manifest", str(manifest)] + flags)
            assert code == 2
            assert capsys.readouterr().out == ""

    def test_mask_flag_rejected(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)])
        out = tmp_path / "report.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--manifest", str(manifest), "--mask", str(mask_path),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_mask_config_key_rejected(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)])
        config = tmp_path / "batch.cfg"
        config.write_text(f"mask={mask_path}\n")
        out = tmp_path / "report.jsonl"
        code = main(["batch", "--manifest", str(manifest), "--config", str(config),
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'mask'" in json.loads(captured.err.strip().splitlines()[-1])["error"]
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, disk_paths, capsys, jobs):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)])
        code = main(["batch", "--manifest", str(manifest), "--jobs", jobs])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs must be >= 1" in captured.err

    def test_image_column_is_a_label_only(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        missing = tmp_path / "missing.pgm"
        manifest = self._manifest(tmp_path, [(missing, mask_path)])
        assert main(["batch", "--manifest", str(manifest)]) == 0
        item, agg = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert item["image"] == str(missing) and "error" not in item
        assert agg["failed"] == 0

    def test_report_file_deterministic(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)])
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out_a)]) == 0
        assert main(["batch", "--manifest", str(manifest), "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_whole_suite_batch_reruns_bit_identical(self, tmp_path, capsys):
        from contourflow.shapes import full_suite
        entries = []
        for fx in full_suite():
            path = tmp_path / f"{fx.name}_{fx.size}.pgm"
            write_mask_pgm(path, fx.mask)
            entries.append((path, path))
        manifest = self._manifest(tmp_path, entries)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--jobs", "3",
                     "--out", str(out_a)]) == 0
        assert main(["batch", "--manifest", str(manifest), "--jobs", "1",
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSweepCommand:
    def test_single_radius_matches_plain_run(self, tmp_path, disk_paths, capsys):
        from contourflow.autoinit import circumscribed_circle
        mask, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "radius",
                     "--values", "18.6", "--clip", "inf"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "axis_value,iou,dice,boundf,error"
        cells = rows[1].split(",")
        assert cells[0] == "18.6" and cells[4] == ""
        # a single-value sweep row equals the corresponding plain run
        center = circumscribed_circle(mask).center
        out = tmp_path / "plain"
        assert main(["run", "--mask", str(mask_path), "--clip", "inf",
                     "--init", f"circle:{center[0]},{center[1]},18.6",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        result = read_result(out)
        assert float(cells[1]) == result["metrics"]["iou"]
        assert float(cells[3]) == result["metrics"]["boundf"]

    def test_iteration_sweep_is_stable(self, tmp_path, capsys):
        mask_path = tmp_path / "disk128.pgm"
        write_mask_pgm(mask_path, disk_mask(128, 128, (64.0, 64.0), 40.0))
        code = main(["sweep", "--mask", str(mask_path), "--axis", "iterations",
                     "--values", "10,50"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        iou_10 = float(rows[0].split(",")[1])
        iou_50 = float(rows[1].split(",")[1])
        assert iou_50 >= iou_10 - 0.02

    def test_field_sweep_emits_both_rows(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "field",
                     "--values", "lcdvf,dvf", "--out",
                     str(tmp_path / "sweep.csv")])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[1].startswith("lcdvf,") and rows[2].startswith("dvf,")

    def test_bad_iteration_value_leaves_error_row(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "iterations",
                     "--values", "3,-1"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[1].split(",")[4] == ""
        assert rows[2].startswith("-1,,,,") and "iterations must be >= 0" in rows[2]

    def test_bad_value_leaves_error_row(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "field",
                     "--values", "lcdvf,bogus"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[2].split(",")[1] == ""  # blank metrics
        assert "unknown field kind" in rows[2]