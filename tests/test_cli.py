import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import contourflow
from contourflow import blas
from contourflow.autoinit import circle_to_contour, inscribed_circle
from contourflow.cli import main
from contourflow.edt import mask_to_dt
from contourflow.fileio import read_mask_pgm, read_pfm, write_mask_pgm, write_pfm, write_pgm
from contourflow.flow import lcdvf
from contourflow.metrics import evaluate
from contourflow.shapes import disk_mask, random_blob_mask, suite
from contourflow.snake import ParameterSet, SnakeConfig, evolve


@pytest.fixture
def disk_paths(tmp_path):
    mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
    mask_path = tmp_path / "disk.pgm"
    write_mask_pgm(mask_path, mask)
    return mask, mask_path


def read_result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


@pytest.fixture
def stacks(monkeypatch):
    """The node stack of every ``evolve_step`` call, in call order."""
    import contourflow.snake as snake_module

    seen = []
    original = snake_module.evolve_step

    def counting(nodes, *args):
        seen.append(nodes)
        return original(nodes, *args)

    monkeypatch.setattr(snake_module, "evolve_step", counting)
    return seen


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

    def test_rerun_is_byte_identical(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        stdouts = []
        for out in (out_a, out_b):
            assert main(["run", "--mask", str(mask_path), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            stdouts.append(captured.out)
            # timing goes to stderr only, as one JSON line of per-stage wall ms
            stage_ms = json.loads(captured.err)["stage_ms"]
            assert list(stage_ms) == ["read", "field", "init", "evolve", "rasterize",
                                      "metrics", "write"]
            assert all(ms >= 0.0 for ms in stage_ms.values())
        assert stdouts[0] == stdouts[1]
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["contour.json", "prediction.pgm", "result.json"]
        assert sorted(p.name for p in out_b.iterdir()) == names
        for name in names:
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

    def test_medical_run_computes_one_edt(self, tmp_path, disk_paths, monkeypatch):
        """The inscribed init reads the field's EDT instead of computing its own,
        and that EDT covers the mask's box: its foreground widened by the
        margin and the gradient's pixel, not the frame."""
        from contourflow import cli
        from contourflow.edt import edt_from_sites
        from contourflow.fields import bounding_box
        calls = []

        def counted(sites):
            calls.append(sites.shape)
            return edt_from_sites(sites)

        for module in ("edt", "autoinit", "metrics", "cli"):  # every binding of the name
            monkeypatch.setattr(f"contourflow.{module}.edt_from_sites", counted, raising=False)
        _, mask_path = disk_paths
        assert main(["run", "--mask", str(mask_path), "--profile", "medical",
                     "--out", str(tmp_path / "out")]) == 0
        pad = cli.BOX_MARGIN + 1
        box = tuple(min(span.stop + pad, size) - max(span.start - pad, 0)
                    for span, size in zip(bounding_box(disk_paths[0]), (64, 64)))
        assert box < (64, 64)
        assert calls == [box]

    def test_full_frame_energy_field_inscribed_init(self, tmp_path, capsys):
        """A full-frame mask has no field EDT, but its inscribed circle exists:
        the run starts from the full-frame construction and exits 0."""
        from contourflow.autoinit import circle_to_contour
        from oracles import inscribed_circle_full_frame
        mask = np.ones((24, 32), dtype=bool)
        mask_path = tmp_path / "full.pgm"
        write_mask_pgm(mask_path, mask)
        energy_path = tmp_path / "energy.pfm"
        write_pfm(energy_path, np.zeros(mask.shape))
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--field", f"energy:{energy_path}",
                     "--init", "inscribed", "--iters", "0", "--nodes", "16",
                     "--out", str(out)]) == 0
        want = circle_to_contour(inscribed_circle_full_frame(mask), 16, 32, 24)
        nodes = json.loads((out / "contour.json").read_text())["nodes"]
        assert np.allclose(nodes, want.nodes, rtol=0, atol=1e-6)

    def test_empty_mask_energy_field_inscribed_init(self, tmp_path, capsys):
        mask_path = tmp_path / "empty.pgm"
        write_mask_pgm(mask_path, np.zeros((16, 16), dtype=bool))
        energy_path = tmp_path / "energy.pfm"
        write_pfm(energy_path, np.zeros((16, 16)))
        assert main(["run", "--mask", str(mask_path), "--field", f"energy:{energy_path}",
                     "--init", "inscribed"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "mask has no foreground"

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
        """Each profile's settings reach result.json; the building profile
        is also what a run without ``--profile`` gets."""
        _, mask_path = disk_paths
        cases = [(["--profile", "medical"], (100, 10, "inscribed")),
                 (["--profile", "building"], (60, 50, "circumscribed")),
                 ([], (60, 50, "circumscribed"))]
        for i, (flags, (nodes, iters, init)) in enumerate(cases):
            out = tmp_path / f"out{i}"
            code = main(["run", "--mask", str(mask_path), *flags, "--out", str(out)])
            assert code == 0
            result = read_result(out)
            assert result["config"]["nodes"] == nodes
            assert result["config"]["iterations"] == iters
            assert result["config"]["init"] == init

    def test_bad_field_kind_is_usage_error(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        assert main(["run", "--mask", str(mask_path), "--field", "bogus"]) == 2

    @pytest.mark.parametrize("flags", [["--nodes", "2"], ["--tau", "-1"],
                                       ["--iters", "-1"], ["--clip", "0"],
                                       ["--clip", "nan"], ["--clip", "-1"],
                                       ["--tau", "inf"], ["--alpha", "-1"],
                                       ["--alpha", "nan"]])
    def test_bad_solver_setting_is_usage_error(self, tmp_path, disk_paths, capsys, flags):
        _, mask_path = disk_paths
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--out", str(out)] + flags) == 2
        assert not out.exists()
        # one JSON line: no warning may reach stderr first
        assert "bad configuration value" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("flag, value", [("--beta", "-1"), ("--beta", "nan"),
                                             ("--kappa", "nan"), ("--kappa", "inf"),
                                             ("--beta", "negative.pfm")])
    def test_bad_weight_map_is_usage_error(self, tmp_path, disk_paths, capsys, flag, value):
        mask, mask_path = disk_paths
        beta = np.full(mask.shape, 0.1)
        beta[5, 7] = -0.5
        write_pfm(tmp_path / "negative.pfm", beta)
        if value.endswith(".pfm"):
            value = str(tmp_path / value)
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--out", str(out), flag, value]) == 2
        assert not out.exists()
        error = json.loads(capsys.readouterr().err)["error"]
        assert flag[2:] in error and value in error

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

    def test_mask_from_config_file_matches_flag(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text(f"mask={mask_path}\niters=3\n")
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        assert main(["run", "--config", str(config), "--out", str(out_cfg)]) == 0
        assert main(["run", "--mask", str(mask_path), "--iters", "3",
                     "--out", str(out_flag)]) == 0
        assert (out_cfg / "result.json").read_bytes() == (out_flag / "result.json").read_bytes()

    def test_no_mask_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--iters", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a mask file is required" in json.loads(captured.err)["error"]
        assert not out.exists()

    def test_profile_flag_beats_config_profile(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("profile=medical\n")
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--config", str(config),
                     "--profile", "building", "--iters", "2", "--out", str(out)]) == 0
        result = read_result(out)
        assert result["config"]["profile"] == "building"
        assert result["config"]["nodes"] == 60

    def test_zero_iters_flag_beats_config_file(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("iters=3\n")
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--config", str(config),
                     "--iters", "0", "--out", str(out)]) == 0
        assert read_result(out)["config"]["iterations"] == 0

    @pytest.mark.parametrize("text, value", [("yes", True), ("off", False)])
    def test_boolean_config_value(self, tmp_path, disk_paths, text, value):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text(f"resample={text}\niters=2\n")
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--config", str(config),
                     "--out", str(out)]) == 0
        assert read_result(out)["config"]["resample"] is value

    def test_bad_boolean_config_value_names_key(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("resample=maybe\n")
        assert main(["run", "--mask", str(mask_path), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "resample" in error and "maybe" in error

    def test_unknown_config_profile_is_usage_error(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("profile=bogus\n")
        assert main(["run", "--mask", str(mask_path), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown profile 'bogus'" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("flag", ["--beta", "--kappa", "--field"])
    def test_map_of_another_shape_is_usage_error(self, tmp_path, disk_paths, capsys, flag):
        _, mask_path = disk_paths
        path = tmp_path / "small.pfm"
        write_pfm(path, np.full((32, 48), 0.1))
        value = f"energy:{path}" if flag == "--field" else str(path)
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), flag, value, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "has shape (32, 48), expected (64, 64)" in error

    def test_gt_of_another_size_is_usage_error(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        gt = tmp_path / "small.pgm"
        write_mask_pgm(gt, disk_mask(32, 48, (24.0, 16.0), 10.0))
        out = tmp_path / "out"
        assert main(["run", "--mask", str(mask_path), "--gt", str(gt), "--out", str(out)]) == 2
        assert not out.exists()
        error = json.loads(capsys.readouterr().err)["error"]
        assert "ground-truth shape (48, 32) does not match mask (64, 64)" in error


class TestSettingsEachCommandReads:
    """A config key that names a setting the command does not read is a
    usage error, like the flag that argparse never defines for it."""

    def _argv(self, command, tmp_path, mask_path):
        out = tmp_path / "report"
        if command == "learn":
            return ["learn", "--gt", str(mask_path), "--epochs", "1", "--out", str(out)], out
        if command == "batch":
            manifest = tmp_path / "manifest.txt"
            manifest.write_text(f"{mask_path} {mask_path}\n")
            return ["batch", "--manifest", str(manifest), "--out", str(out)], out
        return ["sweep", "--mask", str(mask_path), "--axis", "iterations",
                "--values", "1", "--out", str(out)], out

    @pytest.mark.parametrize("command, key", [
        ("learn", "alpha"), ("learn", "beta"), ("learn", "kappa"), ("learn", "out"),
        ("learn", "dump_frames"), ("batch", "gt"), ("batch", "out"),
        ("batch", "dump_frames"), ("sweep", "out"), ("sweep", "dump_frames")])
    def test_unread_config_key_rejected(self, tmp_path, disk_paths, capsys, command, key):
        _, mask_path = disk_paths
        argv, out = self._argv(command, tmp_path, mask_path)
        written = tmp_path / "from_config"
        value = str(written) if key in ("out", "dump_frames") else "1"
        config = tmp_path / "settings.cfg"
        config.write_text(f"{key}={value}\n")
        assert main(argv + ["--iters", "1", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{key}'" in json.loads(captured.err)["error"]
        assert not out.exists() and not written.exists()

    @pytest.mark.parametrize("flag, value", [("--alpha", "5"), ("--beta", "1"),
                                             ("--kappa", "1")])
    def test_learn_weight_flags_rejected(self, tmp_path, disk_paths, capsys, flag, value):
        _, mask_path = disk_paths
        argv, out = self._argv("learn", tmp_path, mask_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_learn_gt_from_config_file(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[3].mask)
        config = tmp_path / "learn.cfg"
        config.write_text(f"gt={gt_path}\n")
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        common = ["--epochs", "2", "--iters", "5", "--clip", "inf"]
        assert main(["learn", "--config", str(config), "--out", str(out_cfg)] + common) == 0
        assert main(["learn", "--gt", str(gt_path), "--out", str(out_flag)] + common) == 0
        names = sorted(p.name for p in out_flag.iterdir())
        assert sorted(p.name for p in out_cfg.iterdir()) == names
        for name in names:
            assert (out_cfg / name).read_bytes() == (out_flag / name).read_bytes()

    def test_one_parser_per_process_keeps_no_setting(self, tmp_path, disk_paths, capsys):
        """``main`` reuses one parser, and a flag of one call does not reach the next."""
        from contourflow import cli
        _, mask_path = disk_paths
        assert cli.build_parser() is cli.build_parser()
        short, plain = tmp_path / "short", tmp_path / "plain"
        assert main(["run", "--mask", str(mask_path), "--iters", "3", "--out", str(short)]) == 0
        assert main(["run", "--mask", str(mask_path), "--out", str(plain)]) == 0
        assert read_result(short)["config"]["iterations"] == 3
        assert read_result(plain)["config"]["iterations"] == cli.RunConfig.iters


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

    def test_report_keys_and_bytes(self, rng):
        """``as_dict`` lists the report's fields in order, and its JSON line
        is the one the former hand-built dict gave."""
        from contourflow import cli
        report = evaluate(random_blob_mask(rng, 32, 32), random_blob_mask(rng, 32, 32))
        payload = report.as_dict()
        assert list(payload) == ["iou", "dice", "boundf", "boundf_per_threshold"]
        former = {"iou": report.iou, "dice": report.dice, "boundf": report.boundf,
                  "boundf_per_threshold": list(report.boundf_per_threshold)}
        assert cli._json_line(payload) == json.dumps(cli._round6(former), separators=(", ", ": "))

    def test_dimension_mismatch_is_usage_error(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        other = tmp_path / "small.pgm"
        write_mask_pgm(other, np.ones((8, 8), dtype=bool))
        assert main(["metrics", "--pred", str(mask_path), "--gt", str(other)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]  # the message run and sweep give
        assert error == "ground-truth shape (8, 8) does not match mask (64, 64)"

    def test_text_output_matches_json(self, tmp_path, disk_paths, capsys):
        mask, mask_path = disk_paths
        pred = tmp_path / "pred.pgm"
        write_mask_pgm(pred, disk_mask(64, 64, (30.0, 33.0), 16.0))
        argv = ["metrics", "--pred", str(pred), "--gt", str(mask_path)]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        words = capsys.readouterr().out.split()
        assert words[0:6:2] == ["iou", "dice", "boundf"] and words[6] == "per-threshold"
        assert [float(w) for w in words[1:6:2]] == [
            payload["iou"], payload["dice"], payload["boundf"]]
        assert [float(w) for w in words[7:]] == payload["boundf_per_threshold"]


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

    @pytest.mark.parametrize("init", ["bogus"])
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
        assert "unknown init mode" in captured.err

    def test_circle_init_writes_parameter_maps(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.pgm"
        write_mask_pgm(gt_path, suite(64)[0].mask)
        out = tmp_path / "params"
        code = main(["learn", "--gt", str(gt_path), "--init", "circle:32,32,10",
                     "--epochs", "1", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "alpha.json", "beta.pfm", "history.json", "kappa.pfm"]

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

    def test_a_start_that_failed_before_its_field_fails_the_row_as_alone(
            self, tmp_path, disk_paths, capsys, monkeypatch):
        """An ``energy:`` field needs no EDT, so an empty mask's circumscribed
        start fails before its force is built, and the item fails only once
        the force is (``cli._forces``); its batch row carries the error the
        lone run exits 1 with."""
        from contourflow import cli
        _, mask_path = disk_paths
        empty, energy = tmp_path / "empty.pgm", tmp_path / "energy.pfm"
        write_mask_pgm(empty, np.zeros((64, 64), dtype=bool))
        write_pfm(energy, np.hypot(*np.mgrid[:64, :64]))
        built, build = [], cli._build_force
        monkeypatch.setattr(cli, "_build_force", lambda *args: built.append(1) or build(*args))
        common = ["--field", f"energy:{energy}", "--init", "circumscribed"]
        assert main(["run", "--mask", str(empty), *common]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error == "mask has no foreground" and built == [1]
        manifest = self._manifest(tmp_path, [(mask_path, mask_path), (empty, empty)])
        assert main(["batch", "--manifest", str(manifest), *common]) == 1
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert "error" not in rows[0] and rows[1]["error"] == error

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

    @pytest.mark.parametrize("flag", ["--beta", "--field"])
    def test_map_fitting_one_item_fails_only_the_other(self, tmp_path, disk_paths, capsys,
                                                        monkeypatch, flag):
        """The map is read once, however many items the batch has."""
        mask, mask_path = disk_paths
        small = tmp_path / "small.pgm"
        write_mask_pgm(small, disk_mask(48, 48, (24.0, 24.0), 14.0))
        path = tmp_path / "map.pfm"
        dist = mask_to_dt(mask)
        write_pfm(path, 0.5 * dist * dist if flag == "--field" else np.full(mask.shape, 0.1))
        value = f"energy:{path}" if flag == "--field" else str(path)
        reads = []

        def counted(map_path):
            reads.append(map_path)
            return read_pfm(map_path)

        monkeypatch.setattr("contourflow.cli.read_pfm", counted)
        manifest = self._manifest(tmp_path, [(mask_path, mask_path), (small, small),
                                             (mask_path, mask_path)])
        assert main(["batch", "--manifest", str(manifest), "--iters", "5", flag, value]) == 1
        assert reads == [str(path)]
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4 and "error" not in lines[0] and lines[2] == {**lines[0], "index": 2}
        assert "has shape (64, 64), expected (48, 48)" in lines[1]["error"]
        assert lines[3]["items"] == 3 and lines[3]["failed"] == 1

    def test_energy_field_is_built_once(self, tmp_path, disk_paths, capsys, monkeypatch):
        """Every item the energy map fits shares one force field, and each
        row equals a plain run of its item."""
        from contourflow.flow import energy_gradient_field
        mask, mask_path = disk_paths
        other = tmp_path / "other.pgm"
        write_mask_pgm(other, disk_mask(64, 64, (30.0, 34.0), 12.0))
        path = tmp_path / "energy.pfm"
        dist = mask_to_dt(mask)
        write_pfm(path, 0.5 * dist * dist)
        calls = []

        def counted(*args):
            calls.append(args)
            return energy_gradient_field(*args)

        monkeypatch.setattr("contourflow.cli.energy_gradient_field", counted)
        items = [mask_path, other, mask_path]
        manifest = self._manifest(tmp_path, [(item, item) for item in items])
        flags = ["--iters", "5", "--field", f"energy:{path}"]
        assert main(["batch", "--manifest", str(manifest), *flags]) == 0
        assert len(calls) == 1
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()][:-1]
        for index, (item, row) in enumerate(zip(items, rows)):
            out = tmp_path / f"run{index}"
            assert main(["run", "--mask", str(item), *flags, "--out", str(out)]) == 0
            metrics = read_result(out)["metrics"]
            assert [row["iou"], row["dice"], row["boundf"]] == [
                metrics["iou"], metrics["dice"], metrics["boundf"]]

    @pytest.mark.parametrize("text, message", [
        ("a.pgm b.pgm\nonly_one_column.pgm\n", "manifest.txt:2: expected '<image> <mask>'"),
        ("# nothing but a comment\n\n", "lists no items")], ids=["malformed", "empty"])
    def test_bad_manifest_is_usage_error(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(text)
        assert main(["batch", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in json.loads(captured.err)["error"]

    def test_bad_solver_setting_stops_before_any_item(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        manifest = self._manifest(tmp_path, [(mask_path, mask_path)] * 2)
        missing = str(tmp_path / "missing.pfm")
        for flags in (["--nodes", "2"], ["--clip", "0"], ["--clip", "nan"], ["--clip", "-1"],
                      ["--beta", "-1"], ["--kappa", "nan"], ["--field", "bogus"],
                      ["--init", "bogus"], ["--init", "circle:1,2"], ["--beta", missing],
                      ["--field", f"energy:{missing}"]):
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


def per_item_batch(argv):
    """The report text and exit code of ``batch`` with ``argv`` when every
    manifest item runs alone, one ``cli.run_pipeline`` call on a group of
    one each."""
    from contourflow import cli
    args = cli.build_parser().parse_args(argv)
    cfg, loaded = cli.resolve_run_config(args)
    rows = []
    for index, (image, mask) in enumerate(cli._parse_manifest(args.manifest)):
        row = {"index": index, "image": image, "mask": mask}
        try:
            [result] = cli.run_pipeline(cfg, [(cli.prepare(mask), loaded)])
        except cli.CliError as exc:
            result = exc
        if isinstance(result, cli.CliError):
            row["error"] = str(result)
        else:
            row.update(iou=result.report.iou, dice=result.report.dice,
                       boundf=result.report.boundf)
        rows.append(row)
    ok = [r for r in rows if "error" not in r]
    aggregate = {"aggregate": True, "items": len(rows), "failed": len(rows) - len(ok)}
    for key, name in (("iou", "miou"), ("dice", "mean_dice"), ("boundf", "mean_boundf")):
        aggregate[name] = float(np.mean([r[key] for r in ok])) if ok else 0.0
    text = "\n".join(cli._json_line(r) for r in rows + [aggregate]) + "\n"
    return text, 0 if len(ok) == len(rows) else 1


def test_traced_pipeline_needs_one_shared_force(tmp_path):
    """Without ``counts``, ``run_pipeline`` traces each item against one
    force's potential, so items with forces of their own are refused."""
    from contourflow import cli
    paths = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
    for path, center in zip(paths, (30.0, 34.0)):
        write_mask_pgm(path, disk_mask(64, 64, (center, center), 18.0))
    cfg, loaded = cli.resolve_run_config(cli.build_parser().parse_args(
        ["run", "--mask", str(paths[0])]))
    with pytest.raises(ValueError, match="share one force"):
        cli.run_pipeline(cfg, [(cli.prepare(str(path)), loaded) for path in paths])


class TestBatchGroups:
    """``batch`` evolves the items of one mask shape together, at most
    ``cli.GROUP_PIXELS`` pixels per group; its report is byte for byte the
    one of running each item alone."""

    @pytest.fixture
    def mixed(self, tmp_path):
        """Five 64² and five 128² fixtures in alternation, an unreadable and an
        empty mask, a 128² beta map and a 128² energy map."""
        small, large = suite(64), suite(128)
        paths = []
        for a, b in zip(small, large):
            for fx in (a, b):
                path = tmp_path / f"{fx.name}_{fx.mask.shape[0]}.pgm"
                write_mask_pgm(path, fx.mask)
                paths.append(path)
        empty = tmp_path / "empty.pgm"
        write_mask_pgm(empty, np.zeros((64, 64), dtype=bool))
        paths.insert(3, tmp_path / "missing.pgm")
        paths.insert(8, empty)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p} {p}\n" for p in paths))
        rng = np.random.default_rng(3)
        write_pfm(tmp_path / "beta128.pfm", rng.uniform(0.0, 0.3, (128, 128)))
        dist = mask_to_dt(large[0].mask)
        write_pfm(tmp_path / "energy128.pfm", 0.5 * dist * dist)
        return tmp_path, manifest

    @pytest.mark.parametrize("flags, collapse_steps, shape_errors", [
        ([], 0, 0),
        (["--kappa", "-4", "--iters", "60"], 5, 0),
        (["--beta", "{dir}/beta128.pfm", "--kappa", "-4", "--iters", "60"], 1, 6),
        (["--field", "energy:{dir}/energy128.pfm", "--resample", "--iters", "20"], 0, 6),
        (["--profile", "medical", "--field", "dvf", "--alpha", "0"], 0, 0),
    ], ids=["defaults", "collapsing", "beta-map", "energy-field", "medical-dvf"])
    def test_report_equals_items_run_alone(self, mixed, capsys, flags, collapse_steps,
                                           shape_errors):
        tmp_path, manifest = mixed
        flags = [f.format(dir=tmp_path) for f in flags]
        argv = ["batch", "--manifest", str(manifest), *flags]
        want_text, want_code = per_item_batch(argv)
        out = tmp_path / "report.jsonl"
        assert main([*argv, "--out", str(out)]) == want_code == 1
        assert capsys.readouterr().out == want_text
        assert out.read_text() == want_text
        # the inputs fail as intended: the unreadable and the empty mask, items
        # collapsing at distinct steps, maps that do not fit the 64² items
        errors = [json.loads(line).get("error", "") for line in want_text.splitlines()[:-1]]
        assert "missing.pgm" in errors[3] and errors[8]
        steps = [error.split("iteration ")[1].split(" ")[0] for error in errors
                 if "collapsed or reversed" in error]
        assert len(set(steps)) == len(steps) == collapse_steps
        assert sum("expected (64, 64)" in error for error in errors) == shape_errors

    def test_groups_by_shape_under_the_pixel_cap(self, tmp_path, capsys, stacks):
        """Five 64² items make one group; five 128² items make groups of four
        and one; a 256² item is a group of its own."""
        paths = []
        for a, b in zip(suite(64), suite(128)):
            for fx in (a, b):
                path = tmp_path / f"{fx.name}_{fx.mask.shape[0]}.pgm"
                write_mask_pgm(path, fx.mask)
                paths.append(path)
        big = tmp_path / "disk_256.pgm"
        write_mask_pgm(big, disk_mask(256, 256, (128.0, 128.0), 70.0))
        paths.append(big)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p} {p}\n" for p in paths))
        assert main(["batch", "--manifest", str(manifest), "--iters", "3"]) == 0
        assert [len(nodes) for nodes in stacks] == [5] * 3 + [4] * 3 + [1] * 3 + [1] * 3

    def test_groups_cap_node_systems(self, tmp_path, capsys, stacks):
        """At 100 nodes an item's (100, 100) system outweighs its 64² pixels,
        so twelve 64² items make two groups of six, not one of twelve."""
        paths = []
        for index in range(12):
            paths.append(tmp_path / f"item{index:02d}.pgm")
            write_mask_pgm(paths[-1], suite(64)[index % 5].mask)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p} {p}\n" for p in paths))
        assert main(["batch", "--manifest", str(manifest), "--nodes", "100",
                     "--iters", "3"]) == 0
        assert [len(nodes) for nodes in stacks] == [6] * 3 + [6] * 3

    def test_energy_items_make_one_group(self, tmp_path, capsys, stacks):
        """Five 128² items under one energy: map share one force, which the
        pixel cap counts once, so they make one group, not groups of four
        and one."""
        masks = [fx.mask for fx in suite(128)]
        paths = []
        for index, mask in enumerate(masks):
            paths.append(tmp_path / f"item{index}.pgm")
            write_mask_pgm(paths[-1], mask)
        dist = mask_to_dt(masks[0])
        write_pfm(tmp_path / "energy.pfm", 0.5 * dist * dist)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p} {p}\n" for p in paths))
        assert main(["batch", "--manifest", str(manifest), "--iters", "3",
                     "--field", f"energy:{tmp_path / 'energy.pfm'}"]) == 0
        assert [nodes.shape for nodes in stacks] == [(5, 60, 2)] * 3

    @pytest.mark.parametrize("flags", [[], ["--profile", "medical"]], ids=["building", "medical"])
    def test_reversed_manifest_gives_each_mask_its_row(self, mixed, capsys, flags):
        """Reversing the manifest regroups the items and their stacked EDTs;
        every mask still gets the same row."""
        tmp_path, manifest = mixed
        reverse = tmp_path / "reversed.txt"
        reverse.write_text("".join(reversed(manifest.read_text().splitlines(keepends=True))))
        keyed = []
        for path in (manifest, reverse):
            assert main(["batch", "--manifest", str(path), *flags]) == 1
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
            for row in rows:
                del row["index"]
            keyed.append({row["mask"]: row for row in rows})
        assert keyed[0] == keyed[1]
        assert len(keyed[0]) == 12

    def test_one_solver_step_per_iteration(self, tmp_path, capsys, stacks):
        """Twelve 64² items and 50 iterations make 50 stacked steps, not 600."""
        from contourflow.shapes import random_blob_mask

        rng = np.random.default_rng(4)
        masks = [fx.mask for fx in suite(64)] + [random_blob_mask(rng, 64, 64)
                                                 for _ in range(7)]
        paths = []
        for index, mask in enumerate(masks):
            paths.append(tmp_path / f"item{index:02d}.pgm")
            write_mask_pgm(paths[-1], mask)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p} {p}\n" for p in paths))
        assert main(["batch", "--manifest", str(manifest), "--iters", "50"]) == 0
        assert [nodes.shape for nodes in stacks] == [(12, 60, 2)] * 50


def per_row_sweep(capsys, common, axis, values, mask_path):
    """The CSV of ``sweep --axis axis --values values`` built from one
    separate ``run`` per row: its stdout metrics, or its error."""
    from contourflow.autoinit import circumscribed_circle
    center = circumscribed_circle(read_mask_pgm(mask_path)).center
    flag = {"iterations": "--iters", "field": "--field"}.get(axis, "--init")
    table = ["axis_value,iou,dice,boundf,error"]
    for value in values:
        setting = f"circle:{center[0]!r},{center[1]!r},{value}" if axis == "radius" else value
        code = main(["run", "--mask", str(mask_path), *common, flag, setting])
        captured = capsys.readouterr()
        cell = value.replace(",", ";")
        if code == 0:
            m = json.loads(captured.out)
            table.append(f"{cell},{m['iou']:.6f},{m['dice']:.6f},{m['boundf']:.6f},")
        else:
            assert code == 1
            error = json.loads(captured.err.strip().splitlines()[-1])["error"]
            table.append(f"{cell},,,,{error.replace(',', ';')}")
    return "\n".join(table) + "\n"


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

    def test_bad_iteration_value_is_usage_error(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "iterations",
                     "--values", "3,-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith("bad iterations value '-1'") and "iterations must be >= 0" in error

    def test_bad_field_value_is_usage_error(self, tmp_path, disk_paths, capsys):
        _, mask_path = disk_paths
        code = main(["sweep", "--mask", str(mask_path), "--axis", "field",
                     "--values", "lcdvf,bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown field kind" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("flags", [
        ["--mask", "{tmp}/missing.pgm", "--axis", "iterations", "--values", "1,2"],
        ["--field", "bogus", "--axis", "iterations", "--values", "1,2"],
        ["--beta", "{tmp}/missing.pfm", "--axis", "iterations", "--values", "1,2"],
        ["--axis", "iterations", "--values", "abc"],
        ["--axis", "init", "--values", "inscribed,bogus"],
        ["--axis", "init", "--values", "inscribed,circumscribed,circle:30,30"],
        ["--axis", "radius", "--values", "0"],
        ["--axis", "radius", "--values", "abc"]],
        ids=["missing-mask", "field", "missing-beta", "iterations-abc", "init",
             "init-short-circle", "radius-0", "radius-abc"])
    def test_setting_every_row_shares_stops_the_sweep(self, tmp_path, disk_paths, capsys,
                                                       monkeypatch, flags):
        """Whatever makes ``run`` exit 2 stops ``sweep`` with 2 before any row
        is computed."""
        from contourflow.cli import run_pipeline
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr("contourflow.cli.run_pipeline", counted)
        _, mask_path = disk_paths
        argv = ["sweep", "--mask", str(mask_path)] + [f.format(tmp=tmp_path) for f in flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)
        assert calls == []

    @pytest.mark.parametrize("flags", [
        ["--axis", "field", "--values", "lcdvf,dvf,energy:{map}"],
        ["--beta", "{map}", "--axis", "iterations", "--values", "1,2"]],
        ids=["energy-value", "beta"])
    def test_map_of_another_shape_stops_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                        flags):
        from contourflow.cli import run_pipeline
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr("contourflow.cli.run_pipeline", counted)
        mask_path = tmp_path / "disk.pgm"
        write_mask_pgm(mask_path, disk_mask(128, 128, (64.0, 64.0), 30.0))
        map_path = tmp_path / "map.pfm"
        write_pfm(map_path, np.full((64, 64), 0.1))
        argv = ["sweep", "--mask", str(mask_path)] + [f.format(map=map_path) for f in flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has shape (64, 64), expected (128, 128)" in json.loads(captured.err)["error"]
        assert calls == []

    @staticmethod
    def check_rows_equal_plain_runs(tmp_path, mask_path, capsys, common, axis, values):
        """The CSV, on stdout and in ``--out``, is the one of running each row
        alone (``per_row_sweep``), though the sweep reads its mask and
        computes its EDT once and evolves its rows together."""
        want = per_row_sweep(capsys, common, axis, values, mask_path)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--mask", str(mask_path), *common, "--axis", axis,
                     "--values", ",".join(values), "--out", str(out)])
        assert code == (1 if ",,,," in want else 0)
        assert capsys.readouterr().out == want == out.read_text()

    def test_init_sweep_rows_equal_plain_runs(self, tmp_path, disk_paths, capsys):
        self.check_rows_equal_plain_runs(tmp_path, disk_paths[1], capsys, ["--iters", "5"],
                                         "init", ["inscribed", "circumscribed", "circle:30,30,8"])

    @pytest.mark.parametrize("common, axis, values", [
        ([], "iterations", ["0", "3", "5"]),
        (["--iters", "5"], "field", ["lcdvf", "dvf"]),
        ([], "iterations", ["0", "1", "5", "10", "25", "50"]),
        (["--kappa", "-5"], "iterations", ["10", "46", "47", "48", "49", "200"]),
        (["--iters", "20"], "radius", ["6", "12", "18", "24", "30.5"]),
        (["--iters", "20"], "field", ["lcdvf", "dvf", "lcdvf"]),
        (["--profile", "medical"], "field", ["dvf", "lcdvf"]),
        (["--profile", "medical", "--kappa", "-5"], "iterations", ["2", "10", "39", "40", "100"]),
    ], ids=["iterations", "field", "iterations-long", "iterations-collapsing", "radius",
            "field-repeated", "medical-field", "medical-collapsing"])
    def test_sweep_rows_equal_plain_runs(self, tmp_path, disk_paths, capsys, common, axis,
                                         values):
        self.check_rows_equal_plain_runs(tmp_path, disk_paths[1], capsys, common, axis, values)

    @pytest.mark.parametrize("axis, values", [
        ("iterations", "1,2,3"), ("field", "lcdvf,dvf"), ("init", "inscribed,circumscribed"),
        ("radius", "8,12")], ids=["iterations", "field", "init", "radius"])
    def test_sweep_computes_one_edt(self, disk_paths, capsys, monkeypatch, axis, values):
        calls = []

        def counted(mask):
            calls.append(mask.shape)
            return mask_to_dt(mask)

        monkeypatch.setattr("contourflow.cli.mask_to_dt", counted)
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--axis", axis,
                     "--values", values]) == 0
        assert len(calls) == 1


class TestSweepGroups:
    """``sweep`` runs its rows through the one group pipeline on its one
    mask (``TestSweepCommand`` checks each CSV against rows run alone)."""

    def test_collapsing_sweep_fails_from_the_collapse_on(self, disk_paths, capsys):
        """Rows before the collapse score, and every row at or past it gets
        its message, from one evolution."""
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--kappa", "-5", "--axis",
                     "iterations", "--values", "10,46,47,48,49,200"]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        message = "contour collapsed or reversed at iteration 48 "
        assert [message in row for row in rows] == [False] * 3 + [True] * 3
        assert all(row.split(",")[1] for row in rows[:3])

    @pytest.mark.parametrize("axis, values, shapes", [
        ("iterations", "5,10,25,50,100,200", [(1, 60, 2)] * 200),
        ("init", "inscribed,circumscribed,circle:32,32,8", [(3, 60, 2)] * 50),
        ("radius", "6,10,14,18,22,26", [(6, 60, 2)] * 50),
        ("field", "lcdvf,dvf", [(2, 60, 2)] * 50),
    ], ids=["iterations", "init", "radius", "field"])
    def test_solver_steps(self, disk_paths, capsys, stacks, axis, values, shapes):
        """An iterations sweep steps as often as its largest count; the rows
        of the other axes step together, one stacked step per iteration."""
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--axis", axis,
                     "--values", values]) == 0
        assert [nodes.shape for nodes in stacks] == shapes

    def test_groups_cap_node_systems(self, disk_paths, capsys, stacks):
        """At 100 nodes eight radius rows make groups of six and two."""
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--nodes", "100", "--iters", "3",
                     "--axis", "radius", "--values", "6,8,10,12,14,16,18,20"]) == 0
        assert [len(nodes) for nodes in stacks] == [6] * 3 + [2] * 3

    def test_radius_rows_share_one_force(self, disk_paths, capsys, monkeypatch):
        from contourflow.flow import lcdvf
        calls = []

        def counted(*args):
            calls.append(args)
            return lcdvf(*args)

        monkeypatch.setattr("contourflow.cli.lcdvf", counted)
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--iters", "5", "--axis", "radius",
                     "--values", "6,10,14,18"]) == 0
        assert len(calls) == 1

    def test_repeated_field_values_build_each_force_once(self, disk_paths, capsys,
                                                         monkeypatch, stacks):
        """A repeated field row copies the force built for its value into
        its own slot: one ``lcdvf`` and one ``dvf`` call for three rows,
        and the rows of separate runs."""
        from contourflow.flow import dvf, lcdvf
        calls = []

        def counting(build):
            def counted(*args):
                calls.append(build.__name__)
                return build(*args)
            return counted

        _, mask_path = disk_paths
        want = per_row_sweep(capsys, ["--iters", "20"], "field",
                             ["lcdvf", "lcdvf", "dvf"], mask_path)
        stacks.clear()
        monkeypatch.setattr("contourflow.cli.lcdvf", counting(lcdvf))
        monkeypatch.setattr("contourflow.cli.dvf", counting(dvf))
        assert main(["sweep", "--mask", str(mask_path), "--iters", "20", "--axis", "field",
                     "--values", "lcdvf,lcdvf,dvf"]) == 0
        assert capsys.readouterr().out == want
        assert sorted(calls) == ["dvf", "lcdvf"]
        assert [nodes.shape for nodes in stacks] == [(3, 60, 2)] * 20

    @pytest.fixture
    def disk_256(self, tmp_path):
        path = tmp_path / "disk_256.pgm"
        write_mask_pgm(path, disk_mask(256, 256, (128.0, 128.0), 70.0))
        return path

    @pytest.mark.parametrize("axis, values, rows", [
        ("radius", "40,60,80,100", 4),
        ("init", "inscribed,circumscribed,circle:128,128,50", 3),
    ], ids=["radius", "init"])
    def test_rows_share_one_force_at_256(self, disk_256, capsys, monkeypatch, stacks,
                                         axis, values, rows):
        """On a 256² mask the rows still share one force: one ``lcdvf``
        call and one stacked step of every row per iteration."""
        from contourflow.flow import lcdvf
        calls = []

        def counted(*args):
            calls.append(args)
            return lcdvf(*args)

        monkeypatch.setattr("contourflow.cli.lcdvf", counted)
        assert main(["sweep", "--mask", str(disk_256), "--iters", "4", "--axis", axis,
                     "--values", values]) == 0
        assert len(calls) == 1
        assert [nodes.shape for nodes in stacks] == [(rows, 60, 2)] * 4

    def test_field_rows_at_256_are_groups_of_one(self, disk_256, capsys, stacks):
        """Two 256² forces are over the pixel cap, so each field row is a group."""
        assert main(["sweep", "--mask", str(disk_256), "--iters", "3", "--axis", "field",
                     "--values", "lcdvf,dvf"]) == 0
        assert [nodes.shape for nodes in stacks] == [(1, 60, 2)] * 6


class TestKeptSteps:
    """Each command keeps only the steps it reads, and only ``run`` builds
    an ``EvolutionTrace``."""

    @pytest.fixture
    def kept(self, monkeypatch):
        """The step counts held by each path ``evolve`` returns to the CLI or
        to ``fit_parameters``, and the number of traces the CLI builds."""
        import contourflow.cli as cli
        from contourflow import snake

        seen = {"paths": [], "traces": 0}

        def evolving(*args):
            paths = snake.evolve(*args)
            seen["paths"] += [list(path.contours) for path in paths]
            return paths

        def tracing(*args):
            seen["traces"] += 1
            return snake.EvolutionTrace(*args)

        monkeypatch.setattr(cli, "evolve", evolving)
        monkeypatch.setattr("contourflow.learning.evolve", evolving)
        monkeypatch.setattr(cli, "EvolutionTrace", tracing)
        return seen

    @pytest.mark.parametrize("argv, paths, traces", [
        (["run", "--mask", "{mask}", "--out", "{dir}/run"], [list(range(6))], 1),
        (["batch", "--manifest", "{dir}/manifest.txt"], [[0, 5]] * 2, 0),
        (["sweep", "--mask", "{mask}", "--axis", "radius", "--values", "8,12"], [[0, 5]] * 2, 0),
        (["sweep", "--mask", "{mask}", "--axis", "iterations", "--values", "4,2"], [[0, 2, 4]], 0),
        (["learn", "--gt", "{mask}", "--epochs", "2", "--out", "{dir}/learn"], [[0, 5]] * 2, 0),
    ], ids=["run", "batch", "sweep-radius", "sweep-iterations", "learn"])
    def test_paths_hold_the_steps_read(self, tmp_path, disk_paths, capsys, kept, argv,
                                       paths, traces):
        _, mask_path = disk_paths
        (tmp_path / "manifest.txt").write_text(f"{mask_path} {mask_path}\n" * 2)
        argv = [a.format(mask=mask_path, dir=tmp_path) for a in argv]
        assert main([*argv, "--iters", "5"]) == 0
        assert kept["paths"] == paths
        assert kept["traces"] == traces


class TestStageTimings:
    """``batch`` and ``sweep`` print one ``stage_ms`` line on stderr after
    their report, as ``run`` does; stdout and ``--out`` carry the report
    only."""

    STAGES = ["read", "field", "init", "evolve", "rasterize", "metrics", "write"]

    def test_lap_adds_to_the_stage_total(self, monkeypatch):
        from types import SimpleNamespace
        from contourflow import cli
        clock = iter([0.0, 1.0, 3.0, 6.0])
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        timer = cli.StageTimer()
        for stage in ("a", "b", "a"):
            timer.lap(stage)
        assert timer.ms == {"a": 4000.0, "b": 2000.0}

    @pytest.mark.parametrize("command", ["batch", "sweep"])
    def test_timings_reach_stderr_only(self, tmp_path, disk_paths, capsys, command):
        _, mask_path = disk_paths
        other = tmp_path / "other.pgm"
        write_mask_pgm(other, suite(64)[3].mask)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{mask_path} {mask_path}\n{other} {other}\n")
        if command == "batch":
            argv = ["batch", "--manifest", str(manifest), "--iters", "5"]
            want, _ = per_item_batch(argv)
        else:
            argv = ["sweep", "--mask", str(mask_path), "--iters", "5", "--axis", "radius",
                    "--values", "8,12"]
            want = per_row_sweep(capsys, ["--iters", "5"], "radius", ["8", "12"], mask_path)
        for side in ("a", "b"):
            out = tmp_path / f"{side}.out"
            assert main([*argv, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.out == out.read_text() == want
            [line] = captured.err.splitlines()
            stage_ms = json.loads(line)["stage_ms"]
            assert list(stage_ms) == self.STAGES
            assert all(ms >= 0.0 for ms in stage_ms.values())


class TestExitCodes:
    """Reading inputs fails with 2 and computing with 1, whichever command
    reads or computes."""

    @pytest.mark.parametrize("argv", [
        ["run"], ["dt", "--out", "{tmp}/dist.pfm"],
        ["learn", "--gt", "{mask}", "--epochs", "1", "--out", "{tmp}/params"],
        ["sweep", "--axis", "radius", "--values", "5"]],
        ids=["run", "dt", "learn", "sweep-radius"])
    def test_mask_without_foreground_is_compute_error(self, tmp_path, capsys, argv):
        empty = tmp_path / "empty.pgm"
        write_mask_pgm(empty, np.zeros((16, 16), dtype=bool))
        argv = [a.format(tmp=tmp_path, mask=empty) for a in argv]
        if argv[0] != "learn":
            argv += ["--mask", str(empty)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err.strip().splitlines()[-1])

    @staticmethod
    def _command_raising(monkeypatch, error):
        """Make the `run` command raise ``error``."""
        from contourflow import cli

        def command(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_run", command)

    def test_a_patched_command_runs_after_the_parser_is_built(self, tmp_path, monkeypatch,
                                                               capsys):
        """``build_parser`` is cached, so ``main`` must look up the command
        function at each call: a patch made after a first call takes effect."""
        from contourflow import cli
        mask = tmp_path / "disk.pgm"
        write_mask_pgm(mask, disk_mask(16, 16, (8.0, 8.0), 5.0))
        argv = ["metrics", "--pred", str(mask), "--gt", str(mask)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_cmd_metrics", lambda args: 7)
        assert main(argv) == 7

    def test_interrupt_exits_130_and_says_nothing(self, monkeypatch, capsys):
        self._command_raising(monkeypatch, KeyboardInterrupt())
        assert main(["run"]) == 130
        assert capsys.readouterr() == ("", "")

    def test_unexpected_failure_is_one_json_error_line(self, monkeypatch, capsys):
        self._command_raising(monkeypatch, RuntimeError("boom"))
        assert main(["run"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [json.dumps({"error": "unexpected failure: boom"})]

    def test_mask_without_foreground_is_a_sweep_row(self, tmp_path, capsys):
        empty = tmp_path / "empty.pgm"
        write_mask_pgm(empty, np.zeros((16, 16), dtype=bool))
        assert main(["sweep", "--mask", str(empty), "--axis", "iterations",
                     "--values", "1"]) == 1
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1,,,,") and "foreground" in rows[1]


class TestInputChecks:
    """A bad input file, config line or command value exits 2 with one JSON
    error line that says what is wrong."""

    @staticmethod
    def _error(argv):
        code, out, err = _quiet(argv)
        assert out == "" and len(err) == 1
        return code, json.loads(err[0])["error"]

    @pytest.mark.parametrize("header, problem", [
        (b"P5\n64 ab\n255\n", "bad PGM header (invalid literal for int() with base 10: b'ab')"),
        (b"P5\n0 64\n255\n", "bad PGM dimensions 0x64"),
        (b"P5\n64 0\n255\n", "bad PGM dimensions 64x0"),
    ], ids=["token", "width", "height"])
    def test_bad_pgm_header(self, tmp_path, disk_paths, header, problem):
        _, mask_path = disk_paths
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + bytes(64 * 64))
        assert self._error(["metrics", "--pred", str(bad), "--gt", str(mask_path)]) == (
            2, f"{bad}: {problem}")

    @pytest.mark.parametrize("payload, problem", [
        (b"P5\n2 2\n255\n" + bytes(4), "not a single-channel (Pf) PFM file"),
        (b"Pf\n2 2\nx\n" + bytes(16), "bad PFM header (could not convert string to float: b'x')"),
        (b"Pf\n0 2\n-1.0\n", "bad PFM dimensions 0x2"),
        (b"Pf\n2 1\n-1.0\n" + np.array([1.0, np.nan], dtype="<f4").tobytes(),
         "PFM contains non-finite values"),
    ], ids=["magic", "header", "dimensions", "nan"])
    def test_bad_pfm(self, tmp_path, disk_paths, payload, problem):
        _, mask_path = disk_paths
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(payload)
        assert self._error(["run", "--mask", str(mask_path), "--field", f"energy:{bad}"]) == (
            2, f"cannot load energy map {str(bad)!r}: {bad}: {problem}")

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("\n   \n# a comment\n  # another\niters=2\n")
        assert _quiet(["run", "--mask", str(mask_path), "--config", str(config),
                       "--out", str(tmp_path / "out")])[0] == 0
        assert read_result(tmp_path / "out")["config"]["iterations"] == 2

    def test_config_line_without_equals(self, tmp_path, disk_paths):
        _, mask_path = disk_paths
        config = tmp_path / "run.cfg"
        config.write_text("# iterations\niters 2\n")
        assert self._error(["run", "--mask", str(mask_path), "--config", str(config)]) == (
            2, f"{config}:2: expected key=value, got 'iters 2'")

    def test_learn_without_ground_truth(self, tmp_path):
        assert self._error(["learn", "--out", str(tmp_path / "params")]) == (
            2, "learn requires a ground-truth mask (--gt)")

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_sweep_without_values(self, disk_paths, values):
        _, mask_path = disk_paths
        argv = ["sweep", "--mask", str(mask_path), "--axis", "iterations", "--values", values]
        assert self._error(argv) == (2, "sweep needs at least one value")


class TestWriteFailures:
    """An output that cannot be written is an I/O error: exit 2 and one JSON
    error line naming the path. The target sits under a regular file, so
    no user, root included, can create it."""

    @pytest.fixture
    def blocked(self, tmp_path):
        (tmp_path / "file").write_text("not a directory\n")
        return tmp_path / "file" / "sub"

    def _assert_names(self, capsys, path):
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error.startswith(f"cannot write {path}")

    @pytest.mark.parametrize("flag", ["--out", "--dump-frames"])
    def test_run(self, disk_paths, blocked, capsys, flag):
        _, mask_path = disk_paths
        assert main(["run", "--mask", str(mask_path), "--iters", "2", flag, str(blocked)]) == 2
        self._assert_names(capsys, blocked)

    def test_dt(self, disk_paths, blocked, capsys):
        _, mask_path = disk_paths
        target = blocked / "dist.pfm"
        assert main(["dt", "--mask", str(mask_path), "--out", str(target)]) == 2
        self._assert_names(capsys, target)

    def test_learn(self, disk_paths, blocked, capsys):
        _, mask_path = disk_paths
        assert main(["learn", "--gt", str(mask_path), "--epochs", "1", "--iters", "2",
                     "--out", str(blocked)]) == 2
        self._assert_names(capsys, blocked)

    def test_batch(self, tmp_path, disk_paths, blocked, capsys):
        _, mask_path = disk_paths
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{mask_path} {mask_path}\n")
        assert main(["batch", "--manifest", str(manifest), "--iters", "2",
                     "--out", str(blocked)]) == 2
        self._assert_names(capsys, blocked)

    def test_sweep(self, disk_paths, blocked, capsys):
        _, mask_path = disk_paths
        assert main(["sweep", "--mask", str(mask_path), "--axis", "iterations",
                     "--values", "1", "--out", str(blocked)]) == 2
        self._assert_names(capsys, blocked)


class TestProcessResources:
    def test_twelve_mask_batch_peak(self, tmp_path, capsys, monkeypatch):
        """tracemalloc's peak over one `batch` call on the twelve 64² masks of
        the benchmark's `batch-small` at seed 4 (five suite fixtures, seven
        seeded blobs), caches warm. The stacked scoring gathers its disks
        64 points at a time, so the peak stays the solver's: it read 1630.8
        KiB, against 1638.6 KiB when each item was scored alone."""
        argv = self._twelve_mask_batch(tmp_path, monkeypatch)
        assert main(argv) == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 1638 * 1024

    @staticmethod
    def _twelve_mask_batch(tmp_path, monkeypatch):
        """The `batch` arguments over the twelve 64² masks of `batch-small`
        at seed 4 (five suite fixtures, seven seeded blobs), written under
        ``tmp_path``, the working directory from now on."""
        rng = np.random.default_rng(4)
        masks = [fx.mask for fx in suite(64)] + [random_blob_mask(rng, 64, 64)
                                                 for _ in range(7)]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inputs").mkdir()
        lines = []
        for i, mask in enumerate(masks):
            write_mask_pgm(tmp_path / f"inputs/m{i:02d}.pgm", mask)
            lines.append(f"inputs/m{i:02d}.pgm inputs/m{i:02d}.pgm\n")
        (tmp_path / "manifest.txt").write_text("".join(lines))
        return ["batch", "--manifest", "manifest.txt", "--profile", "building",
                "--out", "report.jsonl"]

    def test_boxed_run_peak(self, tmp_path, capsys):
        """tracemalloc's peak over one 256² medical `run --out` call on
        `run-large`'s blob03 at seed 4, caches warm. Its box is 34% of the
        frame, and every array of the run but the mask, its ground truth
        and the prediction is box-sized: it read 1773.7 KiB, against 3483.5
        KiB when the weights, the force and the potential were frame-sized.
        The bound is 60% of the 3416 KiB one `run_pipeline` call peaked at
        then."""
        rng = np.random.default_rng(4)
        mask = [random_blob_mask(rng, 256, 256) for _ in range(4)][3]
        write_mask_pgm(tmp_path / "blob03.pgm", mask)
        argv = ["run", "--mask", str(tmp_path / "blob03.pgm"), "--profile", "medical",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 0.6 * 3416 * 1024

    @staticmethod
    def _solver_calls(monkeypatch):
        """The "factor", "getrs" and "solve" calls ``evolve_step`` and its
        cached factors make from now on, in order, with those factors
        dropped first."""
        from contourflow import snake
        calls = []
        callers = (snake.evolve_step.__code__, snake._factored_system.__wrapped__.__code__)

        def spy(name, function):
            def spied(*args):
                if sys._getframe(1).f_code in callers:
                    calls.append(name)
                return function(*args)
            return spied

        snake._factored_system.cache_clear()
        monkeypatch.setattr(blas, "lu_factor", spy("factor", blas.lu_factor))
        monkeypatch.setattr(blas, "lu_solve", spy("getrs", blas.lu_solve))
        monkeypatch.setattr(snake, "_solve", spy("solve", snake._solve))
        return calls

    def test_a_medical_run_factors_at_most_twice(self, tmp_path, monkeypatch, capsys):
        """The medical profile's constant beta samples its one value at
        every node of this 256² run: where the factored gate holds, getrf
        factors the system once and getrs solves all ten steps, the first
        included."""
        from contourflow import snake
        mask = random_blob_mask(np.random.default_rng(4), 256, 256)
        write_mask_pgm(tmp_path / "blob.pgm", mask)
        calls = self._solver_calls(monkeypatch)
        assert main(["run", "--mask", str(tmp_path / "blob.pgm"), "--profile", "medical"]) == 0
        capsys.readouterr()
        if snake._factors_alike(100, 1, blas.pool_size()):
            assert calls == ["factor"] + ["getrs"] * 10
        else:
            assert calls == ["solve"] * 10

    def test_a_twelve_mask_batch_factors_once(self, tmp_path, monkeypatch, capsys):
        """The building profile's constant beta samples its one value at
        every node of the one group of twelve 64² contours: where the
        factored probe holds for n = 60 and K = 12, getrf factors the system
        once and getrs solves all fifty steps; else every step solves the
        stack."""
        from contourflow import snake
        argv = self._twelve_mask_batch(tmp_path, monkeypatch)
        calls = self._solver_calls(monkeypatch)
        assert main(argv) == 0
        capsys.readouterr()
        if snake._factors_alike(60, 12, 1):
            assert calls == ["factor"] + ["getrs"] * 50
        else:
            assert calls == ["solve"] * 50

    def test_learn_factors_only_in_its_first_epoch(self, tmp_path, monkeypatch, capsys):
        """`learn` starts from uniform maps, whose system repeats within the
        first epoch; every later epoch fits per-pixel maps, so its steps
        skip the lookup and solve as they did before the factored path."""
        from contourflow import learning
        write_mask_pgm(tmp_path / "disk.pgm", disk_mask(64, 64, (32.0, 32.0), 18.0))
        calls = self._solver_calls(monkeypatch)
        epochs, evolve_epoch = [], learning.evolve

        def counted(*args):
            epochs.append(len(calls))
            return evolve_epoch(*args)

        monkeypatch.setattr(learning, "evolve", counted)
        assert main(["learn", "--gt", str(tmp_path / "disk.pgm"), "--epochs", "3",
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(epochs) == 3
        first, later = calls[:epochs[1]], calls[epochs[1]:]
        assert first.count("factor") <= 1
        assert later == ["solve"] * 100

    def test_no_memory_map_no_library(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError("no memory map")

        monkeypatch.setattr(Path, "read_text", unreadable)
        assert blas._libraries.__wrapped__() == ()

    def test_no_lapack_no_factored_solve(self, monkeypatch):
        from contourflow import snake
        monkeypatch.setattr(blas, "_libraries", lambda: ())
        monkeypatch.setattr(blas, "_function", blas._function.__wrapped__)
        assert blas.lu_factor(np.eye(3)) is None
        assert snake._factors_alike.__wrapped__(5, 1, 1) is False

    def test_medical_evolution_same_bits_on_one_and_two_blas_threads(self):
        """`main` runs OpenBLAS on one thread; the medical profile's solves
        (n = 100) give the same bits on two."""
        setter = blas._function("set")
        if setter is None:
            pytest.skip("no OpenBLAS thread-count setter in this NumPy build")
        mask = random_blob_mask(np.random.default_rng(7), 256, 256)
        dt = mask_to_dt(mask)
        start = circle_to_contour(inscribed_circle(mask, dt), 100, 256, 256)
        vectors = lcdvf(dt, 2.0).vectors[None]
        params = ParameterSet.uniform(256, 256, alpha=0.01, beta=0.1, kappa=0.2)
        runs, before = [], blas.pool_size()
        try:
            for threads in (2, 1):
                setter(threads)
                [path] = evolve([start], vectors, params, SnakeConfig(iterations=10))
                runs.append([c.nodes.tobytes() for c in path.contours.values()])
        finally:
            setter(before)
        assert len(runs[0]) == 11 and runs[0] == runs[1]

    def test_no_blas_setter_changes_nothing_and_says_so(self, monkeypatch, capsys):
        monkeypatch.setattr(blas, "_libraries", lambda: ())
        monkeypatch.setattr(blas, "_function", blas._function.__wrapped__)
        assert blas.pin.__wrapped__() is None
        assert "BLAS thread count left as is" in capsys.readouterr().err

    def test_lookup_prefers_numpys_ilp64_library_to_an_earlier_mapped_one(self, monkeypatch):
        """The memory map lists libraries by address, so SciPy's LP64
        OpenBLAS can come before NumPy's ILP64 one; the getter and the
        setter both come from NumPy's."""
        lp64 = SimpleNamespace(scipy_openblas_get_num_threads=SimpleNamespace(),
                               scipy_openblas_set_num_threads=SimpleNamespace())
        ilp64 = SimpleNamespace(scipy_openblas_get_num_threads64_=SimpleNamespace(),
                                scipy_openblas_set_num_threads64_=SimpleNamespace())
        monkeypatch.setattr(blas, "_libraries", lambda: (lp64, ilp64))
        setter = blas._function.__wrapped__("set")
        getter = blas._function.__wrapped__("get")
        assert setter is ilp64.scipy_openblas_set_num_threads64_
        assert getter is ilp64.scipy_openblas_get_num_threads64_
        assert (setter.argtypes, setter.restype) == ([ctypes.c_int], None)
        assert (getter.argtypes, getter.restype) == ([], ctypes.c_int)

    def test_cli_pins_numpys_pool_with_scipy_loaded(self, tmp_path):
        """With SciPy's OpenBLAS mapped beside NumPy's and a two-thread pool
        asked for, a CLI call leaves NumPy's pool, read through the library
        under NumPy's own directory, on one thread."""
        pytest.importorskip("scipy.linalg")
        if not Path("/proc/self/maps").exists():
            pytest.skip("no memory map to find NumPy's OpenBLAS in")
        write_mask_pgm(tmp_path / "disk.pgm", disk_mask(32, 32, (16.0, 16.0), 9.0))
        script = """
import ctypes, json, re, sys
from pathlib import Path
import numpy as np
import scipy.linalg
from contourflow.cli import main

system, rhs = np.diag([2.0, 3.0, 4.0]), np.ones(3)
scipy.linalg.solve(system, rhs)
np.linalg.solve(system, rhs)
maps = Path("/proc/self/maps").read_text()
paths = [path for path in dict.fromkeys(re.findall(r"/\\S*openblas\\S*\\.so\\S*", maps))
         if path.startswith(str(Path(np.__file__).parent))]
library = ctypes.CDLL(paths[0]) if paths else None
getters = [getattr(library, name, None) for name in (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "openblas_get_num_threads")]
getter = next((g for g in getters if g is not None), None)
if getter is None:
    print(json.dumps(None))
    sys.exit()
before = getter()
code = main(["dt", "--mask", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([before, code, getter()]))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(contourflow.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "disk.pgm"),
                               str(tmp_path / "dt.pfm")],
                              env=env, capture_output=True, text=True, check=True)
        read = json.loads(done.stdout.splitlines()[-1])
        if read is None:
            pytest.skip("no OpenBLAS with a thread-count getter under NumPy's directory")
        before, code, after = read
        if before == 1:
            pytest.skip("NumPy's OpenBLAS pool already runs one thread")
        assert code == 0
        assert after == 1


def _quiet(argv):
    """Exit code, stdout, and the stderr lines other than the timings, of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), [line for line in err.getvalue().splitlines()
                                  if not line.startswith('{"stage_ms"')]


def _pixel(height, width, row, col):
    mask = np.zeros((height, width), dtype=bool)
    mask[row, col] = True
    return mask


@st.composite
def _box_masks(draw):
    """A small mask that touches the frame's edges, is one pixel, is one
    pixel thin, or is two blobs in opposite corners."""
    height, width = draw(st.integers(12, 48)), draw(st.integers(12, 48))
    v, u = np.mgrid[:height, :width]
    kind = draw(st.sampled_from(["edges", "pixel", "thin", "blobs"]))
    mask = np.zeros((height, width), dtype=bool)
    if kind == "edges":  # a disk cut by one or two of the frame's edges
        cu = draw(st.sampled_from([0, width // 2, width - 1]))
        cv = draw(st.sampled_from([0, height - 1]))
        radius = draw(st.floats(2.0, 9.0))
        mask = (u - cu) ** 2 + (v - cv) ** 2 <= radius * radius
    elif kind == "pixel":
        mask[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    elif kind == "thin":  # a straight or diagonal line one pixel wide
        length = draw(st.integers(2, min(height, width)))
        top = draw(st.integers(0, height - length))
        left = draw(st.integers(0, width - length))
        dv, du = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
        mask[top + dv * np.arange(length), left + du * np.arange(length)] = True
    else:
        radius = draw(st.floats(1.0, 3.0))
        for cu, cv in ((3, 3), (width - 4, height - 4)):
            mask |= (u - cu) ** 2 + (v - cv) ** 2 <= radius * radius
    return mask


class TestBox:
    """A group whose forces come from its masks builds its EDTs and forces on
    a box, and goes back to the frame the first time a contour leaves it.
    `run --out` files, `batch` rows and `sweep` tables must equal those of
    the frame path, which a margin wider than any frame forces, also where
    large balloon weights, long time steps or far starts push contours out."""

    @staticmethod
    def outputs(tmp, argvs, margin):
        """Under ``margin``: every command's exit code, stdout, error lines
        and `run` files; and per command, the box of each ``evolve`` call
        and the step of each exit from a box."""
        from contourflow import cli
        from contourflow.snake import LeftBox
        boxes, exits = [], []

        def spy(*args):
            boxes[-1].append(args[5])
            try:
                return evolve(*args)
            except LeftBox as exc:
                exits[-1].append(exc.iteration)
                raise

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BOX_MARGIN", margin)
            patch.setattr(cli, "evolve", spy)
            seen = []
            for argv in argvs:
                boxes.append([])
                exits.append([])
                out = tmp / f"run_{margin}"
                seen.append(_quiet([a.format(out=out) for a in argv]))
                if argv[0] == "run":
                    seen.append({p.name: p.read_bytes() for p in sorted(out.glob("*"))})
        return seen, boxes, exits

    @settings(max_examples=100, deadline=None)
    @given(mask=_box_masks(), profile=st.sampled_from(["building", "medical"]),
           init=st.sampled_from(["inscribed", "circumscribed", "far"]),
           field=st.sampled_from(["lcdvf", "dvf", "energy"]),
           kappa=st.sampled_from(["0.2", "3", "-0.5"]), tau=st.sampled_from(["0.1", "2"]),
           iters=st.integers(0, 12), margin=st.sampled_from([0, 1, 2, 8]),
           axis=st.sampled_from(["init", "field", "radius", "iterations"]))
    # the balloon leaves the box at step 4, the last: its energy must read the frame
    @example(mask=disk_mask(40, 30, (20.0, 0.0), 3.0), profile="building", init="circumscribed",
             field="lcdvf", kappa="3", tau="2", iters=4, margin=8, axis="iterations")
    # a one-pixel foreground's box must hold background: the EDT needs some
    @example(mask=_pixel(12, 12, 0, 0), profile="building", init="inscribed", field="lcdvf",
             kappa="0.2", tau="0.1", iters=0, margin=0, axis="init")
    # a circumscribed start, a circle half a pixel out, widens the box
    @example(mask=_pixel(12, 12, 5, 5), profile="building", init="circumscribed",
             field="lcdvf", kappa="0.2", tau="0.1", iters=0, margin=0, axis="radius")
    def test_outputs_equal_the_frame_path(self, mask, profile, init, field, kappa, tau, iters,
                                          margin, axis):
        import tempfile
        height, width = mask.shape
        far = f"circle:{width - 3.5},{height - 2.5},2.5"  # in the corner opposite a blob
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            write_mask_pgm(tmp / "mask.pgm", mask)
            write_mask_pgm(tmp / "flipped.pgm", mask[::-1, ::-1])
            write_pfm(tmp / "energy.pfm", np.hypot(*np.mgrid[:height, :width]))
            (tmp / "manifest.txt").write_text(f"{tmp}/mask.pgm {tmp}/mask.pgm\n"
                                              f"{tmp}/flipped.pgm {tmp}/flipped.pgm\n")
            energy = f"energy:{tmp}/energy.pfm"
            common = ["--profile", profile, "--init", far if init == "far" else init,
                      "--field", energy if field == "energy" else field, "--kappa", kappa,
                      "--tau", tau, "--iters", str(iters)]
            values = {"init": f"inscribed,circumscribed,{far}", "field": f"lcdvf,dvf,{energy}",
                      "radius": "2,5", "iterations": f"0,{iters}"}[axis]
            argvs = [["run", "--mask", f"{tmp}/mask.pgm", *common, "--out", "{out}"],
                     ["batch", "--manifest", f"{tmp}/manifest.txt", *common],
                     ["sweep", "--mask", f"{tmp}/mask.pgm", *common, "--axis", axis,
                      "--values", values]]
            boxed, _, exits = self.outputs(tmp, argvs, margin)
            framed, boxes, _ = self.outputs(tmp, argvs, 1 << 20)
        assert all(box is None for calls in boxes for box in calls)
        assert boxed == framed
        for argv, steps in zip(argvs, exits):
            # a start known before the EDT lies in its box, and with a margin
            # of two pixels an inscribed one does too
            if margin >= 2 or "inscribed" not in " ".join(argv):
                assert 0 not in steps

    def test_a_balloon_leaving_its_box_falls_back(self, tmp_path):
        mask = disk_mask(64, 64, (32.0, 32.0), 6.0)
        write_mask_pgm(tmp_path / "mask.pgm", mask)
        argv = [["run", "--mask", f"{tmp_path}/mask.pgm", "--kappa", "5", "--iters", "30",
                 "--out", "{out}"]]
        boxed, _, [exits] = self.outputs(tmp_path, argv, 8)
        assert exits and 0 not in exits
        assert boxed == self.outputs(tmp_path, argv, 1 << 20)[0]

    def test_a_box_covering_the_frame_runs_no_check(self, tmp_path, monkeypatch):
        from contourflow import cli
        boxes = []
        monkeypatch.setattr(cli, "evolve", lambda *args: boxes.append(args[5]) or evolve(*args))
        write_mask_pgm(tmp_path / "mask.pgm", disk_mask(24, 24, (12.0, 12.0), 5.0))
        assert _quiet(["run", "--mask", f"{tmp_path}/mask.pgm", "--iters", "2"])[0] == 0
        monkeypatch.setattr(cli, "BOX_MARGIN", 0)
        assert _quiet(["run", "--mask", f"{tmp_path}/mask.pgm", "--iters", "2"])[0] == 0
        assert boxes[0] is None and boxes[1] is not None
