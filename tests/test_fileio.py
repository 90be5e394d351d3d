import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contourflow.fileio import (_next_token, atomic_write_bytes, atomic_write_text,
                                read_mask_pgm, read_pfm, read_pgm, write_mask_pgm, write_pfm,
                                write_pgm)
from contourflow.shapes import random_blob_mask

from oracles import next_token_reference

# every whitespace byte bytes.isspace accepts, the comment mark, digits,
# letters and bytes that are whitespace elsewhere (NUL, NEL, NBSP) or not ASCII
HEADER_BYTES = b" \t\n\r\v\f#0123456789-.eEPfx\x00\x85\xa0\xff"


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(13, 9)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        pixels, maxval = read_pgm(path)
        assert np.array_equal(pixels, img) and maxval == 255

    def test_mask_roundtrip_and_threshold(self, tmp_path, rng):
        mask = random_blob_mask(rng, 16, 16)
        path = tmp_path / "mask.pgm"
        write_mask_pgm(path, mask)
        assert np.array_equal(read_mask_pgm(path), mask)
        # values below 128 read as background, 128 and above as foreground
        gray = np.array([[0, 127, 128, 255]], dtype=np.uint8)
        write_pgm(tmp_path / "gray.pgm", gray)
        assert read_mask_pgm(tmp_path / "gray.pgm").tolist() == [[False, False, True, True]]

    def test_mask_threshold_scales_with_maxval(self, tmp_path):
        # with maxval 1 the foreground is written as 1; the threshold is the
        # same fraction of maxval as 128 is of 255
        path = tmp_path / "binary.pgm"
        path.write_bytes(b"P5\n4 1\n1\n" + bytes([0, 1, 1, 0]))
        assert read_mask_pgm(path).tolist() == [[False, True, True, False]]
        path.write_bytes(b"P5\n4 1\n7\n" + bytes([3, 4, 7, 0]))
        assert read_mask_pgm(path).tolist() == [[False, True, True, False]]

    def test_rejects_pixel_above_maxval(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 2\n7\n" + bytes([0, 7, 200, 1]))
        with pytest.raises(ValueError, match="pixel value 200 exceeds maxval 7"):
            read_pgm(path)
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_mask_pgm(path)

    def test_header_comments_allowed(self, tmp_path):
        payload = b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6)
        path = tmp_path / "c.pgm"
        path.write_bytes(payload)
        assert read_pgm(path)[0].shape == (2, 3)

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_rejects_16bit(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="8-bit"):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 3)])
    def test_write_refuses_a_non_2d_image(self, tmp_path, shape):
        with pytest.raises(ValueError) as raised:
            write_pgm(tmp_path / "img.pgm", np.zeros(shape))
        assert str(raised.value) == "PGM image must be 2-d"
        assert not list(tmp_path.iterdir())


class TestHeaderTokens:
    @settings(max_examples=500, deadline=None)
    @example(b"# 12\r34 ", 0)  # a comment ends at a lone carriage return
    @example(b" \v\f# 12 34", 0)  # a comment to the end leaves no token
    @example(b"P5 12#3\xa0 4", 2)  # "#" inside a token and NBSP are token bytes
    @given(st.lists(st.sampled_from(list(HEADER_BYTES)), max_size=40).map(bytes),
           st.integers(0, 42))
    def test_matches_the_byte_loop(self, data, pos):
        try:
            want = next_token_reference(data, pos)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                _next_token(data, pos)
        else:
            assert _next_token(data, pos) == want

    def test_comments_tabs_and_crlf(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # a comment\r\n3\t# width\r\n\t2\r\n#\r\n255\n" + bytes(range(6)))
        pixels, maxval = read_pgm(path)
        assert pixels.tolist() == [[0, 1, 2], [3, 4, 5]] and maxval == 255


class TestPfm:
    def test_roundtrip(self, tmp_path, rng):
        field = rng.normal(size=(11, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.pfm"
        write_pfm(path, field)
        assert np.array_equal(read_pfm(path), field)

    def test_header_format(self, tmp_path):
        write_pfm(tmp_path / "f.pfm", np.zeros((2, 3)))
        header = (tmp_path / "f.pfm").read_bytes()[:32]
        assert header.startswith(b"Pf\n3 2\n-1.0\n")

    def test_row_order_is_bottom_up(self, tmp_path):
        field = np.array([[1.0, 2.0], [3.0, 4.0]])
        write_pfm(tmp_path / "f.pfm", field)
        raw = (tmp_path / "f.pfm").read_bytes()
        payload = np.frombuffer(raw[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        assert payload.tolist() == [3.0, 4.0, 1.0, 2.0]

    def test_rejects_color_pfm(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + bytes(12))
        with pytest.raises(ValueError, match="3-channel"):
            read_pfm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + bytes(10))
        with pytest.raises(ValueError, match="truncated"):
            read_pfm(path)

    def test_big_endian_scale(self, tmp_path):
        values = np.array([[1.5, -2.0]], dtype=">f4")
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 1\n1.0\n" + values.tobytes())
        assert read_pfm(path).tolist() == [[1.5, -2.0]]


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert (tmp_path / "out.bin").read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, failure):
        # the target keeps its bytes and the error reaches the caller
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"first")
        if failure == "write":
            payload, error = "not bytes", TypeError
        else:
            def refused(src, dst):
                raise PermissionError("replace refused")
            monkeypatch.setattr(os, "replace", refused)
            payload, error = b"second", PermissionError
        with pytest.raises(error):
            atomic_write_bytes(target, payload)
        assert target.read_bytes() == b"first"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_overwrite_is_atomic(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # as under open(): 0o666 less the umask, for a new file and a rerun
        target = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            for text in ("first", "second"):
                atomic_write_text(target, text)
                assert stat.S_IMODE(target.stat().st_mode) == mode
        finally:
            os.umask(previous)

    def test_rerun_keeps_the_mode(self, tmp_path):
        # a mode set on an output survives a rerun, as under open()
        target = tmp_path / "result.json"
        previous = os.umask(0o022)
        try:
            atomic_write_text(target, "first")
            target.chmod(0o640)
            atomic_write_text(target, "second")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
