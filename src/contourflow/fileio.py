"""File formats: binary 8-bit PGM (P5) for images and masks, and
single-channel 32-bit PFM (Pf) for real-valued fields.

PFM payloads follow the usual convention: rows stored bottom-up, a
negative scale marking little-endian floats. All writes are atomic
(temp file in the target directory, then rename) and keep the mode of
a file they replace.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from pathlib import Path

import numpy as np

from .fields import as_field, as_mask

MASK_THRESHOLD = 128  # out of 255: a PGM value >= 128/255 of its file's maxval is foreground


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # as under open(): mode 0o666 less the umask, or the target's on a rerun
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# whitespace and "#" comments (to the line end) before one token of non-whitespace bytes
_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*(\S*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise ValueError("truncated header")
    return match.group(1), match.end()


def read_pgm(path) -> tuple[np.ndarray, int]:
    """8-bit binary PGM as a uint8 (H, W) array and its maxval."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary (P5) PGM file")
    pos = 2
    fields = []
    try:
        for _ in range(3):
            token, pos = _next_token(data, pos)
            fields.append(int(token))
    except ValueError as exc:
        raise ValueError(f"{path}: bad PGM header ({exc})") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace byte after maxval
    pixels = np.frombuffer(data[pos:pos + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated PGM pixel data")
    if pixels.max() > maxval:
        raise ValueError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(height, width).copy(), maxval


def _write_pgm_bytes(path, img: np.ndarray) -> None:
    """Write a 2-d uint8 array as a maxval-255 PGM."""
    height, width = img.shape
    atomic_write_bytes(path, b"P5\n%d %d\n255\n" % (width, height) + img.tobytes())


def write_pgm(path, image) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM image must be 2-d")
    _write_pgm_bytes(path, np.clip(img, 0, 255).astype(np.uint8))


def read_mask_pgm(path) -> np.ndarray:
    pixels, maxval = read_pgm(path)
    # value * 255 >= MASK_THRESHOLD * maxval, through the least value that meets it
    return pixels >= -(-MASK_THRESHOLD * maxval // 255)


def write_mask_pgm(path, mask) -> None:
    """Foreground 255, background 0, from a uint8 payload built directly."""
    _write_pgm_bytes(path, as_mask(mask).view(np.uint8) * np.uint8(255))


def read_pfm(path) -> np.ndarray:
    """Single-channel PFM as a float64 (H, W) array."""
    data = Path(path).read_bytes()
    if data.startswith(b"PF"):
        raise ValueError(f"{path}: 3-channel PFM is not supported")
    if not data.startswith(b"Pf"):
        raise ValueError(f"{path}: not a single-channel (Pf) PFM file")
    pos = 2
    try:
        w_tok, pos = _next_token(data, pos)
        h_tok, pos = _next_token(data, pos)
        s_tok, pos = _next_token(data, pos)
        width, height, scale = int(w_tok), int(h_tok), float(s_tok)
    except ValueError as exc:
        raise ValueError(f"{path}: bad PFM header ({exc})") from exc
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PFM dimensions {width}x{height}")
    pos += 1  # single whitespace byte after the scale
    dtype = "<f4" if scale < 0 else ">f4"
    if len(data) - pos < 4 * width * height:
        raise ValueError(f"{path}: truncated PFM pixel data")
    values = np.frombuffer(data[pos:pos + 4 * width * height], dtype=dtype)
    field = np.flipud(values.reshape(height, width)).astype(np.float64)
    if not np.isfinite(field).all():
        raise ValueError(f"{path}: PFM contains non-finite values")
    return field


def write_pfm(path, field) -> None:
    f = as_field(field)
    height, width = f.shape
    header = b"Pf\n%d %d\n-1.0\n" % (width, height)
    payload = np.flipud(f).astype("<f4").tobytes()
    atomic_write_bytes(path, header + payload)
