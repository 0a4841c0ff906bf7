"""Dataset plumbing: PGM I/O, resizing, augmentation, index files, synthesis.

Images live on disk as binary PGM (P5, maxval 255) and in memory as uint8
arrays until tensor ingest scales them to [0,1]. Masks are strictly {0,255}
on disk and {0,1} after ingest. All randomness flows through seeded
generators; augmentation derives one stream per (seed, sample id) so results
do not depend on iteration order.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM files."""


class IndexFileError(ValueError):
    """Raised for malformed or inconsistent dataset index files."""


# -- PGM I/O -------------------------------------------------------------------


def _pgm_tokens(blob: bytes, path):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    while True:
        while i < len(blob) and blob[i:i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
            continue
        if i >= len(blob):
            raise PgmError(f"{path}: truncated header")
        start = i
        while i < len(blob) and not blob[i:i + 1].isspace():
            i += 1
        yield blob[start:i], i


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into an H x W uint8 array."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"P2":
        raise PgmError(f"{path}: ASCII graymap (P2) is not supported, expected binary P5")
    if blob[:2] != b"P5":
        raise PgmError(f"{path}: bad magic {blob[:2]!r}, expected P5")
    tokens = _pgm_tokens(blob, path)
    next(tokens)  # the magic itself
    fields = []
    for _ in range(3):
        token, end = next(tokens)
        if not token.isdigit():
            raise PgmError(f"{path}: non-numeric header field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise PgmError(f"{path}: maxval {maxval} not supported, expected 255")
    if width < 1 or height < 1:
        raise PgmError(f"{path}: invalid dimensions {width}x{height}")
    payload = blob[end + 1:]
    if len(payload) < width * height:
        raise PgmError(f"{path}: truncated payload, expected {width * height} bytes, "
                       f"got {len(payload)}")
    if len(payload) > width * height:
        raise PgmError(f"{path}: {len(payload) - width * height} trailing bytes after payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def save_pgm(image: np.ndarray, path) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise PgmError(f"save_pgm needs a 2-D uint8 array, got {image.dtype} {image.shape}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def to_unit(image: np.ndarray) -> np.ndarray:
    """uint8 bytes -> float32 in [0,1]."""
    return (np.asarray(image, dtype=np.float32) / 255.0).astype(np.float32)


def to_bytes(probs: np.ndarray) -> np.ndarray:
    """float probabilities in [0,1] -> uint8 via round(p*255)."""
    return np.floor(np.asarray(probs, dtype=np.float64) * 255.0 + 0.5).clip(0, 255).astype(np.uint8)


# -- resizing --------------------------------------------------------------------


def resize(image: np.ndarray, target: int, mode: str) -> np.ndarray:
    """Square resize with the half-pixel-center convention.

    bilinear for images, nearest for masks (binary stays binary). Resizing
    to the current size is the identity in both modes.
    """
    if target < 1:
        raise ValueError(f"target size must be >= 1, got {target}")
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"mode must be 'bilinear' or 'nearest', got {mode!r}")
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"resize expects a 2-D array, got shape {image.shape}")
    h, w = image.shape
    if (h, w) == (target, target):
        return image.copy()

    dst = np.arange(target, dtype=np.float64)
    sy = (dst + 0.5) * (h / target) - 0.5
    sx = (dst + 0.5) * (w / target) - 0.5

    if mode == "nearest":
        iy = np.clip(np.floor((dst + 0.5) * (h / target)).astype(np.int64), 0, h - 1)
        ix = np.clip(np.floor((dst + 0.5) * (w / target)).astype(np.int64), 0, w - 1)
        return image[np.ix_(iy, ix)].copy()

    y0 = np.clip(np.floor(sy).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(sy - y0, 0.0, 1.0).reshape(-1, 1)
    wx = np.clip(sx - x0, 0.0, 1.0).reshape(1, -1)
    img = image.astype(np.float64)
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    out = top * (1 - wy) + bot * wy
    if image.dtype == np.uint8:
        return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)
    return out.astype(image.dtype)


# -- augmentation ------------------------------------------------------------------


@dataclass
class AugmentConfig:
    max_rotation_deg: float = 10.0
    max_shift_frac: float = 0.10
    enabled: bool = True

    def __post_init__(self):
        if self.max_rotation_deg < 0:
            raise ValueError(f"max_rotation_deg must be >= 0, got {self.max_rotation_deg}")
        if not 0.0 <= self.max_shift_frac < 0.5:
            raise ValueError(f"max_shift_frac must be in [0, 0.5), got {self.max_shift_frac}")


def _sample_grid(image: np.ndarray, sy: np.ndarray, sx: np.ndarray, mode: str) -> np.ndarray:
    """Sample image at fractional source coords, clamping to the edges."""
    h, w = image.shape
    if mode == "nearest":
        iy = np.clip(np.floor(sy + 0.5).astype(np.int64), 0, h - 1)
        ix = np.clip(np.floor(sx + 0.5).astype(np.int64), 0, w - 1)
        return image[iy, ix].copy()
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    wy = sy - y0
    wx = sx - x0
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    img = image.astype(np.float64)
    out = (img[y0c, x0c] * (1 - wy) * (1 - wx) + img[y0c, x1c] * (1 - wy) * wx
           + img[y1c, x0c] * wy * (1 - wx) + img[y1c, x1c] * wy * wx)
    if image.dtype == np.uint8:
        return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)
    return out.astype(image.dtype)


def augment(image: np.ndarray, mask: np.ndarray, cfg: AugmentConfig,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random rotation plus per-axis shifts, identical transform for both.

    Inverse mapping: each output pixel pulls from rotate(-angle) then
    un-shifted source coordinates; out-of-range reads replicate the nearest
    edge. The image resamples bilinearly, the mask with nearest so it stays
    binary. Draw order (angle, dy, dx) is part of the determinism contract.
    """
    if image.shape != mask.shape:
        raise ValueError(f"image shape {image.shape} != mask shape {mask.shape}")
    if not cfg.enabled:
        return image, mask
    angle = np.deg2rad(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg))
    dy = rng.uniform(-cfg.max_shift_frac, cfg.max_shift_frac) * image.shape[0]
    dx = rng.uniform(-cfg.max_shift_frac, cfg.max_shift_frac) * image.shape[1]

    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    ry = yy - cy - dy
    rx = xx - cx - dx
    cos_a, sin_a = np.cos(-angle), np.sin(-angle)
    sy = cos_a * ry - sin_a * rx + cy
    sx = sin_a * ry + cos_a * rx + cx
    return _sample_grid(image, sy, sx, "bilinear"), _sample_grid(mask, sy, sx, "nearest")


def sample_stream(seed: int, sample_id: str) -> np.random.Generator:
    """Generator stream reproducibly derived from (run seed, sample id)."""
    digest = int.from_bytes(hashlib.sha256(sample_id.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([seed, digest])


# -- dataset index -----------------------------------------------------------------


@dataclass
class SampleRecord:
    id: str
    image_path: Path
    mask_path: Path
    split: str


def load_index(path) -> list[SampleRecord]:
    """Parse a tab-separated index and verify its integrity.

    Format: ``id<TAB>image<TAB>mask<TAB>train|test`` per line, # comments
    ignored, paths relative to the index file. Duplicate ids, missing files,
    and image/mask dimension mismatches are rejected with line numbers; an
    empty test split is legal but warned about.
    """
    path = Path(path)
    base = path.parent
    records = []
    seen = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise IndexFileError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        sid, image_rel, mask_rel, split = (p.strip() for p in parts)
        if split not in ("train", "test"):
            raise IndexFileError(f"{path}:{lineno}: split must be 'train' or 'test', got {split!r}")
        if sid in seen:
            raise IndexFileError(f"{path}:{lineno}: duplicate id {sid!r} (first seen on line {seen[sid]})")
        seen[sid] = lineno
        image_path = base / image_rel
        mask_path = base / mask_rel
        for p in (image_path, mask_path):
            if not p.is_file():
                raise IndexFileError(f"{path}:{lineno}: referenced file does not exist: {p}")
        img = load_pgm(image_path)
        msk = load_pgm(mask_path)
        if img.shape != msk.shape:
            raise IndexFileError(f"{path}:{lineno}: image is {img.shape} but mask is {msk.shape}")
        records.append(SampleRecord(sid, image_path, mask_path, split))
    if not records:
        raise IndexFileError(f"{path}: index contains no records")
    if not any(r.split == "test" for r in records):
        warnings.warn(f"{path}: index has an empty test split (training-only run)")
    return records


# -- synthetic dataset ----------------------------------------------------------------


def _draw_ellipses(rng: np.random.Generator, size: int) -> list:
    """0-2 random ellipses; ~30% of samples draw none (control analogue)."""
    if rng.random() < 0.3:
        return []
    n = int(rng.integers(1, 3))
    ellipses = []
    for _ in range(n):
        cy = rng.uniform(0.25 * size, 0.75 * size)
        cx = rng.uniform(0.25 * size, 0.75 * size)
        a = rng.uniform(0.12 * size, 0.28 * size)
        b = rng.uniform(0.12 * size, 0.28 * size)
        intensity = rng.uniform(0.55, 0.95)
        ellipses.append((cy, cx, a, b, intensity))
    return ellipses


def _render_sample(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, mask) uint8 pair fully determined by the generator state."""
    ellipses = _draw_ellipses(rng, size)
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    image = np.full((size, size), 0.12, dtype=np.float64)
    mask = np.zeros((size, size), dtype=bool)
    for cy, cx, a, b, intensity in ellipses:
        inside = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
        mask |= inside
        image = np.where(inside, np.maximum(image, intensity), image)
    image = image + rng.normal(0.0, 0.05, size=(size, size))
    image_bytes = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return image_bytes, np.where(mask, 255, 0).astype(np.uint8)


def synth_generate(count: int, size: int, seed: int, out_dir) -> Path:
    """Write a synthetic ellipse dataset and return the index path.

    Bright ellipses on a dark noisy background; the mask is the exact
    analytic ellipse interior. Every 5th sample is held out as test (80/20).
    Per-sample generator streams make the output byte-identical per seed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if size < 32 or size % 32 != 0:
        raise ValueError(f"size must be a positive multiple of 32, got {size}")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    lines = ["# synthetic ellipse dataset"]
    for i in range(count):
        sid = f"s{i:05d}"
        image, mask = _render_sample(np.random.default_rng([seed, i]), size)
        save_pgm(image, out_dir / "images" / f"{sid}.pgm")
        save_pgm(mask, out_dir / "masks" / f"{sid}.pgm")
        split = "test" if i % 5 == 4 else "train"
        lines.append(f"{sid}\timages/{sid}.pgm\tmasks/{sid}.pgm\t{split}")
    index_path = out_dir / "index.tsv"
    index_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return index_path
