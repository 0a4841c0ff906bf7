"""Data tests: PGM I/O, resizing, augmentation, index parsing, synthesis."""

import numpy as np
import pytest

from osegnet.data import (AugmentConfig, IndexFileError, PgmError, augment,
                          load_index, load_pgm, resize, sample_stream, save_pgm,
                          synth_generate, to_bytes, to_unit)


def write_pgm(path, arr):
    save_pgm(np.asarray(arr, dtype=np.uint8), path)


class TestPgm:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (7, 11), dtype=np.uint8)
        p = tmp_path / "a.pgm"
        save_pgm(img, p)
        assert np.array_equal(load_pgm(p), img)

    def test_header_bytes_frozen(self, tmp_path):
        p = tmp_path / "b.pgm"
        save_pgm(np.zeros((2, 3), np.uint8), p)
        blob = p.read_bytes()
        assert blob == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_width_height_order(self, tmp_path):
        p = tmp_path / "c.pgm"
        payload = bytes(range(6))
        p.write_bytes(b"P5\n3 2\n255\n" + payload)  # 3 wide, 2 tall
        img = load_pgm(p)
        assert img.shape == (2, 3)
        assert img[1, 0] == 3

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + b"\x10" * 4)
        assert load_pgm(p).shape == (2, 2)

    def test_ascii_variant_distinct_diagnostic(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(PgmError, match="P2"):
            load_pgm(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"JUNK")
        with pytest.raises(PgmError, match="magic"):
            load_pgm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
        with pytest.raises(PgmError, match="truncated payload"):
            load_pgm(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 6)
        with pytest.raises(PgmError, match="trailing"):
            load_pgm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "j.pgm"
        p.write_bytes(b"P5\ntwo 2\n255\n" + b"\x00" * 4)
        with pytest.raises(PgmError, match="non-numeric"):
            load_pgm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "k.pgm"
        p.write_bytes(b"P5\n2")
        with pytest.raises(PgmError, match="truncated header"):
            load_pgm(p)

    def test_save_requires_uint8(self, tmp_path):
        with pytest.raises(PgmError):
            save_pgm(np.zeros((2, 2), np.float32), tmp_path / "x.pgm")
        with pytest.raises(PgmError):
            save_pgm(np.zeros((2, 2, 3), np.uint8), tmp_path / "x.pgm")


class TestScaling:
    def test_to_unit_endpoints(self):
        out = to_unit(np.array([0, 128, 255], np.uint8))
        assert out.dtype == np.float32
        assert out[0] == 0.0 and out[2] == 1.0
        assert abs(out[1] - 128 / 255) < 1e-7

    def test_to_unit_keeps_the_bytes_of_every_byte_value(self):
        # The float32 quotient, as the formula with a float32 cast after it
        # gave, and each value's float32 division by 255, one at a time.
        all_values = np.arange(256, dtype=np.uint8)
        out = to_unit(all_values)
        assert out.dtype == np.float32
        old = (np.asarray(all_values, dtype=np.float32) / 255.0).astype(np.float32)
        assert out.tobytes() == old.tobytes()
        assert out.tobytes() == np.array([np.float32(v) / np.float32(255) for v in range(256)]).tobytes()

    def test_to_bytes_rounding(self):
        out = to_bytes(np.array([0.0, 0.5, 1.0]))
        assert out.dtype == np.uint8
        assert list(out) == [0, 128, 255]

    def test_byte_roundtrip_is_identity(self):
        all_values = np.arange(256, dtype=np.uint8)
        assert np.array_equal(to_bytes(to_unit(all_values)), all_values)

    def test_to_bytes_clips(self):
        assert list(to_bytes(np.array([-0.5, 1.5]))) == [0, 255]


class TestResize:
    def test_same_size_is_identity_copy(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = resize(img, 4, "bilinear")
        assert np.array_equal(out, img)
        assert out is not img
        assert np.array_equal(resize(img, 4, "nearest"), img)

    def test_constant_image_stays_constant(self):
        img = np.full((8, 8), 77, np.uint8)
        for mode in ("bilinear", "nearest"):
            for target in (4, 16, 5):
                assert np.all(resize(img, target, mode) == 77)

    def test_nearest_downscale_picks_window_centers(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = resize(img, 2, "nearest")
        assert np.array_equal(out, [[5, 7], [13, 15]])

    def test_nearest_keeps_masks_binary(self):
        rng = np.random.default_rng(1)
        mask = np.where(rng.uniform(0, 1, (9, 9)) > 0.5, 255, 0).astype(np.uint8)
        for target in (3, 6, 18):
            out = resize(mask, target, "nearest")
            assert set(np.unique(out)) <= {0, 255}

    def test_bilinear_upscale_hand_oracle(self):
        img = np.array([[0.0, 100.0], [200.0, 300.0]])
        out = resize(img, 4, "bilinear")
        expected = np.array([
            [0, 25, 75, 100],
            [50, 75, 125, 150],
            [150, 175, 225, 250],
            [200, 225, 275, 300],
        ], dtype=np.float64)
        assert np.abs(out - expected).max() < 1e-9

    def test_uint8_bilinear_rounds(self):
        img = np.array([[0, 255]] * 2, np.uint8)
        out = resize(img, 4, "bilinear")
        assert out.dtype == np.uint8
        # interior columns blend 0 and 255 at 1/4 and 3/4
        assert list(out[0]) == [0, 64, 191, 255]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            resize(np.zeros((2, 2)), 0, "bilinear")
        with pytest.raises(ValueError):
            resize(np.zeros((2, 2, 1)), 2, "bilinear")
        with pytest.raises(ValueError):
            resize(np.zeros((2, 2)), 2, "cubic")


class ScriptedRng:
    """Duck-typed generator returning pre-scripted uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, lo, hi):
        return self.draws.pop(0)


class TestAugment:
    def test_disabled_returns_inputs(self):
        img = np.zeros((4, 4), np.uint8)
        mask = np.zeros((4, 4), np.uint8)
        cfg = AugmentConfig(enabled=False)
        out_img, out_mask = augment(img, mask, cfg, np.random.default_rng(0))
        assert out_img is img and out_mask is mask

    def test_zero_magnitude_is_identity(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        mask = np.where(rng.uniform(0, 1, (6, 6)) > 0.5, 255, 0).astype(np.uint8)
        cfg = AugmentConfig(max_rotation_deg=0.0, max_shift_frac=0.0)
        out_img, out_mask = augment(img, mask, cfg, np.random.default_rng(0))
        assert np.array_equal(out_img, img)
        assert np.array_equal(out_mask, mask)

    def test_pure_unit_shift_moves_content_down(self):
        img = np.zeros((3, 3), np.uint8)
        img[1, :] = 90
        mask = np.where(img > 0, 255, 0).astype(np.uint8)
        # draws: angle=0, dy = 1/3 * 3 = 1 pixel, dx = 0
        rng = ScriptedRng([0.0, 1.0 / 3.0, 0.0])
        cfg = AugmentConfig(max_rotation_deg=10.0, max_shift_frac=0.4)
        out_img, out_mask = augment(img, mask, cfg, rng)
        expected = np.zeros((3, 3), np.uint8)
        expected[2, :] = 90
        assert np.array_equal(out_img, expected)
        assert np.array_equal(out_mask, np.where(expected > 0, 255, 0))

    def test_edge_clamp_replicates_border(self):
        img = np.zeros((3, 3), np.uint8)
        img[0, :] = 200  # top row bright
        rng = ScriptedRng([0.0, -1.0 / 3.0, 0.0])  # pull content up one row
        cfg = AugmentConfig(max_shift_frac=0.4)
        out_img, _ = augment(img, img.copy(), cfg, rng)
        assert np.all(out_img == 0)  # bright row shifted out, edge rows replicate

    def test_out_of_range_reads_replicate_edges(self):
        # Rotation corners and shifted-in borders read outside the source; a
        # constant image and a full mask stay constant only if those reads
        # take the edge values rather than a fill constant.
        img = np.full((8, 8), 200, np.uint8)
        mask = np.full((8, 8), 255, np.uint8)
        cfg = AugmentConfig(max_rotation_deg=30.0, max_shift_frac=0.4)
        for seed in range(5):
            out_img, out_mask = augment(img, mask, cfg, np.random.default_rng(seed))
            assert np.all(out_img == 200) and np.all(out_mask == 255)

    def test_mask_stays_binary_under_rotation(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        mask = np.where(rng.uniform(0, 1, (16, 16)) > 0.7, 255, 0).astype(np.uint8)
        for seed in range(5):
            _, out_mask = augment(img, mask, AugmentConfig(), np.random.default_rng(seed))
            assert set(np.unique(out_mask)) <= {0, 255}

    def test_shapes_preserved(self):
        img = np.zeros((8, 8), np.uint8)
        out_img, out_mask = augment(img, img.copy(), AugmentConfig(), np.random.default_rng(4))
        assert out_img.shape == (8, 8) and out_mask.shape == (8, 8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            augment(np.zeros((4, 4), np.uint8), np.zeros((2, 2), np.uint8),
                    AugmentConfig(), np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(max_rotation_deg=-1.0)
        with pytest.raises(ValueError):
            AugmentConfig(max_shift_frac=0.5)

    def test_same_stream_same_result(self):
        img = np.random.default_rng(5).integers(0, 256, (8, 8), dtype=np.uint8)
        mask = np.where(img > 128, 255, 0).astype(np.uint8)
        a = augment(img, mask, AugmentConfig(), sample_stream(7, "s1/epoch0"))
        b = augment(img, mask, AugmentConfig(), sample_stream(7, "s1/epoch0"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSampleStream:
    def test_deterministic_per_key(self):
        a = sample_stream(3, "abc").uniform(size=4)
        b = sample_stream(3, "abc").uniform(size=4)
        assert np.array_equal(a, b)

    def test_distinct_ids_decorrelate(self):
        a = sample_stream(3, "abc").uniform(size=4)
        b = sample_stream(3, "abd").uniform(size=4)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_decorrelate(self):
        a = sample_stream(3, "abc").uniform(size=4)
        b = sample_stream(4, "abc").uniform(size=4)
        assert not np.array_equal(a, b)


class TestIndex:
    def make_dataset(self, root, lines, size=8):
        (root / "im").mkdir(exist_ok=True)
        (root / "mk").mkdir(exist_ok=True)
        for sid in ("a", "b", "c"):
            write_pgm(root / "im" / f"{sid}.pgm", np.zeros((size, size), np.uint8))
            write_pgm(root / "mk" / f"{sid}.pgm", np.zeros((size, size), np.uint8))
        index = root / "index.tsv"
        index.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return index

    def test_well_formed(self, tmp_path):
        index = self.make_dataset(tmp_path, [
            "# comment",
            "",
            "a\tim/a.pgm\tmk/a.pgm\ttrain",
            "b\tim/b.pgm\tmk/b.pgm\ttrain",
            "c\tim/c.pgm\tmk/c.pgm\ttest",
        ])
        records = load_index(index)
        assert [r.id for r in records] == ["a", "b", "c"]
        assert [r.split for r in records] == ["train", "train", "test"]
        assert records[0].image_path.is_file()

    def test_paths_relative_to_index_not_cwd(self, tmp_path, monkeypatch):
        index = self.make_dataset(tmp_path, ["a\tim/a.pgm\tmk/a.pgm\ttest"])
        monkeypatch.chdir(tmp_path.parent)
        records = load_index(index)
        assert records[0].image_path.is_file()

    def test_field_count_diagnostic_has_line_number(self, tmp_path):
        index = self.make_dataset(tmp_path, ["a\tim/a.pgm\tmk/a.pgm"])
        with pytest.raises(IndexFileError, match=":1:"):
            load_index(index)

    def test_bad_split(self, tmp_path):
        index = self.make_dataset(tmp_path, ["a\tim/a.pgm\tmk/a.pgm\tval"])
        with pytest.raises(IndexFileError, match="split"):
            load_index(index)

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        index = self.make_dataset(tmp_path, [
            "a\tim/a.pgm\tmk/a.pgm\ttrain",
            "a\tim/b.pgm\tmk/b.pgm\ttest",
        ])
        with pytest.raises(IndexFileError, match="line 1"):
            load_index(index)

    def test_missing_file(self, tmp_path):
        index = self.make_dataset(tmp_path, ["a\tim/zz.pgm\tmk/a.pgm\ttrain"])
        with pytest.raises(IndexFileError, match="does not exist"):
            load_index(index)

    def test_dimension_mismatch(self, tmp_path):
        index = self.make_dataset(tmp_path, ["a\tim/a.pgm\tmk/small.pgm\ttrain"])
        write_pgm(tmp_path / "mk" / "small.pgm", np.zeros((4, 4), np.uint8))
        with pytest.raises(IndexFileError, match="image is"):
            load_index(index)

    def test_empty_index_rejected(self, tmp_path):
        index = self.make_dataset(tmp_path, ["# nothing here"])
        with pytest.raises(IndexFileError, match="no records"):
            load_index(index)

    def test_train_only_warns(self, tmp_path):
        index = self.make_dataset(tmp_path, ["a\tim/a.pgm\tmk/a.pgm\ttrain"])
        with pytest.warns(UserWarning, match="empty test split"):
            load_index(index)


def rederive_mask(seed, i, size):
    """Recompute the analytic ellipse-union mask from the documented draws."""
    rng = np.random.default_rng([seed, i])
    mask = np.zeros((size, size), bool)
    if rng.random() >= 0.3:
        yy, xx = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float),
                             indexing="ij")
        for _ in range(int(rng.integers(1, 3))):
            cy = rng.uniform(0.25 * size, 0.75 * size)
            cx = rng.uniform(0.25 * size, 0.75 * size)
            a = rng.uniform(0.12 * size, 0.28 * size)
            b = rng.uniform(0.12 * size, 0.28 * size)
            rng.uniform(0.55, 0.95)  # intensity, not needed for the mask
            mask |= ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
    return np.where(mask, 255, 0).astype(np.uint8)


class TestSynth:
    def test_index_loads_and_splits_every_fifth(self, tmp_path):
        index = synth_generate(10, 32, seed=0, out_dir=tmp_path)
        records = load_index(index)
        assert len(records) == 10
        test_ids = [r.id for r in records if r.split == "test"]
        assert test_ids == ["s00004", "s00009"]

    def test_byte_identical_per_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(6, 32, seed=9, out_dir=a)
        synth_generate(6, 32, seed=9, out_dir=b)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(4, 32, seed=1, out_dir=a)
        synth_generate(4, 32, seed=2, out_dir=b)
        same = all((a / "images" / f"s{i:05d}.pgm").read_bytes()
                   == (b / "images" / f"s{i:05d}.pgm").read_bytes() for i in range(4))
        assert not same

    def test_masks_match_analytic_predicate(self, tmp_path):
        synth_generate(8, 32, seed=4, out_dir=tmp_path)
        for i in range(8):
            mask = load_pgm(tmp_path / "masks" / f"s{i:05d}.pgm")
            assert np.array_equal(mask, rederive_mask(4, i, 32)), i

    def test_empty_fraction_near_thirty_percent(self, tmp_path):
        synth_generate(200, 32, seed=5, out_dir=tmp_path)
        empties = sum(
            not load_pgm(tmp_path / "masks" / f"s{i:05d}.pgm").any() for i in range(200))
        assert 40 <= empties <= 80  # 30% +- 10pp

    def test_foreground_brighter_than_background(self, tmp_path):
        synth_generate(20, 32, seed=6, out_dir=tmp_path)
        gaps = []
        for i in range(20):
            img = load_pgm(tmp_path / "images" / f"s{i:05d}.pgm").astype(float)
            mask = load_pgm(tmp_path / "masks" / f"s{i:05d}.pgm") > 0
            if mask.any() and (~mask).any():
                gaps.append(img[mask].mean() - img[~mask].mean())
        assert gaps and min(gaps) > 50.0

    def test_masks_strictly_binary(self, tmp_path):
        synth_generate(10, 32, seed=7, out_dir=tmp_path)
        for i in range(10):
            vals = set(np.unique(load_pgm(tmp_path / "masks" / f"s{i:05d}.pgm")))
            assert vals <= {0, 255}

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_generate(0, 32, 0, tmp_path)
        with pytest.raises(ValueError):
            synth_generate(3, 31, 0, tmp_path)
        with pytest.raises(ValueError):
            synth_generate(3, 48, 0, tmp_path)
