import numpy as np
import pytest
from dataclasses import replace

from irvis.data import (ManifestEntry, SceneObject, SceneSpec, batch, gen_scene,
                        load_pairs, random_scene_spec, read_manifest, read_pgm,
                        read_ppm, write_manifest, write_pgm, write_ppm)
from irvis.errors import ConfigError, DataError


def two_class_spec(**overrides):
    base = SceneSpec(
        objects=(SceneObject("square", 4.0, 4.0, 2.0, "vehicle"),
                 SceneObject("circle", 11.0, 11.0, 2.5, "person")),
        colors={"vehicle": (0.8, 0.15, 0.1), "person": (0.2, 0.3, 0.85)},
        heats={"vehicle": 0.9, "person": 0.75},
    )
    return replace(base, **overrides)


class TestGenScene:
    def test_empty_scene_is_background(self):
        out = gen_scene(SceneSpec(), seed=0)
        assert np.array_equal(out.visible.data[0], np.full((16, 16), 0.35))
        assert np.array_equal(out.infrared.data[0], np.full((16, 16), 0.15))

    def test_deterministic_per_seed(self):
        spec = two_class_spec(noise_visible=0.05, noise_infrared=0.05)
        a, b = gen_scene(spec, seed=3), gen_scene(spec, seed=3)
        assert np.array_equal(a.visible.data, b.visible.data)
        assert np.array_equal(a.infrared.data, b.infrared.data)
        c = gen_scene(spec, seed=4)
        assert not np.array_equal(a.visible.data, c.visible.data)

    def test_object_pixels_take_class_color_and_heat(self):
        out = gen_scene(two_class_spec(), seed=0)
        # square centered at (4,4) with half-width 2 covers pixel (4,4)
        assert np.array_equal(out.visible.data[:, 4, 4], [0.8, 0.15, 0.1])
        assert out.infrared.data[0, 4, 4] == 0.9
        assert out.infrared.data[0, 11, 11] == 0.75

    def test_illumination_scales_visible_only(self):
        spec = two_class_spec()
        day = gen_scene(spec, seed=0)
        night = gen_scene(replace(spec, illumination=0.5), seed=0)
        assert np.allclose(night.visible.data, 0.5 * day.visible.data, atol=1e-15)
        assert np.array_equal(night.infrared.data, day.infrared.data)

    def test_values_clipped_to_unit_interval(self):
        spec = two_class_spec(noise_visible=0.8, noise_infrared=0.8)
        out = gen_scene(spec, seed=1)
        for arr in (out.visible.data, out.infrared.data):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_out_of_bounds_center_rejected(self):
        spec = two_class_spec()
        bad = replace(spec, objects=(SceneObject("circle", 40.0, 4.0, 2.0, "person"),))
        with pytest.raises(ConfigError):
            gen_scene(bad, seed=0)

    def test_random_spec_reasonable(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = random_scene_spec(rng)
            out = gen_scene(spec, seed=0)
            assert out.visible.data.shape == (3, 16, 16)
            assert out.infrared.data.shape == (1, 16, 16)
            assert 1 <= len(spec.objects) <= 3


class TestCodecs:
    def test_ppm_file_round_trip_bit_exact(self, tmp_path):
        img = np.random.default_rng(0).random((3, 12, 10))
        p = tmp_path / "a.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        # quantized to 8 bits, so round trip through u8 is the fixed point
        write_ppm(tmp_path / "b.ppm", back)
        assert (tmp_path / "b.ppm").read_bytes() == p.read_bytes()
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_pgm_file_round_trip_bit_exact(self, tmp_path):
        img = np.random.default_rng(1).random((1, 7, 9))
        p = tmp_path / "a.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        write_pgm(tmp_path / "b.pgm", back)
        assert (tmp_path / "b.pgm").read_bytes() == p.read_bytes()
        assert back.shape == (1, 7, 9)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "a.ppm"
        write_ppm(p, np.zeros((3, 4, 6)))
        assert p.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert read_pgm(p).shape == (1, 2, 2)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "a.ppm"
        write_pgm(p, np.zeros((1, 2, 2)))
        with pytest.raises(DataError, match="P6"):
            read_ppm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError, match="truncated"):
            read_pgm(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(13))
        with pytest.raises(DataError, match="trailing bytes"):
            read_ppm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError, match="255"):
            read_pgm(p)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry("s0", "v0.ppm", "i0.pgm", "seq0"),
                   ManifestEntry("s1", "v1.ppm", "i1.pgm", "seq0")]
        p = tmp_path / "manifest.tsv"
        write_manifest(p, entries)
        assert read_manifest(p) == entries

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("s0\tv.ppm\ti.pgm\tseq0\nbroken line\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(p)

    def test_load_pairs_end_to_end(self, tmp_path):
        sample = gen_scene(two_class_spec(), seed=0)
        write_ppm(tmp_path / "v.ppm", sample.visible.data)
        write_pgm(tmp_path / "i.pgm", sample.infrared.data)
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("scene-0", "v.ppm", "i.pgm", "seq0")])
        (loaded,) = list(load_pairs(tmp_path / "manifest.tsv"))
        assert loaded.scene_id == "scene-0"
        assert np.abs(loaded.visible.data - sample.visible.data).max() <= 0.5 / 255.0 + 1e-12

    def test_load_pairs_missing_file_names_scene(self, tmp_path):
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("scene-7", "nope.ppm", "nope.pgm", "seq0")])
        with pytest.raises(DataError, match="scene-7"):
            list(load_pairs(tmp_path / "manifest.tsv"))

    def test_load_pairs_resolution_mismatch(self, tmp_path):
        write_ppm(tmp_path / "v.ppm", np.zeros((3, 16, 16)))
        write_pgm(tmp_path / "i.pgm", np.zeros((1, 8, 8)))
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("scene-9", "v.ppm", "i.pgm", "seq0")])
        with pytest.raises(DataError, match="scene-9"):
            list(load_pairs(tmp_path / "manifest.tsv"))


class TestBatch:
    def test_sizes_with_partial_tail(self):
        batches = list(batch(list(range(10)), 4, seed=0))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_seed_controls_order(self):
        items = list(range(12))
        a = [x for b in batch(items, 4, seed=0) for x in b]
        b = [x for b in batch(items, 4, seed=0) for x in b]
        c = [x for b in batch(items, 4, seed=1) for x in b]
        assert a == b
        assert a != c
        assert sorted(a) == items and sorted(c) == items

    def test_bad_size(self):
        with pytest.raises(ValueError):
            list(batch([1], 0, seed=0))
