import numpy as np
import pytest
from dataclasses import replace

from conftest import same_bytes
from irvis import data
from irvis.data import (PROBE_CLASSES, SCENE_CLASSES, ManifestEntry, SceneObject,
                        SceneSpec, batch, gen_scene, load_pairs, make_labeled_scenes,
                        make_pretrain_pairs, random_scene_spec, read_manifest,
                        read_pgm, read_ppm, write_manifest, write_pgm, write_ppm)
from irvis.errors import ConfigError, DataError


def two_class_spec(**overrides):
    base = SceneSpec(
        objects=(SceneObject("vehicle", 4.0, 4.0, 2.0),
                 SceneObject("person", 11.0, 11.0, 2.5)),
        palette={"vehicle": {"color": (0.8, 0.15, 0.1), "heat": 0.9, "kind": "square"},
                 "person": {"color": (0.2, 0.3, 0.85), "heat": 0.75, "kind": "circle"}},
    )
    return replace(base, **overrides)


class TestGenScene:
    def test_empty_scene_is_background(self):
        out = gen_scene(SceneSpec(), seed=0)
        assert np.array_equal(out.visible[0], np.full((16, 16), 0.35))
        assert np.array_equal(out.infrared[0], np.full((16, 16), 0.15))

    def test_deterministic_per_seed(self):
        spec = two_class_spec(noise_visible=0.05, noise_infrared=0.05)
        a, b = gen_scene(spec, seed=3), gen_scene(spec, seed=3)
        assert np.array_equal(a.visible, b.visible)
        assert np.array_equal(a.infrared, b.infrared)
        c = gen_scene(spec, seed=4)
        assert not np.array_equal(a.visible, c.visible)

    def test_object_pixels_take_class_color_and_heat(self):
        out = gen_scene(two_class_spec(), seed=0)
        # square centered at (4,4) with half-width 2 covers pixel (4,4)
        assert np.array_equal(out.visible[:, 4, 4], [0.8, 0.15, 0.1])
        assert out.infrared[0, 4, 4] == 0.9
        assert out.infrared[0, 11, 11] == 0.75

    def test_illumination_scales_visible_only(self):
        spec = two_class_spec()
        day = gen_scene(spec, seed=0)
        night = gen_scene(replace(spec, illumination=0.5), seed=0)
        assert np.allclose(night.visible, 0.5 * day.visible, atol=1e-15)
        assert np.array_equal(night.infrared, day.infrared)

    def test_values_clipped_to_unit_interval(self):
        spec = two_class_spec(noise_visible=0.8, noise_infrared=0.8)
        out = gen_scene(spec, seed=1)
        for arr in (out.visible, out.infrared):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_unknown_object_kind_rejected(self):
        spec = two_class_spec()
        bad = replace(spec, palette={**spec.palette,
                                     "person": {**spec.palette["person"], "kind": "triangle"}})
        with pytest.raises(ConfigError, match="unknown object kind 'triangle'"):
            gen_scene(bad, seed=0)

    def test_out_of_bounds_center_rejected(self):
        spec = two_class_spec()
        bad = replace(spec, objects=(SceneObject("person", 40.0, 4.0, 2.0),))
        with pytest.raises(ConfigError):
            gen_scene(bad, seed=0)

    def test_random_spec_reasonable(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = random_scene_spec(rng)
            out = gen_scene(spec, seed=0)
            assert out.visible.shape == (3, 16, 16)
            assert out.infrared.shape == (1, 16, 16)
            assert 1 <= len(spec.objects) <= 3


class TestGeneratorEqualsItsFormerCode:
    """The scene builders against the code they were written from, byte for
    byte: an ``np.mgrid`` per object, painting channel by channel, fresh
    arrays for illumination, noise and the clip, and ``rng.uniform`` draws."""

    @staticmethod
    def former_mask(obj, kind, h, w):
        yy, xx = np.mgrid[0:h, 0:w]
        if kind == "circle":
            return (xx - obj.cx) ** 2 + (yy - obj.cy) ** 2 <= obj.size ** 2
        if kind == "square":
            return (np.abs(xx - obj.cx) <= obj.size) & (np.abs(yy - obj.cy) <= obj.size)
        return (np.abs(yy - obj.cy) <= obj.size / 2.0) & (np.abs(xx - obj.cx) <= 2.5 * obj.size)

    @classmethod
    def former_gen_scene(cls, spec, seed, scene_id="synthetic"):
        h, w = spec.height, spec.width
        rng = np.random.default_rng(seed)
        visible = np.empty((3, h, w))
        visible[:] = np.asarray(data.BACKGROUND_COLOR)[:, None, None]
        infrared = np.full((1, h, w), data.BACKGROUND_HEAT)
        for obj in spec.objects:
            look = spec.palette[obj.cls]
            mask = cls.former_mask(obj, look["kind"], h, w)
            color = np.asarray(look["color"])
            for c in range(3):
                visible[c][mask] = color[c]
            infrared[0][mask] = look["heat"]
        visible = visible * spec.illumination
        if spec.noise_visible > 0.0:
            visible = visible + rng.normal(0.0, spec.noise_visible, visible.shape)
        if spec.noise_infrared > 0.0:
            infrared = infrared + rng.normal(0.0, spec.noise_infrared, infrared.shape)
        return data.PairedSample(visible=np.clip(visible, 0.0, 1.0),
                                 infrared=np.clip(infrared, 0.0, 1.0), scene_id=scene_id)

    @staticmethod
    def former_place(rng, cls, min_size, height, width):
        size = float(rng.uniform(min_size, min(height, width) / 4.0))
        return SceneObject(cls=cls,
                           cx=float(rng.uniform(size, width - 1 - size)),
                           cy=float(rng.uniform(size, height - 1 - size)),
                           size=size)

    def former(self, monkeypatch, build):
        with monkeypatch.context() as m:
            m.setattr(data, "gen_scene", self.former_gen_scene)
            m.setattr(data, "_place", self.former_place)
            return build()

    @staticmethod
    def assert_same_samples(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.scene_id == w.scene_id
            assert same_bytes(g.visible, w.visible), g.scene_id
            assert same_bytes(g.infrared, w.infrared), g.scene_id

    @pytest.mark.parametrize("hw", [(16, 16), (12, 20)])
    @pytest.mark.parametrize("classes", [PROBE_CLASSES, SCENE_CLASSES],
                             ids=["probe", "scene"])
    @pytest.mark.parametrize("night_fraction", [0.0, 0.25])
    def test_pretrain_pairs(self, monkeypatch, hw, classes, night_fraction):
        def build():
            return make_pretrain_pairs(12, seed=5, height=hw[0], width=hw[1],
                                       night_fraction=night_fraction, classes=classes)
        self.assert_same_samples(build(), self.former(monkeypatch, build))

    @pytest.mark.parametrize("hw", [(16, 16), (12, 20)])
    def test_labeled_scenes(self, monkeypatch, hw):
        def build():
            return make_labeled_scenes(12, seed=6, height=hw[0], width=hw[1])
        got, labels = build()
        want, want_labels = self.former(monkeypatch, build)
        assert labels == want_labels
        self.assert_same_samples(got, want)

    def test_every_kind_with_illumination_and_one_noise_off(self):
        spec = SceneSpec(height=12, width=20,
                         objects=(SceneObject("plant", 9.0, 6.0, 2.0),
                                  SceneObject("vehicle", 4.5, 4.5, 2.5),
                                  SceneObject("person", 15.2, 7.7, 2.8)),
                         palette=SCENE_CLASSES,
                         noise_infrared=0.3, illumination=0.4)
        for variant in (spec, replace(spec, noise_visible=0.3, noise_infrared=0.0)):
            self.assert_same_samples([gen_scene(variant, seed=2)],
                                     [self.former_gen_scene(variant, seed=2)])

    def test_uniform_is_numpys_formula(self):
        draws = np.random.default_rng(8)
        lows = draws.normal(0.0, 10.0, 200)
        highs = lows + draws.exponential(5.0, 200) * (draws.random(200) < 0.9)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for lo, hi in zip(lows.tolist(), highs.tolist()):
            assert same_bytes(data._uniform(ours, lo, hi), float(theirs.uniform(lo, hi)))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_pixel_grid_is_read_only(self):
        yy, xx = data._pixel_grid(12, 20)
        assert yy.shape == xx.shape == (12, 20)
        for grid in (yy, xx):
            with pytest.raises(ValueError):
                grid[0, 0] = 1.0


class TestSmallImages:
    @pytest.mark.parametrize("hw", [(5, 16), (16, 5), (4, 4)])
    def test_pairs_need_six_pixels_a_side(self, hw):
        with pytest.raises(ConfigError, match=f"{hw[1]}x{hw[0]} image .* at least 6"):
            make_pretrain_pairs(2, seed=0, height=hw[0], width=hw[1])

    @pytest.mark.parametrize("hw", [(7, 16), (16, 7), (6, 6)])
    def test_probes_need_eight_pixels_a_side(self, hw):
        with pytest.raises(ConfigError, match=f"{hw[1]}x{hw[0]} image .* at least 8"):
            make_labeled_scenes(2, seed=0, height=hw[0], width=hw[1])


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

    @pytest.mark.parametrize("size", [b"0 2", b"2 0"])
    def test_zero_size_rejected(self, tmp_path, size):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n" + size + b"\n255\n")
        w, h = size.decode().split()
        with pytest.raises(DataError, match=f"bad image size {w}x{h}"):
            read_pgm(p)

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

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("\ns0\tv0.ppm\ti0.pgm\tseq0\n  \t \n\ns1\tv1.ppm\ti1.pgm\tseq0\n\n")
        assert read_manifest(p) == [ManifestEntry("s0", "v0.ppm", "i0.pgm", "seq0"),
                                    ManifestEntry("s1", "v1.ppm", "i1.pgm", "seq0")]

    def test_repeated_scene_id_names_both_lines(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("s0\tv0.ppm\ti0.pgm\tseq0\n\ns1\tv1.ppm\ti1.pgm\tseq0\n"
                     "s0\tv2.ppm\ti2.pgm\tseq0\n")
        with pytest.raises(DataError, match=r"manifest.tsv:4: scene id 's0' repeats line 1$"):
            read_manifest(p)

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("s0\tv.ppm\ti.pgm\tseq0\nbroken line\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(p)

    def test_load_pairs_end_to_end(self, tmp_path):
        sample = gen_scene(two_class_spec(), seed=0)
        write_ppm(tmp_path / "v.ppm", sample.visible)
        write_pgm(tmp_path / "i.pgm", sample.infrared)
        write_manifest(tmp_path / "manifest.tsv",
                       [ManifestEntry("scene-0", "v.ppm", "i.pgm", "seq0")])
        (loaded,) = list(load_pairs(tmp_path / "manifest.tsv"))
        assert loaded.scene_id == "scene-0"
        for img in (sample.visible, sample.infrared, loaded.visible, loaded.infrared):
            assert type(img) is np.ndarray
        assert np.abs(loaded.visible - sample.visible).max() <= 0.5 / 255.0 + 1e-12

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
