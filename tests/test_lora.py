import numpy as np
import pytest

from irvis import autodiff as ad
from irvis.autodiff import Tensor
from irvis.encoder import EncoderConfig, encode, init_params
from irvis.errors import ConfigError, DataError, ShapeMismatchError
from irvis.lora import (LoraAdapter, LoraConfig, adapter_tensors, adapters_from_tensors,
                        attach, dropout_mask, forward_adapted, merge, sparsity_report,
                        unmerge)
from conftest import same_bytes
from tape_reference import matmul


def make_adapter(rng, k=16, d=24, rank=4, alpha=8.0, zero_b=False):
    b = np.zeros((d, rank)) if zero_b else rng.normal(size=(d, rank))
    return LoraAdapter(B=Tensor(b, requires_grad=True),
                       A=Tensor(rng.normal(size=(rank, k)), requires_grad=True),
                       alpha=alpha)


def drawn_mask(seed, shape, p):
    """The dropout mask at ``p`` of ``default_rng(seed).random(shape)``."""
    return dropout_mask(np.random.default_rng(seed).random(shape), p)


@pytest.mark.parametrize("p", [0.1, 0.3, 1 / 3, 0.5])
def test_dropout_mask_bytes_equal_the_bool_product(p):
    # draws at p and one ulp either side of it, among uniform ones
    u = np.concatenate([[p, np.nextafter(p, 1.0), np.nextafter(p, -1.0), 0.0],
                        np.random.default_rng(9).random(60)]).reshape(4, 16)
    want = np.multiply(u >= p, 1 / (1 - p))
    assert same_bytes(dropout_mask(u, p), want)
    out = np.full_like(u, np.nan)
    assert dropout_mask(u, p, out=out) is out and same_bytes(out, want)
    assert dropout_mask(u, p, out=u) is u and same_bytes(u, want)
    assert same_bytes(want.ravel()[:3], [1 / (1 - p), 1 / (1 - p), 0.0])


class TestForward:
    def test_zero_b_is_identity(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(16, 24)))
        x = Tensor(rng.normal(size=(5, 16)))
        adapter = make_adapter(rng, zero_b=True)
        assert np.array_equal(forward_adapted(x, w, adapter).data, matmul(x, w).data)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(16, 24)))
        x = Tensor(rng.normal(size=(5, 16)))
        adapter = make_adapter(rng)
        a = forward_adapted(x, w, adapter)
        b = forward_adapted(x, w, adapter)
        assert np.array_equal(a.data, b.data)

    def test_training_mask_scaled_by_keep_probability(self):
        # kept inputs are scaled by 1/(1-p)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
        adapter = make_adapter(rng)
        w = Tensor(rng.normal(size=(16, 24)))
        out = ad.linear(x, w, Tensor(np.zeros(24)),
                        adapter.branch(drawn_mask(3, x.shape, 0.25)))
        mask = (np.random.default_rng(3).random(x.shape) >= 0.25) / (1.0 - 0.25)
        a, b = adapter.A.data, adapter.B.data
        want = x.data @ w.data + (x.data * mask) @ a.T @ b.T * adapter.scaling
        assert np.abs(out.data - want).max() <= 1e-12
        ad.tsum(out).backward()
        ones = np.ones(b.shape[0])
        row = adapter.scaling * ones @ b @ a
        assert np.abs(x.grad - (ones @ w.data.T + mask * row)).max() <= 1e-12
        assert 0.0 < (mask == 0.0).mean() < 1.0

    @pytest.mark.parametrize("drawn", [False, True])
    def test_delta_is_linear_on_a_zero_weight_and_bias(self, drawn):
        rng = np.random.default_rng(14)
        adapter = make_adapter(rng)
        x = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
        mask = drawn_mask(4, x.shape, 0.25) if drawn else None
        got = adapter.delta(x, mask)
        want = ad.linear(x, Tensor(np.zeros((16, 24))), Tensor(np.zeros(24)),
                         adapter.branch(mask))
        assert np.array_equal(got.data, want.data)
        grads = []
        for out in (got, want):
            ad.tsum(out).backward()
            grads.append([t.grad for t in (x, adapter.A, adapter.B)])
            for t in (x, adapter.A, adapter.B):
                t.grad = None
        for g, h in zip(*grads, strict=True):
            assert np.array_equal(g, h)

    def test_scaling_reads_the_rank_from_a(self):
        adapter = make_adapter(np.random.default_rng(13), rank=3, alpha=6.0)
        assert adapter.scaling == 2.0
        adapter.A = Tensor(np.zeros((4, 16)))
        assert adapter.scaling == 1.5

    def test_two_path_equals_merged_product(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(16, 24)))
        x = Tensor(rng.normal(size=(5, 16)))
        adapter = make_adapter(rng)
        merged = w.data + adapter.scaling * (adapter.B.data @ adapter.A.data).T
        out = forward_adapted(x, w, adapter)
        assert np.abs(out.data - x.data @ merged).max() < 1e-12

    def test_gradients_reach_adapters_only(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(16, 24)), requires_grad=False)
        x = Tensor(rng.normal(size=(5, 16)))
        adapter = make_adapter(rng)
        ad.tsum(forward_adapted(x, w, adapter)).backward()
        assert w.grad is None
        assert adapter.A.grad is not None and adapter.B.grad is not None


class TestMerge:
    def test_zero_b_merge_bitwise(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(16, 24))
        assert np.array_equal(merge(w, make_adapter(rng, zero_b=True)), w)

    def test_merge_equivalence_100_inputs(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(16, 24))
        adapter = make_adapter(rng)
        w_star = merge(w, adapter)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=(3, 16))
            two = forward_adapted(x, w, adapter)
            one = x @ w_star
            worst = max(worst, np.abs(two.data - one).max())
        assert worst < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(16, 24))
        adapter = make_adapter(rng)
        back = unmerge(merge(w, adapter), adapter)
        assert np.abs(back - w).max() < 1e-12

    def test_original_untouched(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(16, 24))
        before = w.copy()
        merge(w, make_adapter(rng))
        assert np.array_equal(w, before)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ShapeMismatchError):
            merge(np.zeros((4, 4)), make_adapter(rng))

    def test_unmerge_shape_mismatch(self):
        adapter = make_adapter(np.random.default_rng(8))
        with pytest.raises(ShapeMismatchError,
                           match=r"unmerge shape mismatch: W\* \(4, 4\) vs update \(16, 24\)"):
            unmerge(np.zeros((4, 4)), adapter)


class TestAttach:
    def test_zero_init_full_model_identity(self, toy_cfg):
        params = init_params(toy_cfg)
        frozen = {k: Tensor(t.data.copy()) for k, t in params.items()}
        adapters = attach(params, LoraConfig(), seed=0)
        img = np.random.default_rng(0).random((3, 16, 16))
        adapted = encode(img, params, toy_cfg, adapters=adapters)
        plain = encode(img, frozen, toy_cfg)
        assert np.array_equal(adapted.features.data, plain.features.data)

    def test_dropout_is_live_only_with_an_rng(self, toy_cfg):
        params = init_params(toy_cfg)
        adapters = attach(params, LoraConfig(dropout=0.5), seed=0)
        for a in adapters.values():
            a.B.data = np.full(a.B.shape, 0.05)
        img = np.random.default_rng(1).random((2, 3, 16, 16))
        first, second = (encode(img, params, toy_cfg, adapters=adapters).features.data
                         for _ in range(2))
        assert np.array_equal(first, second)
        width = toy_cfg.num_patches * sum(a.A.shape[1] for a in adapters.values())
        dropped = encode(img, params, toy_cfg, adapters=adapters,
                         masks=drawn_mask(2, (2, width), 0.5)).features.data
        assert not np.array_equal(first, dropped)

    def test_adapter_param_arithmetic(self, toy_cfg):
        params = init_params(toy_cfg)
        adapters = attach(params, LoraConfig(rank=8), seed=0)
        proj = adapters["blocks.0.proj"]  # 32x32 target
        assert proj.B.size + proj.A.size == 2 * 32 * 8

    def test_freezes_all_but_pos_embed(self, toy_cfg):
        params = init_params(toy_cfg)
        attach(params, LoraConfig(), seed=0)
        for name, t in params.items():
            assert t.requires_grad == (name == "pos_embed"), name

    def test_unresolved_pattern(self, toy_cfg):
        params = init_params(toy_cfg)
        with pytest.raises(ConfigError, match="nonexistent"):
            attach(params, LoraConfig(target_modules=("qkv", "nonexistent")), seed=0)

    @pytest.mark.parametrize("rank", [2.5, 2.0, True, "2"])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(ConfigError, match="rank"):
            LoraConfig(rank=rank)
        assert LoraConfig(rank=np.int64(2)).rank == 2

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            LoraConfig(alpha=alpha)

    def test_rank_too_large(self, toy_cfg):
        params = init_params(toy_cfg)
        with pytest.raises(ConfigError, match="rank"):
            attach(params, LoraConfig(rank=64), seed=0)

    def test_trainable_fraction_tally(self):
        # at realistic widths the adapter share drops to single-digit percent
        cfg = EncoderConfig(image_size=16, patch_size=4, channels=3, depth=2,
                            dim=128, heads=4, mlp_ratio=4, seed=0)
        params = init_params(cfg)
        total = sum(t.size for t in params.values())
        adapters = attach(params, LoraConfig(rank=4), seed=0)
        trainable = params["pos_embed"].size + sum(
            t.size for t in adapter_tensors(adapters).values())
        # independent tally: rank * (in + out) per adapted matrix
        expect = params["pos_embed"].size
        for name, t in params.items():
            if name.endswith(".weight") and name[:-7] in adapters:
                expect += 4 * (t.shape[0] + t.shape[1])
        assert trainable == expect
        assert trainable / total < 0.10


class TestRebuild:
    def named(self, toy_cfg):
        adapters = attach(init_params(toy_cfg), LoraConfig(rank=4), seed=0)
        return {name: t.data for name, t in adapter_tensors(adapters).items()}

    def test_missing_lora_b(self, toy_cfg):
        named = self.named(toy_cfg)
        del named["blocks.1.fc1.lora_B"]
        with pytest.raises(DataError, match="'blocks.1.fc1' lacks rank-4"):
            adapters_from_tensors(named, 4, 32.0)

    @pytest.mark.parametrize("rank", [3, 5])
    def test_header_rank_differs_from_a(self, toy_cfg, rank):
        with pytest.raises(DataError, match=f"lacks rank-{rank}"):
            adapters_from_tensors(self.named(toy_cfg), rank, 32.0)

    def test_unexpected_name(self, toy_cfg):
        named = self.named(toy_cfg)
        named["blocks.0.qkv.lora_C"] = np.zeros((4, 32))
        with pytest.raises(DataError, match="unexpected adapter tensors"):
            adapters_from_tensors(named, 4, 32.0)


class TestSparsityReport:
    def test_zero_adapter(self):
        rng = np.random.default_rng(9)
        rep = sparsity_report({"t": make_adapter(rng, zero_b=True)})
        assert np.all(rep["t"]["b_column_norms"] == 0.0)
        assert rep["t"]["gini"] == 0.0

    def test_one_hot_column(self):
        rng = np.random.default_rng(10)
        adapter = make_adapter(rng, zero_b=True, rank=4)
        adapter.B.data[:, 2] = 1.0
        gini = sparsity_report({"t": adapter})["t"]["gini"]
        assert abs(gini - 3.0 / 4.0) < 1e-12

    def test_finite_on_random(self):
        rng = np.random.default_rng(11)
        rep = sparsity_report({"t": make_adapter(rng)})
        assert np.isfinite(rep["t"]["gini"])
        assert np.all(np.isfinite(rep["t"]["a_row_norms"]))
