import numpy as np
import pytest
from scipy.special import erf

from irvis import autodiff as ad
from irvis.autodiff import LN_EPS, Tensor
from irvis.encoder import EncoderConfig, EncoderOutput, encode, init_params, patchify
from irvis.errors import ConfigError, NumericError, ShapeMismatchError
from irvis.lora import LoraConfig, adapter_tensors, attach, dropout_mask
import tape_reference
from conftest import same_bytes


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(image_size=15, patch_size=4)
    with pytest.raises(ConfigError):
        EncoderConfig(dim=30, heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(depth=0)
    with pytest.raises(ConfigError):
        EncoderConfig(heads=0)
    for name in ("image_size", "patch_size", "channels", "dim", "mlp_ratio"):
        for bad in (0, -4):
            with pytest.raises(ConfigError, match=name):
                EncoderConfig(**{name: bad})
    cfg = EncoderConfig(image_size=16, patch_size=4)
    assert cfg.num_patches == 16


@pytest.mark.parametrize("bad", [dict(dim=32.0), dict(depth=1.5), dict(heads=4.0),
                                 dict(image_size=16.0), dict(seed=0.5), dict(depth=True)],
                         ids=repr)
def test_counts_must_be_integers(bad):
    (field,) = bad
    with pytest.raises(ConfigError, match=field):
        EncoderConfig(**bad)
    assert EncoderConfig(**{field: np.int64(1 if field in ("depth", "seed") else 16)})


def test_init_deterministic_and_seed_sensitive():
    cfg = EncoderConfig(seed=5)
    p1, p2 = init_params(cfg), init_params(cfg)
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
    p3 = init_params(EncoderConfig(seed=6))
    assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)


def test_param_count_hand_tally():
    cfg = EncoderConfig(image_size=16, patch_size=4, channels=1, depth=2,
                        dim=32, heads=4, mlp_ratio=4)
    params = init_params(cfg)
    # independent per-layer tally
    patch = (4 * 4 * 1) * 32 + 32
    pos = 16 * 32
    block = (2 * 32) + (32 * 96 + 96) + (32 * 32 + 32) + (2 * 32) \
        + (32 * 128 + 128) + (128 * 32 + 32)
    final_norm = 2 * 32
    assert sum(t.size for t in params.values()) == patch + pos + 2 * block + final_norm


def test_zero_image_finite_and_stochastic(toy_cfg, toy_params):
    out = encode(np.zeros((3, 16, 16)), toy_params, toy_cfg)
    assert np.all(np.isfinite(out.features.data))
    assert np.abs(out.attention_last.sum(axis=1) - 1.0).max() <= 1e-9


def test_deterministic_forward(toy_cfg, toy_params):
    img = np.random.default_rng(0).random((3, 16, 16))
    a = encode(img, toy_params, toy_cfg)
    b = encode(img, toy_params, toy_cfg)
    assert np.array_equal(a.features.data, b.features.data)
    assert np.array_equal(a.attention_last, b.attention_last)
    assert type(a.attention_last) is np.ndarray


def test_attention_row_stochastic_100_images(toy_cfg, toy_params):
    rng = np.random.default_rng(42)
    for _ in range(100):
        out = encode(rng.random((3, 16, 16)), toy_params, toy_cfg)
        assert np.abs(out.attention_last.sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_image_raises_naming_linear(toy_cfg, toy_params, value):
    # the image is a constant: nothing scans it on the way in, and the
    # features' check walks the tape back to the patch embedding
    img = np.random.default_rng(1).random((3, 16, 16))
    img[1, 5, 7] = value
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=r"^non-finite values in encode features, "
                                r"first produced by linear$"):
        encode(img, toy_params, toy_cfg)


def test_shape_mismatch_rejected(toy_cfg, toy_params):
    with pytest.raises(ConfigError):
        encode(np.zeros((1, 16, 16)), toy_params, toy_cfg)
    with pytest.raises(ConfigError):
        encode(np.zeros((3, 8, 8)), toy_params, toy_cfg)


def _permute_patch_blocks(img, perm, patch):
    """Rearrange the image so patch block i holds original block perm[i]."""
    c, h, w = img.shape
    n = h // patch
    out = np.empty_like(img)
    for i, src in enumerate(perm):
        ty, tx = divmod(i, n)
        sy, sx = divmod(src, n)
        out[:, ty * patch:(ty + 1) * patch, tx * patch:(tx + 1) * patch] = \
            img[:, sy * patch:(sy + 1) * patch, sx * patch:(sx + 1) * patch]
    return out


def test_patch_permutation_equivariance(toy_cfg, toy_params):
    rng = np.random.default_rng(7)
    img = rng.random((3, 16, 16))
    perm = rng.permutation(toy_cfg.num_patches)
    img_p = _permute_patch_blocks(img, perm, toy_cfg.patch_size)
    assert np.array_equal(patchify(img_p, toy_cfg), patchify(img, toy_cfg)[perm])

    # without position embeddings the encoder cannot tell the patches apart
    params = dict(toy_params, pos_embed=Tensor(np.zeros(toy_params["pos_embed"].shape)))
    base = encode(img, params, toy_cfg)
    permuted = encode(img_p, params, toy_cfg)
    assert np.allclose(permuted.features.data, base.features.data[perm], atol=1e-9)
    conjugated = base.attention_last[np.ix_(perm, perm)]
    assert np.allclose(permuted.attention_last, conjugated, atol=1e-9)


def test_features_differentiable_wrt_params(toy_cfg, toy_params):
    from irvis.autodiff import Tensor, grad_check, tmean

    img = np.random.default_rng(3).random((3, 16, 16))
    for name in ("blocks.1.fc1.weight", "pos_embed", "patch_embed.weight"):
        def f(t, name=name):
            p = dict(toy_params)
            p[name] = t
            return tmean(encode(img, p, toy_cfg).features)
        err = grad_check(f, toy_params[name], sample=15, seed=1)
        assert err < 1e-4, name


def reference_forward(img, params, cfg):
    """Plain-numpy forward pass that runs the attention heads one at a time."""
    p = {name: t.data for name, t in params.items()}

    def linear(x, name):
        return x @ p[f"{name}.weight"] + p[f"{name}.bias"]

    def norm(x, name):
        mu, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS) * p[f"{name}.weight"] + p[f"{name}.bias"]

    x = linear(patchify(img, cfg), "patch_embed") + p["pos_embed"]
    dh = cfg.dim // cfg.heads
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        qkv = linear(norm(x, f"{pre}.norm1"), f"{pre}.qkv")
        outs, maps = [], []
        for j in range(cfg.heads):
            q, k, v = (qkv[:, s * cfg.dim + j * dh:s * cfg.dim + (j + 1) * dh]
                       for s in range(3))
            z = q @ k.T / np.sqrt(dh)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            maps.append(e / e.sum(axis=1, keepdims=True))
            outs.append(maps[-1] @ v)
        x = x + linear(np.hstack(outs), f"{pre}.proj")
        h = linear(norm(x, f"{pre}.norm2"), f"{pre}.fc1")
        x = x + linear(h * 0.5 * (1.0 + erf(h / np.sqrt(2.0))), f"{pre}.fc2")
    return norm(x, "norm"), sum(maps) / cfg.heads


def assert_matches_reference(cfg, params):
    rng = np.random.default_rng(8)
    for _ in range(5):
        img = rng.random((cfg.channels, cfg.image_size, cfg.image_size))
        out = encode(img, params, cfg)
        features, attention = reference_forward(img, params, cfg)
        assert np.abs(out.features.data - features).max() <= 1e-12
        assert np.abs(out.attention_last - attention).max() <= 1e-12


def test_fused_heads_match_per_head_reference(toy_cfg, toy_params):
    assert_matches_reference(toy_cfg, toy_params)


def test_fused_heads_match_per_head_reference_two_heads_one_block():
    cfg = EncoderConfig(depth=1, heads=2, seed=3)
    assert_matches_reference(cfg, init_params(cfg))


def test_batched_encode_matches_stacked_single_images(toy_cfg, toy_params):
    imgs = np.random.default_rng(9).random((5, 3, 16, 16))
    batched = encode(imgs, toy_params, toy_cfg)
    assert batched.features.shape == (5, toy_cfg.num_patches, toy_cfg.dim)
    assert batched.attention_last.shape == (5, toy_cfg.num_patches, toy_cfg.num_patches)
    assert np.array_equal(patchify(imgs, toy_cfg),
                          np.stack([patchify(img, toy_cfg) for img in imgs]))
    for img, features, attention in zip(imgs, batched.features.data,
                                         batched.attention_last):
        single = encode(img, toy_params, toy_cfg)
        assert np.abs(single.features.data - features).max() <= 1e-12
        assert np.abs(single.attention_last - attention).max() <= 1e-12
    # a modality axis in front, as a training step stacks a batch of pairs:
    # (2, B, C, H, W) gives each image's features and maps byte for byte
    pairs = np.random.default_rng(10).random((2, 3, 3, 16, 16))
    stacked = encode(pairs, toy_params, toy_cfg)
    singles = [encode(img, toy_params, toy_cfg) for img in pairs.reshape(6, 3, 16, 16)]
    assert same_bytes(patchify(pairs, toy_cfg),
                      np.stack([patchify(img, toy_cfg) for img in pairs.reshape(6, 3, 16, 16)]
                               ).reshape(2, 3, toy_cfg.num_patches, toy_cfg.patch_dim))
    assert same_bytes(stacked.features.data,
                      np.stack([s.features.data for s in singles]).reshape(
                          2, 3, toy_cfg.num_patches, toy_cfg.dim))
    assert same_bytes(stacked.attention_heads,
                      np.stack([s.attention_heads for s in singles]).reshape(
                          2, 3, toy_cfg.heads, toy_cfg.num_patches, toy_cfg.num_patches))


def test_batched_input_rank_checked(toy_cfg, toy_params):
    # any leading axes are images, but an image has three axes
    for shape in [(16, 16), (3, 256), (768,), ()]:
        with pytest.raises(ConfigError, match="does not match config"):
            encode(np.zeros(shape), toy_params, toy_cfg)


def test_parameters_of_another_width_rejected(toy_cfg):
    wide = init_params(EncoderConfig(dim=48, heads=4, seed=1))
    with pytest.raises(ShapeMismatchError):
        encode(np.zeros((3, 16, 16)), wide, toy_cfg)


def chain_encode(img, params, cfg, *, adapters=None, masks=None):
    """``encode`` as a chain of per-op tape nodes, ten per block, cutting the
    adapters' masks in the same order."""
    col = 0

    def lin(x, name):
        nonlocal col
        lora = None
        if adapters and name in adapters:
            width = np.prod(x.shape[1:])
            lora = adapters[name].branch(masks[:, col:col + width].reshape(x.shape))
            col += width
        return ad.linear(x, params[f"{name}.weight"], params[f"{name}.bias"], lora)

    def norm(x, name):
        return ad.layernorm(x, params[f"{name}.weight"], params[f"{name}.bias"])

    x = ad.add(lin(Tensor(patchify(img, cfg)), "patch_embed"), params["pos_embed"])
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        merged, attn = tape_reference.attention(lin(norm(x, f"{pre}.norm1"), f"{pre}.qkv"),
                                                cfg.heads, cfg.dim // cfg.heads)
        x = ad.add(x, lin(merged, f"{pre}.proj"))
        hidden = tape_reference.gelu(lin(norm(x, f"{pre}.norm2"), f"{pre}.fc1"))
        x = ad.add(x, lin(hidden, f"{pre}.fc2"))
    return EncoderOutput(features=norm(x, "norm"), attention_heads=attn)


@pytest.mark.parametrize("lora", [True, False], ids=["lora", "full"])
def test_block_nodes_equal_the_per_op_chain(lora):
    """Two blocks, as one node each, against the chain of per-op nodes: the
    features, the last block's maps and every gradient, byte for byte."""
    cfg = EncoderConfig(depth=2, seed=3)
    rng = np.random.default_rng(12)
    imgs = rng.random((4, 3, 16, 16))
    weights = rng.normal(size=(4, cfg.num_patches, cfg.dim))
    runs = []
    for encode_fn in (encode, chain_encode):
        params = init_params(cfg)
        adapters, masks = None, None
        if lora:
            adapters = attach(params, LoraConfig(rank=4, dropout=0.1), seed=5)
            for a in adapters.values():  # B starts at zero, which would zero A's gradient
                a.B.data = np.random.default_rng(7).normal(size=a.B.shape)
            width = cfg.num_patches * sum(a.A.shape[1] for a in adapters.values())
            masks = dropout_mask(np.random.default_rng(8).random((4, width)), 0.1)
        out = encode_fn(imgs, params, cfg, adapters=adapters, masks=masks)
        ad.tsum(ad.mul(out.features, Tensor(weights))).backward()
        tensors = dict(params, **(adapter_tensors(adapters) if lora else {}))
        runs.append((out.features.data, out.attention_heads,
                     {name: t.grad for name, t in tensors.items() if t.requires_grad}))
    (features, maps, grads), (want_features, want_maps, want_grads) = runs
    assert features.tobytes() == want_features.tobytes()
    assert maps.shape == (4, cfg.heads, cfg.num_patches, cfg.num_patches)
    assert maps.tobytes() == want_maps.tobytes()
    assert sorted(grads) == sorted(want_grads)
    assert len(grads) == (19 if lora else len(params))
    for name, grad in grads.items():
        assert grad.tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize("lead, rows, extra", [
    ((4,), (3,), 0), ((4,), (5,), 0), ((4,), (4,), -1), ((4,), (4,), 1),
    ((), (), 0), ((), (1, 1), 0), ((2, 2), (4,), 0), ((2, 2), (2, 1), 0), ((2, 2), (2, 2, 1), 0)],
    ids=["fewer-rows", "more-rows", "too-few-columns", "too-many-columns",
         "lone-image-without-a-row", "lone-image-with-two-row-axes", "stack-with-flat-rows",
         "stack-with-fewer-rows", "stack-with-an-extra-axis"])
def test_mask_block_must_fit_the_images_and_layers(toy_cfg, lead, rows, extra):
    # a row per image in the images' own leading shape; a lone image takes one row
    params = init_params(toy_cfg)
    adapters = attach(params, LoraConfig(rank=4), seed=0)
    width = toy_cfg.num_patches * sum(a.A.shape[1] for a in adapters.values())
    imgs = np.random.default_rng(0).random(lead + (3, 16, 16))
    encode(imgs, params, toy_cfg, adapters=adapters, masks=np.ones((lead or (1,)) + (width,)))
    with pytest.raises(ShapeMismatchError, match="dropout masks"):
        encode(imgs, params, toy_cfg, adapters=adapters, masks=np.ones(rows + (width + extra,)))
