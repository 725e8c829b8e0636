import ast
import inspect
import math
import weakref
import zlib

import numpy as np
import pytest

import irvis.autodiff as ad
from irvis.autodiff import Tensor, bce_with_logits, cosine_rows, grad_check
from irvis.errors import DegenerateInputError, NumericError, ShapeMismatchError
from conftest import same_bytes
import tape_reference
from tape_reference import attention, gelu, matmul


def weighted_sum(op, weights):
    """Reduce a matrix-valued op to a scalar for grad_check."""
    w = Tensor(weights)
    return lambda t: ad.tsum(ad.mul(op(t), w))


class TestMatmul:
    def test_identity(self):
        i2 = Tensor(np.eye(2))
        assert np.array_equal(matmul(i2, i2).data, np.eye(2))

    def test_forced(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_message(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_leading_axes_must_broadcast(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_batched_matches_numpy(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 3, 4))
        for b in (rng.normal(size=(4, 5)), rng.normal(size=(2, 4, 5))):
            assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        w = rng.normal(size=(3, 2))
        assert grad_check(weighted_sum(lambda t: matmul(t, b), w), a) < 1e-6
        assert grad_check(weighted_sum(lambda t: matmul(a, t), w), b) < 1e-6


def attention_map(logits):
    """The map of one attention head whose scaled scores are exactly ``logits``
    (N, N), N <= 16: with dh = 16, q = 4 [logits | 0] and k = [I | 0] give
    q k^T / sqrt(dh) = logits bit for bit."""
    n = logits.shape[-1]
    q = np.zeros((n, 16))
    q[:, :n] = 4.0 * logits
    qkv = np.concatenate([q, np.eye(n, 16), np.zeros((n, 16))], axis=-1)
    return attention(Tensor(qkv), heads=1, dh=16)[1][0]


class TestAttention:
    """The row softmax that ``attention`` inlines, on the inputs and bounds
    of the former ``softmax_rows`` op, then the fused op against its chain."""

    def test_uniform(self):
        out = attention_map(np.zeros((4, 4)))
        assert np.allclose(out, 0.25, atol=0)

    def test_forced(self):
        out = attention_map(np.array([[np.log(1.0), np.log(3.0)]] * 2))
        assert np.allclose(out, [[0.25, 0.75]] * 2, atol=1e-15)

    def test_row_sums(self):
        rng = np.random.default_rng(3)
        out = attention_map(rng.normal(size=(8, 8)) * 10)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(out > 0)

    def test_stability_large_inputs(self):
        out = attention_map(np.array([[1000.0, 999.0]] * 2))
        assert np.all(np.isfinite(out))

    def test_packed_width_checked(self):
        with pytest.raises(ShapeMismatchError, match=r"\(5, 30\)"):
            attention(Tensor(np.zeros((5, 30))), heads=2, dh=4)

    def test_equals_unfused_chain(self):
        rng = np.random.default_rng(13)
        qkv = rng.normal(size=(2, 5, 3 * 2 * 3))
        w = Tensor(rng.normal(size=(2, 5, 6)))
        fused_in = Tensor(qkv, requires_grad=True)
        chain_in = [Tensor(third, requires_grad=True) for third in np.split(qkv, 3, axis=-1)]
        merged, maps = attention(fused_in, heads=2, dh=3)
        ad.tsum(ad.mul(merged, w)).backward()
        chain, chain_maps = unfused_attention(*chain_in, heads=2, dh=3)
        ad.tsum(ad.mul(chain, w)).backward()
        assert np.abs(merged.data - chain.data).max() <= 1e-12
        assert np.abs(maps - chain_maps.data).max() <= 1e-12
        chain_grad = np.concatenate([t.grad for t in chain_in], axis=-1)
        assert np.abs(fused_in.grad - chain_grad).max() <= 1e-12


def softmax_rows(x):
    """The row softmax op the fused ``attention`` replaced, kept as the
    reference chain's step."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)

    def backward(g):
        x._accumulate(p * (g - (g * p).sum(axis=-1, keepdims=True)))

    return ad._make(p, (x,), backward, "softmax_rows")


def unfused_attention(q, k, v, heads, dh):
    """The chain of taped ops that ``encode`` ran before ``attention``, from
    the q, k and v thirds of the packed columns, each (..., N, heads * dh)."""
    lead, n = q.shape[:-2], q.shape[-2]
    b, batch_axes = len(lead), tuple(range(len(lead)))

    def split_heads(t):  # (..., N, heads * dh) -> (..., heads, N, dh)
        return ad.transpose(ad.reshape(t, lead + (n, heads, dh)),
                            (*batch_axes, b + 1, b, b + 2))

    q, k, v = (split_heads(t) for t in (q, k, v))
    k_t = ad.transpose(k, (*batch_axes, b, b + 2, b + 1))
    attn = softmax_rows(ad.mul(matmul(q, k_t), 1.0 / np.sqrt(dh)))
    merged = ad.reshape(ad.transpose(matmul(attn, v), (*batch_axes, b + 1, b, b + 2)),
                        lead + (n, heads * dh))
    return merged, attn


class TestLinear:
    def test_equals_unfused_chain(self):
        rng = np.random.default_rng(14)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        g = Tensor(rng.normal(size=(2, 3, 5)))
        fused, chain = ([Tensor(a, requires_grad=True) for a in (x, w, b)] for _ in range(2))
        ad.tsum(ad.mul(ad.linear(*fused), g)).backward()
        ad.tsum(ad.mul(ad.add(matmul(chain[0], chain[1]), chain[2]), g)).backward()
        assert np.abs(ad.linear(*fused).data - (x @ w + b)).max() <= 1e-12
        for f, c in zip(fused, chain):
            assert np.abs(f.grad - c.grad).max() <= 1e-12

    def test_shape_mismatch_message(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\) x \(2, 3\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatchError, match=r"\+ \(4,\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.zeros(4)))


def test_layernorm_matches_np_var_bit_for_bit():
    # the one-pass centring takes np.var's own steps: mean, subtract, square, mean
    rng = np.random.default_rng(17)
    for shape in ((8, 16, 32), (3, 5, 7), (16, 32)):
        for scale, offset in ((0.01, 0.0), (1.0, -3.0), (100.0, 50.0)):
            x = rng.normal(size=shape) * scale + offset
            w, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
            want = (x - x.mean(axis=-1, keepdims=True)) * inv * w + b
            got = ad.layernorm(Tensor(x), Tensor(w), Tensor(b)).data
            assert np.array_equal(got, want), (shape, scale)


def kernel_input(rng, shape):
    """Normal values with some signed zeros and repeated entries."""
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    flat[5::13] = flat[1]
    return x


def taped(op, inputs, g):
    """Output and input gradients of ``op`` on leaf tensors, seeded with ``g``:
    tsum(out * g) hands ``op``'s backward exactly ``g``."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*leaves)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return out.data, [t.grad for t in leaves]


class TestKernelsEqualTheirFormerExpressions:
    """The in-place kernels against the expressions they were written as,
    byte for byte, batched and unbatched."""

    @pytest.mark.parametrize("shape", [(6, 32), (8, 16, 32), (2, 3, 5, 7)])
    def test_layernorm(self, shape):
        rng = np.random.default_rng(40)
        x, g = kernel_input(rng, shape), kernel_input(rng, shape)
        w, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LN_EPS)
        xhat = xc * inv
        gx = g * w
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        d = shape[-1]
        want = [xhat * w + b, (gx - m1 - xhat * m2) * inv,
                (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]
        out, grads = taped(ad.layernorm, (x, w, b), g)
        for got, expected in zip([out, *grads], want, strict=True):
            assert same_bytes(got, expected), shape

    @pytest.mark.parametrize("shape", [(6, 40), (8, 16, 128), (2, 3, 5, 7)])
    def test_gelu(self, shape):
        rng = np.random.default_rng(41)
        x, g = kernel_input(rng, shape) * 3.0, kernel_input(rng, shape)
        cdf = (ad.erf(x, 1.0 / np.sqrt(2.0)) + 1.0) * 0.5
        pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        out, (gx,) = taped(gelu, (x,), g)
        assert same_bytes(out, x * cdf), shape
        assert same_bytes(gx, g * (cdf + x * pdf)), shape

    @pytest.mark.parametrize("lead,heads,dh", [((), 4, 8), ((8,), 4, 8), ((2, 3), 2, 3)])
    def test_attention(self, lead, heads, dh):
        rng = np.random.default_rng(42)
        n = 16 if dh == 8 else 5
        qkv = kernel_input(rng, lead + (n, 3 * heads * dh)) * 4.0
        g = kernel_input(rng, lead + (n, heads * dh))
        b = len(lead)
        q, k, v = np.transpose(qkv.reshape(lead + (n, 3, heads, dh)),
                               (b + 1, *range(b), b + 2, b, b + 3))
        c = 1.0 / np.sqrt(dh)
        s = (q @ np.swapaxes(k, -1, -2)) * c
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        merged = np.swapaxes(p @ v, -2, -3).reshape(lead + (n, heads * dh))
        go = np.swapaxes(g.reshape(lead + (n, heads, dh)), -2, -3)
        gp = go @ np.swapaxes(v, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
        parts = (gs @ k, np.swapaxes(gs, -1, -2) @ q, np.swapaxes(p, -1, -2) @ go)
        grad = np.stack([np.swapaxes(t, -2, -3) for t in parts], axis=-3)
        maps = []

        def op(t):
            out, attn = attention(t, heads, dh)
            maps.append(attn)
            return out

        out, (gqkv,) = taped(op, (qkv,), g)
        assert same_bytes(out, merged), lead
        assert same_bytes(maps[0], p), lead
        assert same_bytes(gqkv, grad.reshape(qkv.shape)), lead


class TestLoraDelta:
    """The LoRA delta, ``linear``'s adapter branch, against the unfused chain
    it replaces: after ``x W + b``, with leading batch axes."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_unfused_chain(self, masked):
        for lead in [(), (2,)]:
            rng = np.random.default_rng(15)
            shapes = {"x": lead + (3, 6), "w": (6, 4), "b": (4,), "A": (2, 6), "B": (4, 2)}
            values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            mask = (rng.random(shapes["x"]) >= 0.3) / 0.7 if masked else None
            g = Tensor(rng.normal(size=lead + (3, 4)))
            fused, chain = ({n: Tensor(v, requires_grad=True) for n, v in values.items()}
                            for _ in range(2))
            out = ad.linear(fused["x"], fused["w"], fused["b"],
                            (fused["A"], fused["B"], 2.5, mask))
            ad.tsum(ad.mul(out, g)).backward()
            x = chain["x"]
            xm = ad.mul(x, Tensor(mask)) if masked else x  # the former dropout op
            ref = matmul(matmul(xm, ad.transpose(chain["A"])), ad.transpose(chain["B"]))
            ref = ad.add(matmul(x, chain["w"]), ad.add(chain["b"], ad.mul(ref, 2.5)))
            ad.tsum(ad.mul(ref, g)).backward()
            assert np.abs(out.data - ref.data).max() <= 1e-12, lead
            for n in values:
                assert np.abs(fused[n].grad - chain[n].grad).max() <= 1e-12, (lead, n)

    def test_adds_the_branch_after_the_bias(self):
        # x W, then + b, then + the branch: the order of the former add nodes
        rng = np.random.default_rng(16)
        x, w, b, a, bb = (Tensor(rng.normal(size=s))
                          for s in ((2, 3, 6), (6, 4), (4,), (2, 6), (4, 2)))
        mask = (rng.random(x.shape) >= 0.3) / 0.7
        out = ad.linear(x, w, b, (a, bb, 2.5, mask))
        want = x.data @ w.data + b.data + (((x.data * mask) @ a.data.T) @ bb.data.T) * 2.5
        assert np.array_equal(out.data, want)

    def test_shape_mismatch(self):
        x, a = Tensor(np.zeros((3, 6))), Tensor(np.zeros((2, 6)))
        w, b = Tensor(np.zeros((6, 4))), Tensor(np.zeros(4))
        for bad in [(a, Tensor(np.zeros((4, 3))), 1.0, None),
                    (Tensor(np.zeros((2, 5))), Tensor(np.zeros((4, 2))), 1.0, None),
                    (a, Tensor(np.zeros((4, 2))), 1.0, np.ones((3, 5))),
                    (a, Tensor(np.zeros((5, 2))), 1.0, None)]:
            with pytest.raises(ShapeMismatchError, match="lora A"):
                ad.linear(x, w, b, bad)


class TestCosineRows:
    def test_orthonormal_identity(self):
        assert np.allclose(cosine_rows(Tensor(np.eye(3)), np.eye(3)).data, np.eye(3), atol=0)

    def test_negated(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 6))
        out = cosine_rows(Tensor(a), -a)
        assert np.allclose(np.diag(out.data), -1.0, atol=1e-12)

    def test_vs_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = cosine_rows(Tensor(a), b).data
        for i in range(4):
            for j in range(4):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert abs(out[i, j] - want) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        out = cosine_rows(Tensor(rng.normal(size=(6, 5))), rng.normal(size=(6, 5)))
        assert np.all(np.abs(out.data) <= 1.0 + 1e-12)

    def test_zero_norm_row_names_index(self):
        a = np.ones((3, 2))
        a[1] = 0.0
        with pytest.raises(DegenerateInputError, match="row 1"):
            cosine_rows(Tensor(a), np.ones((3, 2)))
        batched = np.ones((2, 3, 2))
        batched[1] = a
        with pytest.raises(DegenerateInputError, match=r"row 1 of batch entry \(1,\) "
                                                       r"in argument b"):
            cosine_rows(Tensor(np.ones((2, 3, 2))), batched)

    def test_batched_equals_stacked_and_shapes_checked(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 6, 5))
        stacked = np.stack([cosine_rows(Tensor(x), y).data for x, y in zip(a, b)])
        assert np.array_equal(cosine_rows(Tensor(a), b).data, stacked)
        for bad in (b[0], b[:2], rng.normal(size=(3, 6, 4))):
            with pytest.raises(ShapeMismatchError):
                cosine_rows(Tensor(a), bad)


class TestBceWithLogits:
    def test_ln2_at_zero(self):
        loss = bce_with_logits(Tensor(np.zeros((2, 2))), np.ones((2, 2)))
        assert float(loss.data) == np.log1p(1.0)
        loss0 = bce_with_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 2)))
        assert float(loss0.data) == np.log1p(1.0)

    def test_saturation_no_overflow(self):
        loss = bce_with_logits(Tensor([[50.0]]), np.ones((1, 1)))
        assert 0.0 <= float(loss.data) < 1e-15

    def test_vs_naive_extended_precision(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(6, 6)) * 5
        t = (rng.random((6, 6)) > 0.5).astype(float)
        loss = float(bce_with_logits(Tensor(z), t).data)
        ze = z.astype(np.longdouble)
        sig = 1.0 / (1.0 + np.exp(-ze))
        naive = float((-(t * np.log(sig) + (1 - t) * np.log(1 - sig))).mean())
        assert abs(loss - naive) <= 1e-10 * abs(naive)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(size=(3, 3)) * 10
            t = (rng.random((3, 3)) > 0.5).astype(float)
            assert float(bce_with_logits(Tensor(z), t).data) >= 0.0

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            bce_with_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="binary"):
            bce_with_logits(Tensor(np.zeros((2, 2))), np.full((2, 2), 0.5))


class TestReshape:
    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"\(6,\) to \(4, 2\)"):
            ad.reshape(Tensor(np.zeros(6)), (4, 2))


class TestBatchedLosses:
    """A batch of matrices averages over batch x rows, the mean of the
    per-matrix losses when every matrix has the same number of rows."""

    def test_diag_cross_entropy(self):
        x = np.random.default_rng(4).normal(size=(3, 5, 5))
        per = [float(ad.masked_softmax_nll(Tensor(m), np.eye(5)).data) for m in x]
        got = ad.masked_softmax_nll(Tensor(x), np.broadcast_to(np.eye(5), x.shape))
        assert abs(float(got.data) - np.mean(per)) <= 1e-15

    def test_masked_softmax_nll(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5, 5))
        mask = (rng.random((3, 5, 5)) < 0.3) | np.eye(5, dtype=bool)
        per = [float(ad.masked_softmax_nll(Tensor(m), k).data) for m, k in zip(x, mask)]
        assert abs(float(ad.masked_softmax_nll(Tensor(x), mask).data)
                   - np.mean(per)) <= 1e-15


def logsumexp(v):
    m = v.max()
    return m + np.log(np.exp(v - m).sum())


class TestMaskedSoftmaxLogSpace:
    """The loss is lse(row) - lse(row over the positives), never the log of a
    probability, so positives far below the row's maximum stay finite."""

    def test_positive_800_below_the_max(self):
        x = Tensor([[0.0, 800.0]], requires_grad=True)
        loss = ad.masked_softmax_nll(x, np.array([[1, 0]]))
        loss.backward()
        assert float(loss.data) == 800.0
        assert np.array_equal(x.grad, [[-1.0, 1.0]])

    def test_batch_with_every_positive_745_below_its_row_max(self):
        rng = np.random.default_rng(6)
        mask = (rng.random((3, 5, 5)) < 0.4) | np.eye(5, dtype=bool)
        mask[:, np.arange(5), (np.arange(5) + 1) % 5] = False  # a negative in every row
        x = rng.normal(size=(3, 5, 5))
        x[mask] -= 800.0
        xp = np.where(mask, x, -np.inf)
        assert (x.max(axis=-1) - xp.max(axis=-1)).min() > 745.0
        t = Tensor(x, requires_grad=True)
        loss = ad.masked_softmax_nll(t, mask)
        loss.backward()
        rows = [(r, k) for xb, mb in zip(x, mask) for r, k in zip(xb, mb)]
        want = np.mean([logsumexp(r) - logsumexp(r[k]) for r, k in rows])
        assert abs(float(loss.data) - want) <= 1e-12 * want
        soft = np.exp(x - x.max(axis=-1, keepdims=True))
        soft /= soft.sum(axis=-1, keepdims=True)
        pos = np.exp(xp - xp.max(axis=-1, keepdims=True))
        pos /= pos.sum(axis=-1, keepdims=True)
        assert np.isfinite(t.grad).all()
        assert np.allclose(t.grad, (soft - pos) / 15, rtol=0.0, atol=1e-15)

    def test_mask_of_another_shape_raises(self):
        x = Tensor(np.zeros((2, 3, 3)))
        with pytest.raises(ShapeMismatchError,
                           match=r"masked_softmax_nll shape mismatch: \(2, 3, 3\) vs \(3, 4\)"):
            ad.masked_softmax_nll(x, np.eye(3, 4))

    def test_row_without_a_positive_raises(self):
        mask = np.eye(3)
        mask[1, 1] = 0.0
        with pytest.raises(DegenerateInputError,
                           match="masked_softmax_nll: a row has no selected position"):
            ad.masked_softmax_nll(Tensor(np.zeros((3, 3))), mask)


def ulps(got, want):
    """|got - want| in units of the last place of ``want``."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def erf_inputs():
    """A dense grid past the table's end, normals at four scales, and tiny
    and subnormal values of both signs."""
    rng = np.random.default_rng(8)
    tiny = np.geomspace(5e-324, 1e-3, 20_001)
    return np.concatenate([np.linspace(-7.0, 7.0, 280_001),
                           *(rng.normal(scale=s, size=50_000) for s in (0.3, 1.0, 2.0, 4.0)),
                           tiny, -tiny])


class TestErf:
    def test_within_2_ulp_of_math_erf(self):
        x = erf_inputs()
        want = np.array([math.erf(v) for v in x])
        assert ulps(ad.erf(x), want).max() <= 2.0

    def test_within_4_ulp_of_scipy(self):
        # imported here: acceptance 2 imports this module and needs no scipy
        from scipy.special import erf as scipy_erf
        x = erf_inputs()
        assert ulps(ad.erf(x), scipy_erf(x)).max() <= 4.0

    def test_special_values_raise_no_warning(self):
        # a NaN cast to an index or an overflowing offset would raise here
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 6.0, -6.0])
        with np.errstate(all="raise"):
            got = ad.erf(x)
        assert np.array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
        assert list(np.signbit(got[:2])) == [False, True]
        assert np.isnan(got[4])
        assert np.array_equal(got[5:], [1.0, -1.0, 1.0, -1.0])

    def test_keeps_shape_and_odd_symmetry(self):
        x = np.random.default_rng(9).normal(size=(3, 4, 5)).transpose(2, 0, 1)
        assert ad.erf(x).shape == (5, 3, 4)
        assert np.array_equal(ad.erf(-x), -ad.erf(x))
        assert ad.erf(np.array(0.5)).shape == ()
        assert ad.erf(np.array(0.5)) == math.erf(0.5)

    def test_scale_rounds_as_a_scaled_argument(self):
        # gelu passes 1/sqrt(2) as scale instead of a scaled copy of its input
        x = np.concatenate([erf_inputs(), [0.0, -0.0, 1e-320, -1e-320]])
        for c in (1.0 / math.sqrt(2.0), 0.3, 3.0):
            got, want = ad.erf(x, c), ad.erf(x * c)
            assert np.array_equal(got, want) and np.array_equal(
                np.signbit(got), np.signbit(want)), c


class TestErfRanges:
    """``erf`` runs a rational form for |x| < 0.84375 and a node table beyond it."""

    def test_range_edge_within_2_ulp_of_math_erf(self):
        edge = [0.84375]
        for toward in (0.0, np.inf):
            v = 0.84375
            for _ in range(3):
                v = np.nextafter(v, toward)
                edge.append(v)
        x = np.array(edge + [-v for v in edge])
        want = np.array([math.erf(v) for v in x])
        assert ulps(ad.erf(x), want).max() <= 2.0

    @pytest.mark.parametrize("odd", [np.nan, np.inf, -np.inf, 1e308, -1e308, 3.0,
                                     -0.0, 5e-324])
    @pytest.mark.parametrize("scale", [1.0, 1.0 / math.sqrt(2.0)])
    def test_each_element_as_if_alone(self, odd, scale):
        # without ``odd`` the array takes the rational form throughout; with it,
        # no element's result, the sign of a zero included, may change
        x = np.random.default_rng(12).normal(scale=0.3, size=(4, 32)).clip(-0.8, 0.8)
        x[2, 5] = odd
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ad.erf(x, scale)
            alone = np.array([ad.erf(np.array(v), scale) for v in x.ravel()])
        assert got.tobytes() == alone.tobytes()


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        assert grad_check(lambda t: ad.tsum(ad.mul(t, t)), x) < 1e-8

    def test_bce(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 4)))
        t = (rng.random((4, 4)) > 0.5).astype(float)
        assert grad_check(lambda z: bce_with_logits(z, t), x) < 1e-5

    def test_nonfinite_f_rejected(self):
        # overflow inside an op must surface as NumericError, not Inf
        big = Tensor(np.full((2, 2), 500.0))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            grad_check(lambda t: ad.mul(ad.mul(ad.tsum(t), 1e300), 1e300), big)


class TestFiniteAtTheBoundary:
    """Ops do not check their outputs; ``check_finite`` and
    ``check_grads_finite`` do, and name the op from the tape."""

    def test_ops_pass_non_finite_values_on(self):
        with np.errstate(over="ignore"):
            y = ad.mul(Tensor([1e300], requires_grad=True), 1e300)
        assert np.isinf(y.data).all()

    def test_names_first_non_finite_op(self):
        x = Tensor([1e300, 1.0], requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            out = gelu(ad.layernorm(ad.mul(x, 1e300), Tensor([1.0, 1.0]), Tensor([0.0, 0.0])))
        with pytest.raises(NumericError, match=r"in the test, first produced by mul$"):
            ad.check_finite(out, "the test")
        assert ad.check_finite(x, "the test") is x

    def test_names_a_leaf_and_an_untaped_op(self):
        w = Tensor([1.0], requires_grad=True)
        w.data = np.array([np.inf])  # as an optimizer update may leave it
        with pytest.raises(NumericError, match="first produced by a leaf tensor"):
            ad.check_finite(gelu(ad.add(w, Tensor(1.0))), "the test")
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="mul or an op before it"):
            ad.check_finite(ad.mul(Tensor([1e300]), 1e300), "the test")

    def test_non_finite_gradient_names_op(self):
        x = Tensor([1e-300], requires_grad=True)
        loss = ad.tsum(ad.mul(ad.mul(x, 1e300), 1e300))  # 1e300: finite, as is every value
        with np.errstate(over="ignore"):
            loss.backward()
        with pytest.raises(NumericError, match="at an input of mul"):
            ad.check_grads_finite(loss, [x])
        ad.check_grads_finite(loss, [Tensor([1.0], requires_grad=True)])


class TestTensorInvariants:
    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_shared_parameter_accumulates(self):
        w = Tensor([[2.0]], requires_grad=True)
        y = ad.add(ad.tsum(matmul(w, Tensor([[3.0]]))), ad.tsum(matmul(w, Tensor([[5.0]]))))
        y.backward()
        assert w.grad[0, 0] == 8.0

    def test_first_gradient_is_not_aliased(self):
        # add hands one gradient buffer to both of its parents
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        z = ad.add(x, x)
        ad.tsum(z).backward()
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))
        assert np.array_equal(z.grad, np.ones((2, 3)))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            ad.add(x, x).backward()


class TestParentRule:
    """A node records as parents only the operands that take a gradient."""

    def test_add_records_only_its_taped_operand(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = ad.add(a, Tensor(np.ones(3)))
        assert out._parents == (a,)
        assert ad.add(Tensor(np.ones(3)), Tensor(np.ones(3)))._parents == ()

    def test_linear_drops_a_frozen_input(self):
        class Referable(Tensor):
            __slots__ = ("__weakref__",)

        rng = np.random.default_rng(17)
        x = Referable(rng.normal(size=(2, 3, 6)))
        w, b = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=4))
        a, bb = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 6), (4, 2)))
        out = ad.linear(x, w, b, (a, bb, 2.5, None))
        assert out._parents == (a, bb)
        ref = weakref.ref(x)
        del x
        assert ref() is None  # the node does not keep it alive
        ad.tsum(out).backward()
        assert a.grad is not None and bb.grad is not None


def _block_operands(rng):
    """``block``'s operands by name, and ``block`` on them: 2 images of 3
    patches of width 4, 2 heads of width 2, a hidden width of 8, and a
    rank-2 adapter with a dropout mask on every layer."""
    arrays = {"x": rng.normal(size=(2, 3, 4))}
    for name in ("norm1", "norm2"):
        arrays[f"{name}.w"], arrays[f"{name}.b"] = 1.0 + 0.2 * rng.normal(size=(2, 4))
    masks = {}
    for name, (k, d) in {"qkv": (4, 12), "proj": (4, 4), "fc1": (4, 8), "fc2": (8, 4)}.items():
        arrays[f"{name}.w"] = rng.normal(size=(k, d)) / np.sqrt(k)
        arrays[f"{name}.b"] = 0.2 * rng.normal(size=d)
        arrays[f"{name}.A"] = 0.5 * rng.normal(size=(2, k))
        arrays[f"{name}.B"] = 0.5 * rng.normal(size=(d, 2))
        masks[name] = (rng.random((2, 3, k)) >= 0.3) / 0.7

    def f(a):
        def layer(name):
            return a[f"{name}.w"], a[f"{name}.b"], (a[f"{name}.A"], a[f"{name}.B"], 1.5,
                                                   masks[name])
        return ad.block(a["x"], (a["norm1.w"], a["norm1.b"]), layer("qkv"), layer("proj"),
                        (a["norm2.w"], a["norm2.b"]), layer("fc1"), layer("fc2"),
                        heads=2, dh=2)[0]
    return arrays, f


def _constant_cases():
    """op -> make(rng) -> (arrays, f): ``f`` runs the op on a dict of
    operands named as ``arrays`` is."""
    def case(f, **shapes):
        return lambda rng: ({name: rng.normal(size=s) for name, s in shapes.items()}, f)

    mask = (np.random.default_rng(3).random((2, 3, 6)) >= 0.3) / 0.7
    return {
        "add": case(lambda a: ad.add(a["a"], a["b"]), a=(3, 4), b=(4,)),
        "mul": case(lambda a: ad.mul(a["a"], a["b"]), a=(3, 4), b=(3, 1)),
        "linear": case(lambda a: ad.linear(a["x"], a["w"], a["b"], (a["A"], a["B"], 2.5, mask)),
                       x=(2, 3, 6), w=(6, 4), b=(4,), A=(2, 6), B=(4, 2)),
        "layernorm": case(lambda a: ad.layernorm(a["x"], a["w"], a["b"]),
                          x=(3, 5), w=(5,), b=(5,)),
        "block": _block_operands,
    }


CONSTANT_CASES = _constant_cases()


class TestConstantOperands:
    """An operand that takes no gradient may be a plain array: the op gives
    the bytes it gives for the same array in an untaped ``Tensor``, and its
    node records no constant as a parent."""

    @pytest.mark.parametrize("op,const", [
        (op, name) for op, make in CONSTANT_CASES.items()
        for name in make(np.random.default_rng(0))[0]])
    def test_a_constant_array_equals_an_untaped_tensor(self, op, const):
        arrays, f = CONSTANT_CASES[op](np.random.default_rng(20))

        def run(constant):
            t = {name: Tensor(v, requires_grad=True) for name, v in arrays.items()}
            t[const] = constant
            out = f(t)
            g = np.random.default_rng(21).normal(size=out.shape)
            ad.tsum(ad.mul(out, g)).backward()
            return out, t

        plain, plain_operands = run(arrays[const])
        wrapped, wrapped_operands = run(Tensor(arrays[const]))
        assert same_bytes(plain.data, wrapped.data)
        for name in arrays.keys() - {const}:
            assert same_bytes(plain_operands[name].grad, wrapped_operands[name].grad), name
        assert len(plain._parents) == len(arrays) - 1
        assert all(isinstance(p, Tensor) and p.requires_grad for p in plain._parents)
        assert not any(p is arrays[const] for p in plain._parents)

    @pytest.mark.parametrize("side", [0, 1])
    def test_mul_by_a_float_equals_an_untaped_tensor(self, side):
        x = np.random.default_rng(22).normal(size=(3, 4))
        grads = []
        for c in (0.25, Tensor(0.25)):
            t = Tensor(x, requires_grad=True)
            out = ad.mul(*((t, c) if side == 0 else (c, t)))
            assert out._parents == (t,)
            ad.tsum(out).backward()
            grads.append((out.data, t.grad))
        assert same_bytes(grads[0][0], grads[1][0]) and same_bytes(grads[0][1], grads[1][1])


def _matmul_case(rng):
    b = Tensor(rng.normal(size=(4, 2)))
    w = Tensor(rng.normal(size=(3, 2)))
    return (lambda t: ad.tsum(ad.mul(matmul(t, b), w)),
            Tensor(rng.normal(size=(3, 4))))


def _attention_batched_case(rng):
    # 2 images of 4 patches, 2 heads of width 2; scores scaled by 2 so that
    # the maps are far from uniform
    w = rng.normal(size=(2, 4, 4))
    return (weighted_sum(lambda t: attention(ad.mul(t, 2.0), heads=2, dh=2)[0], w),
            Tensor(rng.normal(size=(2, 4, 12))))


def _linear_cases():
    """One case per differentiable input of ``linear`` on a batched ``x``."""
    shapes = {"x": (2, 3, 4), "w": (4, 5), "b": (5,)}

    def case(wrt):
        def make(rng):
            args = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
            w = rng.normal(size=(2, 3, 5))

            def f(t):
                return ad.linear(**dict(args, **{wrt: t}))
            return weighted_sum(f, w), Tensor(rng.normal(size=shapes[wrt]))
        return make
    return {f"linear_{name}": case(name) for name in shapes}


def _lora_delta_cases():
    """One case per differentiable input of the LoRA delta, ``linear``'s
    adapter branch, with ``w`` and ``b`` present, without and with a dropout
    mask (keep probability 0.7)."""
    shapes = {"x": (2, 3, 6), "w": (6, 4), "b": (4,), "A": (2, 6), "B": (4, 2)}

    def case(wrt, masked):
        def make(rng):
            args = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
            mask = (rng.random(shapes["x"]) >= 0.3) / 0.7 if masked else None
            w = rng.normal(size=(2, 3, 4))

            def f(t):
                a = dict(args, **{wrt: t})
                return ad.linear(a["x"], a["w"], a["b"], (a["A"], a["B"], 2.5, mask))
            return weighted_sum(f, w), Tensor(rng.normal(size=shapes[wrt]))
        return make
    return {f"lora_delta{'_masked' if masked else ''}_{name}": case(name, masked)
            for name in ("x", "A", "B") for masked in (False, True)}


def _cosine_case(rng):
    b = rng.normal(size=(4, 3))
    return (weighted_sum(lambda t: cosine_rows(t, b), rng.normal(size=(4, 4))),
            Tensor(rng.normal(size=(4, 3))))


def _bce_case(rng):
    tgt = (rng.random((4, 4)) > 0.5).astype(float)
    return lambda t: bce_with_logits(t, tgt), Tensor(rng.normal(size=(4, 4)))


def _layernorm_case(rng):
    w = Tensor(rng.normal(size=5))
    b = Tensor(rng.normal(size=5))
    return (weighted_sum(lambda t: ad.layernorm(t, w, b), rng.normal(size=(3, 5))),
            Tensor(rng.normal(size=(3, 5))))


def _gelu_case(rng):
    return (weighted_sum(gelu, rng.normal(size=(3, 5))),
            Tensor(rng.normal(size=(3, 5))))


def _identity_mask_nll(t):
    return ad.masked_softmax_nll(t, np.broadcast_to(np.eye(t.shape[-1]), t.shape))


def _diag_ce_case(rng):
    return _identity_mask_nll, Tensor(rng.normal(size=(5, 5)))


def _add_case(rng):
    b = Tensor(rng.normal(size=4))
    return (weighted_sum(lambda t: ad.add(t, b), rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 4))))


def _mul_case(rng):
    b = Tensor(rng.normal(size=(3, 4)))
    return (weighted_sum(lambda t: ad.mul(t, b), rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 4))))


def _add_size1_axis_case(rng):
    # the (3, 1) operand's gradient sums its broadcast axis, keeping it
    b = Tensor(rng.normal(size=(3, 4)))
    return (weighted_sum(lambda t: ad.add(t, b), rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 1))))


def _mul_size1_axis_case(rng):
    # the (2, 1, 4) operand's gradient sums a leading axis away, then a size-1 one
    b = Tensor(rng.normal(size=(5, 2, 3, 4)))
    return (weighted_sum(lambda t: ad.mul(t, b), rng.normal(size=(5, 2, 3, 4))),
            Tensor(rng.normal(size=(2, 1, 4))))


def _mean_case(rng):
    return ad.tmean, Tensor(rng.normal(size=(3, 4)))


def _matmul_batched_case(rng):
    # (2,3,4) @ (4,5) broadcasts the right operand, (2,3,4) @ (2,4,5) does not;
    # each trial differentiates one side of one of the two products
    a_shape, b_shape = (2, 3, 4), [(4, 5), (2, 4, 5)][rng.integers(2)]
    w = rng.normal(size=(2, 3, 5))
    if rng.integers(2):
        b = Tensor(rng.normal(size=b_shape))
        return weighted_sum(lambda t: matmul(t, b), w), Tensor(rng.normal(size=a_shape))
    a = Tensor(rng.normal(size=a_shape))
    return weighted_sum(lambda t: matmul(a, t), w), Tensor(rng.normal(size=b_shape))


def _cosine_batched_case(rng):
    # a (2,5,3) x (2,4,3) similarity; b is fixed and takes no gradient
    w = rng.normal(size=(2, 5, 4))
    b = rng.normal(size=(2, 4, 3))
    return weighted_sum(lambda t: cosine_rows(t, b), w), Tensor(rng.normal(size=(2, 5, 3)))


def _cosine_shared_case(rng):
    # a (2, 2, 5, 3) against a fixed (2, 4, 3) that both entries of a's first
    # axis share
    w = rng.normal(size=(2, 2, 5, 4))
    b = rng.normal(size=(2, 4, 3))
    return weighted_sum(lambda t: cosine_rows(t, b), w), Tensor(rng.normal(size=(2, 2, 5, 3)))


def _diag_ce_batched_case(rng):
    return _identity_mask_nll, Tensor(rng.normal(size=(3, 4, 4)))


def _masked_nll_batched_case(rng):
    mask = (rng.random((3, 4, 4)) < 0.4) | np.eye(4, dtype=bool)
    return lambda t: ad.masked_softmax_nll(t, mask), Tensor(rng.normal(size=(3, 4, 4)))


# The split forms as the loss table runs them: two entries of the first axis
# share one (3, 4, 4) target or mask, and a random weight per entry gives
# each its own incoming gradient.
def _bce_split_case(rng):
    tgt = (rng.random((3, 4, 4)) > 0.5).astype(float)
    return (weighted_sum(lambda t: bce_with_logits(t, tgt), rng.normal(size=2)),
            Tensor(rng.normal(size=(2, 3, 4, 4))))


def _masked_nll_split_case(rng):
    mask = (rng.random((3, 4, 4)) < 0.4) | np.eye(4, dtype=bool)
    return (weighted_sum(lambda t: ad.masked_softmax_nll(t, mask),
                         rng.normal(size=2)),
            Tensor(rng.normal(size=(2, 3, 4, 4))))


def _mean_split_case(rng):
    return (weighted_sum(lambda t: ad.tmean(t, split=True), rng.normal(size=2)),
            Tensor(rng.normal(size=(2, 3, 4, 4))))


def _scale_array_sum_case(rng):
    # loss_pccl's form: a (2,) vector weighted by a fixed array, then summed
    w = rng.normal(size=2)
    return lambda t: ad.tsum(ad.mul(t, w)), Tensor(rng.normal(size=2))


def _transpose_axes_case(rng):
    return (weighted_sum(lambda t: ad.transpose(t, (1, 2, 0)), rng.normal(size=(3, 4, 2))),
            Tensor(rng.normal(size=(2, 3, 4))))


def _reshape_case(rng):
    return (weighted_sum(lambda t: ad.reshape(t, (4, 6)), rng.normal(size=(4, 6))),
            Tensor(rng.normal(size=(2, 3, 4))))


def _block_case(lora):
    """``block`` on 2 images of 3 patches of width 4, with 2 heads of width 2
    and a hidden width of 8.  A trial differentiates the input or one
    parameter: in full mode any weight, bias or LayerNorm parameter (all take
    gradients); in LoRA mode an adapter's A or B (rank 2, dropout masks at
    keep probability 0.7, the base weights frozen)."""
    widths = {"qkv": (4, 12), "proj": (4, 4), "fc1": (4, 8), "fc2": (8, 4)}

    def make(rng):
        t = {"x": Tensor(rng.normal(size=(2, 3, 4)))}
        for name in ("norm1", "norm2"):
            t[f"{name}.w"] = Tensor(1.0 + 0.2 * rng.normal(size=4), requires_grad=not lora)
            t[f"{name}.b"] = Tensor(0.2 * rng.normal(size=4), requires_grad=not lora)
        masks = {}
        for name, (k, d) in widths.items():
            t[f"{name}.w"] = Tensor(rng.normal(size=(k, d)) / np.sqrt(k),
                                    requires_grad=not lora)
            t[f"{name}.b"] = Tensor(0.2 * rng.normal(size=d), requires_grad=not lora)
            if lora:
                t[f"{name}.A"] = Tensor(0.5 * rng.normal(size=(2, k)), requires_grad=True)
                t[f"{name}.B"] = Tensor(0.5 * rng.normal(size=(d, 2)), requires_grad=True)
                masks[name] = (rng.random((2, 3, k)) >= 0.3) / 0.7
        wrt = [name for name, v in t.items() if name == "x" or v.requires_grad]
        pick = wrt[rng.integers(len(wrt))]
        w = rng.normal(size=(2, 3, 4))

        def f(arg):
            a = dict(t, **{pick: arg})

            def layer(name):
                branch = (a[f"{name}.A"], a[f"{name}.B"], 1.5, masks[name]) if lora else None
                return a[f"{name}.w"], a[f"{name}.b"], branch
            return ad.block(a["x"], (a["norm1.w"], a["norm1.b"]), layer("qkv"), layer("proj"),
                            (a["norm2.w"], a["norm2.b"]), layer("fc1"), layer("fc2"),
                            heads=2, dh=2)[0]
        return weighted_sum(f, w), Tensor(t[pick].data)
    return make


# "diag_cross_entropy" names the loss, NCE's softmax on diagonal positives:
# masked_softmax_nll with an identity mask
DIFF_OPS = {
    "matmul": _matmul_case,
    "matmul_batched": _matmul_batched_case,
    "attention_batched": _attention_batched_case,
    **_linear_cases(),
    **_lora_delta_cases(),
    "cosine_rows": _cosine_case,
    "cosine_rows_batched": _cosine_batched_case,
    "cosine_rows_shared": _cosine_shared_case,
    "bce_with_logits": _bce_case,
    "bce_with_logits_split": _bce_split_case,
    "layernorm": _layernorm_case,
    "block_full": _block_case(lora=False),
    "block_lora": _block_case(lora=True),
    "gelu": _gelu_case,
    "diag_cross_entropy": _diag_ce_case,
    "diag_cross_entropy_batched": _diag_ce_batched_case,
    "masked_softmax_nll_batched": _masked_nll_batched_case,
    "masked_softmax_nll_split": _masked_nll_split_case,
    "add_broadcast": _add_case,
    "add_size1_axis": _add_size1_axis_case,
    "mul": _mul_case,
    "mul_size1_axis": _mul_size1_axis_case,
    "mean": _mean_case,
    "mean_split": _mean_split_case,
    "scale_array_sum": _scale_array_sum_case,
    "transpose_axes": _transpose_axes_case,
    "reshape": _reshape_case,
}


@pytest.mark.parametrize("name", sorted(DIFF_OPS))
def test_grad_check_100_trials(name):
    base = zlib.crc32(name.encode())
    for trial in range(100):
        rng = np.random.default_rng(base + trial)
        f, x = DIFF_OPS[name](rng)
        assert grad_check(f, x) < 1e-5, f"{name} trial {trial}"


def test_every_tape_op_has_a_gradient_check():
    # the program's ops, and the per-op references that live beside the tests
    calls = [node for module in (ad, tape_reference)
             for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Call)
             and "_make" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert all(isinstance(c.args[-1], ast.Constant) for c in calls)
    made = {c.args[-1].value for c in calls}
    taped = set()
    for name, case in DIFF_OPS.items():
        f, x = case(np.random.default_rng(zlib.crc32(name.encode())))
        taped |= {node._op for node in ad._topo(f(Tensor(x.data, requires_grad=True)))}
    assert made <= taped, sorted(made - taped)
