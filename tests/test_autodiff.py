import zlib

import numpy as np
import pytest

import irvis.autodiff as ad
from irvis.autodiff import (Tensor, bce_with_logits, cosine_rows, grad_check,
                            matmul, softmax_rows)
from irvis.errors import DegenerateInputError, NumericError, ShapeMismatchError


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


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=0)

    def test_forced(self):
        out = softmax_rows(Tensor([[np.log(1.0), np.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_row_sums(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(Tensor(rng.normal(size=(8, 8)) * 10))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(out.data > 0)

    def test_stability_large_inputs(self):
        out = softmax_rows(Tensor([[1000.0, 999.0]]))
        assert np.all(np.isfinite(out.data))


class TestCosineRows:
    def test_orthonormal_identity(self):
        e = Tensor(np.eye(3))
        assert np.allclose(cosine_rows(e, e).data, np.eye(3), atol=0)

    def test_negated(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 6))
        out = cosine_rows(Tensor(a), Tensor(-a))
        assert np.allclose(np.diag(out.data), -1.0, atol=1e-12)

    def test_vs_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = cosine_rows(Tensor(a), Tensor(b)).data
        for i in range(4):
            for j in range(4):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert abs(out[i, j] - want) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        out = cosine_rows(Tensor(rng.normal(size=(6, 5))),
                          Tensor(rng.normal(size=(6, 5))))
        assert np.all(np.abs(out.data) <= 1.0 + 1e-12)

    def test_zero_norm_row_names_index(self):
        a = np.ones((3, 2))
        a[1] = 0.0
        with pytest.raises(DegenerateInputError, match="row 1"):
            cosine_rows(Tensor(a), Tensor(np.ones((3, 2))))
        batched = np.ones((2, 3, 2))
        batched[1] = a
        with pytest.raises(DegenerateInputError, match=r"row 1 of batch entry \(1,\) "
                                                       r"in argument b"):
            cosine_rows(Tensor(np.ones((2, 3, 2))), Tensor(batched))

    def test_batched_equals_stacked_and_shapes_checked(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 6, 5))
        stacked = np.stack([cosine_rows(Tensor(x), Tensor(y)).data for x, y in zip(a, b)])
        assert np.array_equal(cosine_rows(Tensor(a), Tensor(b)).data, stacked)
        for bad in (b[0], b[:2], rng.normal(size=(3, 6, 4))):
            with pytest.raises(ShapeMismatchError):
                cosine_rows(Tensor(a), Tensor(bad))


class TestBceWithLogits:
    def test_ln2_at_zero(self):
        loss = bce_with_logits(Tensor(np.zeros((2, 2))), Tensor(np.ones((2, 2))))
        assert loss.item() == np.log1p(1.0)
        loss0 = bce_with_logits(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert loss0.item() == np.log1p(1.0)

    def test_saturation_no_overflow(self):
        loss = bce_with_logits(Tensor([[50.0]]), Tensor([[1.0]]))
        assert 0.0 <= loss.item() < 1e-15

    def test_vs_naive_extended_precision(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(6, 6)) * 5
        t = (rng.random((6, 6)) > 0.5).astype(float)
        loss = bce_with_logits(Tensor(z), Tensor(t)).item()
        ze = z.astype(np.longdouble)
        sig = 1.0 / (1.0 + np.exp(-ze))
        naive = float((-(t * np.log(sig) + (1 - t) * np.log(1 - sig))).mean())
        assert abs(loss - naive) <= 1e-10 * abs(naive)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(size=(3, 3)) * 10
            t = (rng.random((3, 3)) > 0.5).astype(float)
            assert bce_with_logits(Tensor(z), Tensor(t)).item() >= 0.0

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            bce_with_logits(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="binary"):
            bce_with_logits(Tensor(np.zeros((2, 2))), Tensor(np.full((2, 2), 0.5)))


class TestReshape:
    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"\(6,\) to \(4, 2\)"):
            ad.reshape(Tensor(np.zeros(6)), (4, 2))


class TestBatchedLosses:
    """A batch of matrices averages over batch x rows, the mean of the
    per-matrix losses when every matrix has the same number of rows."""

    def test_diag_cross_entropy(self):
        x = np.random.default_rng(4).normal(size=(3, 5, 5))
        per = [float(ad.diag_cross_entropy(Tensor(m)).data) for m in x]
        assert abs(float(ad.diag_cross_entropy(Tensor(x)).data) - np.mean(per)) <= 1e-15

    def test_masked_softmax_nll(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5, 5))
        mask = (rng.random((3, 5, 5)) < 0.3) | np.eye(5, dtype=bool)
        per = [float(ad.masked_softmax_nll(Tensor(m), k).data) for m, k in zip(x, mask)]
        assert abs(float(ad.masked_softmax_nll(Tensor(x), mask).data)
                   - np.mean(per)) <= 1e-15


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        assert grad_check(lambda t: ad.tsum(ad.mul(t, t)), x) < 1e-8

    def test_bce(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 4)))
        t = Tensor((rng.random((4, 4)) > 0.5).astype(float))
        assert grad_check(lambda z: bce_with_logits(z, t), x) < 1e-5

    def test_nonfinite_f_rejected(self):
        # overflow inside an op must surface as NumericError, not Inf
        big = Tensor(np.full((2, 2), 500.0))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            grad_check(lambda t: ad.tsum(t) * 1e300 * 1e300, big)


class TestTensorInvariants:
    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_shared_parameter_accumulates(self):
        w = Tensor([[2.0]], requires_grad=True)
        y = ad.tsum(matmul(w, Tensor([[3.0]]))) + ad.tsum(matmul(w, Tensor([[5.0]])))
        y.backward()
        assert w.grad[0, 0] == 8.0

    def test_first_gradient_is_not_aliased(self):
        # add hands one gradient buffer to both of its parents
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        z = x + x
        ad.tsum(z).backward()
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))
        assert np.array_equal(z.grad, np.ones((2, 3)))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            (x + x).backward()


def _matmul_case(rng):
    b = Tensor(rng.normal(size=(4, 2)))
    w = Tensor(rng.normal(size=(3, 2)))
    return (lambda t: ad.tsum(ad.mul(matmul(t, b), w)),
            Tensor(rng.normal(size=(3, 4))))


def _softmax_case(rng):
    return (weighted_sum(softmax_rows, rng.normal(size=(4, 4))),
            Tensor(rng.normal(size=(4, 4))))


def _cosine_case(rng):
    b = Tensor(rng.normal(size=(4, 3)))
    return (weighted_sum(lambda t: cosine_rows(t, b), rng.normal(size=(4, 4))),
            Tensor(rng.normal(size=(4, 3))))


def _bce_case(rng):
    tgt = Tensor((rng.random((4, 4)) > 0.5).astype(float))
    return lambda t: bce_with_logits(t, tgt), Tensor(rng.normal(size=(4, 4)))


def _layernorm_case(rng):
    w = Tensor(rng.normal(size=5))
    b = Tensor(rng.normal(size=5))
    return (weighted_sum(lambda t: ad.layernorm(t, w, b), rng.normal(size=(3, 5))),
            Tensor(rng.normal(size=(3, 5))))


def _gelu_case(rng):
    return (weighted_sum(ad.gelu, rng.normal(size=(3, 5))),
            Tensor(rng.normal(size=(3, 5))))


def _diag_ce_case(rng):
    return ad.diag_cross_entropy, Tensor(rng.normal(size=(5, 5)))


def _add_case(rng):
    b = Tensor(rng.normal(size=4))
    return (weighted_sum(lambda t: t + b, rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 4))))


def _mul_case(rng):
    b = Tensor(rng.normal(size=(3, 4)))
    return (weighted_sum(lambda t: ad.mul(t, b), rng.normal(size=(3, 4))),
            Tensor(rng.normal(size=(3, 4))))


def _mean_case(rng):
    return ad.tmean, Tensor(rng.normal(size=(3, 4)))


def _take_case(rng):
    # a repeated column: its gradient must sum both uses
    return (weighted_sum(lambda t: t[:, [2, 0, 2]], rng.normal(size=(3, 3))),
            Tensor(rng.normal(size=(3, 4))))


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
    # each trial differentiates one side of a (2,5,3) x (2,4,3) similarity
    w = rng.normal(size=(2, 5, 4))
    if rng.integers(2):
        b = Tensor(rng.normal(size=(2, 4, 3)))
        return weighted_sum(lambda t: cosine_rows(t, b), w), Tensor(rng.normal(size=(2, 5, 3)))
    a = Tensor(rng.normal(size=(2, 5, 3)))
    return weighted_sum(lambda t: cosine_rows(a, t), w), Tensor(rng.normal(size=(2, 4, 3)))


def _diag_ce_batched_case(rng):
    return ad.diag_cross_entropy, Tensor(rng.normal(size=(3, 4, 4)))


def _masked_nll_batched_case(rng):
    mask = (rng.random((3, 4, 4)) < 0.4) | np.eye(4, dtype=bool)
    return lambda t: ad.masked_softmax_nll(t, mask), Tensor(rng.normal(size=(3, 4, 4)))


def _transpose_axes_case(rng):
    return (weighted_sum(lambda t: ad.transpose(t, (1, 2, 0)), rng.normal(size=(3, 4, 2))),
            Tensor(rng.normal(size=(2, 3, 4))))


DIFF_OPS = {
    "matmul": _matmul_case,
    "matmul_batched": _matmul_batched_case,
    "softmax_rows": _softmax_case,
    "cosine_rows": _cosine_case,
    "cosine_rows_batched": _cosine_batched_case,
    "bce_with_logits": _bce_case,
    "layernorm": _layernorm_case,
    "gelu": _gelu_case,
    "diag_cross_entropy": _diag_ce_case,
    "diag_cross_entropy_batched": _diag_ce_batched_case,
    "masked_softmax_nll_batched": _masked_nll_batched_case,
    "add_broadcast": _add_case,
    "mul": _mul_case,
    "mean": _mean_case,
    "take": _take_case,
    "transpose_axes": _transpose_axes_case,
}


@pytest.mark.parametrize("name", sorted(DIFF_OPS))
def test_grad_check_100_trials(name):
    base = zlib.crc32(name.encode())
    for trial in range(100):
        rng = np.random.default_rng(base + trial)
        f, x = DIFF_OPS[name](rng)
        assert grad_check(f, x) < 1e-5, f"{name} trial {trial}"
