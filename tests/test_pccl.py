import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvis import autodiff as ad
from irvis.autodiff import Tensor, grad_check
from irvis.errors import DegenerateInputError, ShapeMismatchError
from irvis.pccl import (LOSSES, loss_iv, loss_pccl, loss_variant_softmax, loss_vv,
                        pseudo_labels, similarity)
from conftest import exhaustive_pseudo_labels, random_stochastic, same_bytes


def labels_from(values):
    return np.asarray(values, dtype=float)


class TestSimilarity:
    def test_orthonormal_diag_at_default_tau(self):
        s = similarity(Tensor(np.eye(4)), np.eye(4), 0.04).data
        assert np.array_equal(np.diag(s), np.full(4, 1.0 / 0.04))
        off = s - np.diag(np.diag(s))
        assert np.all(off == 0.0)
        assert np.allclose(np.diag(s), 25.0, atol=1e-9)

    def test_tau_halving_doubles_exactly(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.normal(size=(5, 8))), rng.normal(size=(5, 8))
        # power-of-two temperatures keep the scaling bit-exact
        s1 = similarity(a, b, 1.0 / 16.0).data
        s2 = similarity(a, b, 1.0 / 32.0).data
        assert np.array_equal(s2, 2.0 * s1)

    def test_vs_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        s = similarity(Tensor(a), b, 0.04).data
        for i in range(5):
            for j in range(5):
                cos = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert abs(s[i, j] - cos / 0.04) <= 1e-12 / 0.04

    def test_bad_tau_and_zero_rows(self):
        a = np.ones((2, 3))
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                similarity(Tensor(a), a, tau)
        z = np.ones((2, 3))
        z[0] = 0.0
        with pytest.raises(DegenerateInputError):
            similarity(Tensor(z), a, 0.04)


class TestPseudoLabels:
    def test_uniform_rows(self):
        a = np.full((4, 4), 0.25)
        p = pseudo_labels(a, 0.6)
        # prefix sums 0.25/0.50/0.75 -> m=3, stable tie-break picks cols 0..2;
        # row 3's diagonal falls outside that prefix, so it holds m + 1 positives
        assert np.array_equal(p.sum(axis=-1), [3, 3, 3, 4])
        for i in range(4):
            expect = {0, 1, 2} | {i}
            assert set(np.flatnonzero(p[i])) == expect

    def test_dominant_entry(self):
        a = np.tile([0.7, 0.2, 0.05, 0.05], (4, 1))
        p = pseudo_labels(a, 0.6)
        # m = 1: the dominant column alone, and the diagonal beside it
        assert np.array_equal(p[3], [1, 0, 0, 1])
        assert np.array_equal(p[0], [1, 0, 0, 0])

    def test_diagonal_always_set(self):
        rng = np.random.default_rng(2)
        p = pseudo_labels(random_stochastic(rng, 9), 0.3)
        assert np.all(np.diag(p) == 1.0)

    def test_binary_values(self):
        rng = np.random.default_rng(3)
        p = pseudo_labels(random_stochastic(rng, 7), 0.6)
        assert set(np.unique(p)) <= {0.0, 1.0}

    @pytest.mark.parametrize("gamma", [0.3, 0.6])
    def test_matches_exhaustive_oracle_200(self, gamma):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            a = random_stochastic(rng, n)
            assert np.array_equal(pseudo_labels(a, gamma),
                                  exhaustive_pseudo_labels(a, gamma))

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_stochastic(rng, 8)
            lo = pseudo_labels(a, 0.3)
            hi = pseudo_labels(a, 0.6)
            assert np.all(lo <= hi)

    def test_permutation_equivariance_via_oracle(self):
        rng = np.random.default_rng(6)
        a = random_stochastic(rng, 10)
        perm = rng.permutation(10)
        conj = a[np.ix_(perm, perm)]
        assert np.array_equal(pseudo_labels(conj, 0.6),
                              exhaustive_pseudo_labels(conj, 0.6))

    def test_batched_equals_per_matrix(self):
        rng = np.random.default_rng(13)
        a = np.stack([random_stochastic(rng, 9) for _ in range(4)])
        batched = pseudo_labels(a, 0.6)
        assert batched.shape == (4, 9, 9)
        for i, matrix in enumerate(a):
            single = pseudo_labels(matrix, 0.6)
            assert same_bytes(batched[i], single)
            assert np.array_equal(batched[i], exhaustive_pseudo_labels(matrix, 0.6))

    def test_input_validation(self):
        with pytest.raises(DegenerateInputError, match="row 0"):
            pseudo_labels(np.ones((3, 3)), 0.6)
        a = np.full((3, 3), 1.0 / 3.0)
        for gamma in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                pseudo_labels(a, gamma)
        for shape in ((2, 3), (4, 3, 2), (3,)):
            with pytest.raises(ShapeMismatchError,
                               match=re.escape(f"attention must be square, got {shape}")):
                pseudo_labels(np.full(shape, 1.0 / shape[-1]), 0.6)

    def test_nan_or_negative_row_named(self):
        # every comparison with NaN is False, so the checks must pass on truth
        a = np.full((4, 4), 0.25)
        a[1] = np.nan
        with pytest.raises(DegenerateInputError, match="row 1 sums to nan"):
            pseudo_labels(a, 0.6)
        a = np.full((2, 4, 4), 0.25)
        a[1, 2, 3] = np.nan
        with pytest.raises(DegenerateInputError, match="row 1, 2 "):
            pseudo_labels(a, 0.6)
        a = np.full((4, 4), 0.25)
        a[2] = [0.5, -0.25, 0.5, 0.25]  # sums to 1
        with pytest.raises(DegenerateInputError, match="row 2 sums to 1.0"):
            pseudo_labels(a, 0.6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.sampled_from([0.3, 0.45, 0.6, 0.9]))
    def test_minimality_property(self, n, seed, gamma):
        a = random_stochastic(np.random.default_rng(seed), n)
        p = pseudo_labels(a, gamma)
        order = np.argsort(-a, axis=1, kind="stable")
        for i in range(n):
            # the minimal m from the attention row: the shortest descending
            # prefix whose mass exceeds gamma, or the whole row
            csum = np.cumsum(a[i, order[i]])
            m = next((k + 1 for k in range(n) if csum[k] > gamma), n)
            top = a[i, order[i, :m]]
            assert top.sum() > gamma or m == n
            if m > 1:
                assert top[:-1].sum() <= gamma
            # the row's positives are exactly that prefix and the diagonal
            assert set(np.flatnonzero(p[i])) == set(order[i, :m]) | {i}


class TestBceLosses:
    def test_zero_logits_ln2(self):
        rng = np.random.default_rng(7)
        p = labels_from((rng.random((5, 5)) > 0.5) | np.eye(5, dtype=bool))
        s = Tensor(np.zeros((5, 5)))
        assert abs(float(loss_iv(s, p).data) - np.log1p(1.0)) <= 1e-15
        assert abs(float(loss_vv(s, p).data) - np.log1p(1.0)) <= 1e-15

    def test_saturated_match_near_zero(self):
        rng = np.random.default_rng(8)
        mask = (rng.random((5, 5)) > 0.5) | np.eye(5, dtype=bool)
        p = labels_from(mask)
        s = Tensor(np.where(mask, 40.0, -40.0))
        assert float(loss_iv(s, p).data) < 1e-15

    def test_vs_naive_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(6, 6)) * 4
        mask = (rng.random((6, 6)) > 0.5) | np.eye(6, dtype=bool)
        got = float(loss_iv(Tensor(z), labels_from(mask)).data)
        sig = 1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))
        t = mask.astype(np.longdouble)
        naive = float((-(t * np.log(sig) + (1 - t) * np.log(1 - sig))).mean())
        assert abs(got - naive) <= 1e-10 * naive

    def test_shape_mismatch(self):
        s = similarity(Tensor(np.eye(4)), np.eye(4), 0.04)
        with pytest.raises(ShapeMismatchError):
            loss_iv(s, labels_from(np.eye(5)))


class TestCombinedLoss:
    def test_beta_zero(self):
        assert float(loss_pccl(Tensor([0.3, 0.5]), 1.0, 0.0).data) == 0.3

    def test_arithmetic(self):
        assert abs(float(loss_pccl(Tensor([0.3, 0.5]), 1.0, 1.0).data) - 0.8) < 1e-15

    def test_weights_the_branch_vector_in_one_pass(self):
        # the value is l0 * alpha + l1 * beta and the gradient [alpha, beta],
        # byte for byte, as when the two branch losses were weighted apart
        losses = Tensor(np.random.default_rng(21).normal(size=2) ** 2, requires_grad=True)
        alpha, beta = 0.7, 1.3
        loss = loss_pccl(losses, alpha, beta)
        loss.backward()
        l0, l1 = losses.data
        assert same_bytes(loss.data, np.array(l0 * alpha + l1 * beta))
        assert same_bytes(losses.grad, np.array([alpha, beta]))

    def test_negative_coefficient(self):
        # and every other coefficient outside [0, inf), NaN included
        for alpha, beta in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan),
                            (np.inf, 1.0), (1.0, np.inf)):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                loss_pccl(Tensor([0.1, 0.1]), alpha, beta)

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(10)
        f_vf = rng.normal(size=(4, 6))
        mask = (rng.random((4, 4)) > 0.5) | np.eye(4, dtype=bool)
        p = labels_from(mask)
        alpha, beta = 0.7, 1.3

        def combined(t):
            # both branches of a batch of one on the first axis: a loss per branch
            return loss_pccl(loss_iv(similarity(t, f_vf[None], 0.5), p[None]), alpha, beta)

        x = Tensor(rng.normal(size=(2, 1, 4, 6)))
        assert grad_check(combined, x) < 1e-5


def branches(*tensors):
    """Tensors of one shape stacked on a new first axis, the branch axis that
    ``LOSSES`` takes; the values only, off the tape."""
    return Tensor(np.stack([t.data for t in tensors]))


def two_branch_mse(f_i, f_v, f_vf):
    """The MSE ablation as training applies it: one ``LOSSES`` call scores
    both branches, and their losses are summed."""
    return ad.tsum(LOSSES["mse"](branches(f_i, f_v), f_vf, None, None))


def two_branch_nce(z_iv, z_vv):
    """The NCE ablation on given logits: the term ``LOSSES["nce"]`` applies to
    both branches' similarities at once, the softmax loss on the diagonal
    positives, one per branch, summed over both branches."""
    return ad.tsum(ad.masked_softmax_nll(branches(z_iv, z_vv), np.eye(z_iv.shape[-1])))


class TestAblationLosses:
    def test_mse_zero_when_equal(self):
        f = Tensor(np.random.default_rng(11).normal(size=(4, 6)))
        assert float(two_branch_mse(f, f, f.data).data) == 0.0

    def test_mse_unit_offset(self):
        f = Tensor(np.random.default_rng(12).normal(size=(4, 6)))
        shifted = Tensor(f.data + 1.0)
        assert abs(float(two_branch_mse(shifted, f, f.data).data) - 1.0) < 1e-12

    def test_mse_vs_naive(self):
        rng = np.random.default_rng(13)
        fi, fv, fvf = (rng.normal(size=(4, 6)) for _ in range(3))
        got = float(two_branch_mse(Tensor(fi), Tensor(fv), fvf).data)
        naive = ((fi - fvf) ** 2).mean() + ((fv - fvf) ** 2).mean()
        assert abs(got - naive) <= 1e-12 * max(1.0, naive)

    def test_nce_uniform_is_2_log_n(self):
        for n in (3, 8, 16):
            s = Tensor(np.zeros((n, n)))
            assert abs(float(two_branch_nce(s, s).data) - 2.0 * np.log(n)) <= 1e-10

    def test_nce_saturated_diag(self):
        n = 6
        s = Tensor(np.where(np.eye(n, dtype=bool), 40.0, -40.0))
        assert float(two_branch_nce(s, s).data) < 1e-15

    def test_nce_term_is_diag_cross_entropy_of_similarity(self):
        rng = np.random.default_rng(20)
        f_s, f_t = Tensor(rng.normal(size=(5, 8))), rng.normal(size=(5, 8))
        # one branch of a batch of one image
        got = float(LOSSES["nce"](Tensor(f_s.data[None, None]), f_t[None], None, 0.04).data[0])
        assert got == float(ad.masked_softmax_nll(similarity(f_s, f_t, 0.04), np.eye(5)).data)

    def test_nce_vs_naive(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(5, 5)) * 3, rng.normal(size=(5, 5)) * 3
        got = float(two_branch_nce(Tensor(a), Tensor(b)).data)
        naive = 0.0
        for z in (a, b):
            for i in range(5):
                row = z[i].astype(np.longdouble)
                naive += float(np.log(np.exp(row).sum()) - row[i]) / 5
        assert abs(got - naive) <= 1e-10 * naive


class TestSoftmaxVariant:
    def test_all_ones_labels(self):
        rng = np.random.default_rng(15)
        s = Tensor(rng.normal(size=(4, 4)))
        assert abs(float(loss_variant_softmax(s, labels_from(np.ones((4, 4)))).data)) < 1e-12

    def test_identity_labels_uniform_rows(self):
        n = 8
        s = Tensor(np.zeros((n, n)))
        got = float(loss_variant_softmax(s, labels_from(np.eye(n))).data)
        assert abs(got - np.log(n)) <= 1e-12

    def test_vs_naive(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(5, 5)) * 3
        mask = (rng.random((5, 5)) > 0.5) | np.eye(5, dtype=bool)
        got = float(loss_variant_softmax(Tensor(z), labels_from(mask)).data)
        naive = 0.0
        for i in range(5):
            p = np.exp(z[i].astype(np.longdouble))
            p /= p.sum()
            naive += float(-np.log(p[mask[i]].sum())) / 5
        assert abs(got - naive) <= 1e-10 * max(1e-30, naive)


def test_all_losses_nonnegative_and_grad_clean():
    rng = np.random.default_rng(18)
    f_i = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    f_v = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    f_vf = rng.normal(size=(6, 8))
    attn = random_stochastic(rng, 6)
    p = pseudo_labels(attn, 0.6)
    s_iv = similarity(f_i, f_vf, 0.04)
    s_vv = similarity(f_v, f_vf, 0.04)
    losses = [loss_iv(s_iv, p), loss_vv(s_vv, p),
              two_branch_mse(f_i, f_v, f_vf), two_branch_nce(s_iv, s_vv),
              loss_variant_softmax(s_iv, p)]
    for loss in losses:
        assert float(loss.data) >= 0.0 and np.isfinite(float(loss.data))


def test_gradients_do_not_reach_teacher_features():
    """The teacher's side of a similarity is a plain array, so the tape cannot
    reach it; a ``Tensor`` there raises instead of silently getting no gradient."""
    rng = np.random.default_rng(19)
    f_i = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    f_vf = rng.normal(size=(4, 6))
    p = pseudo_labels(random_stochastic(rng, 4), 0.6)
    s = similarity(f_i, f_vf, 0.04)
    leaves = [n for n in ad._topo(s) if n._op is None]
    assert len(leaves) == 1 and leaves[0] is f_i  # the student's features alone
    loss_iv(s, p).backward()
    assert f_i.grad is not None
    for teacher in (Tensor(f_vf), Tensor(f_vf, requires_grad=True)):
        with pytest.raises(AttributeError):  # a Tensor is not an array: it has no ndim
            ad.cosine_rows(f_i, teacher)
        with pytest.raises(AttributeError):
            similarity(f_i, teacher, 0.04)


def _mse_per_branch(f, f_t, p, tau):
    d = ad.add(f, Tensor(-f_t))
    return ad.tmean(ad.mul(d, d))


def _nce_per_branch(f, f_t, p, tau):
    s = similarity(f, f_t, tau)
    return ad.masked_softmax_nll(s, np.broadcast_to(np.eye(*s.shape[-2:]), s.shape))


# Each kind as one scalar term per branch, built from the ops' unsplit forms:
# the form training used before one call scored both branches.
PER_BRANCH = {
    "pccl": lambda f, f_t, p, tau: loss_iv(similarity(f, f_t, tau), p),
    "pccl_softmax_variant":
        lambda f, f_t, p, tau: loss_variant_softmax(similarity(f, f_t, tau), p),
    "mse": _mse_per_branch,
    "nce": _nce_per_branch,
}


@pytest.mark.parametrize("kind", sorted(LOSSES))
def test_two_branch_term_equals_two_per_branch_evaluations(kind):
    # (2, B, N, D) student features against (B, N, D) teacher features
    rng = np.random.default_rng(23)
    f_s = Tensor(rng.normal(size=(2, 3, 6, 8)), requires_grad=True)
    f_t = rng.normal(size=(3, 6, 8))
    p = pseudo_labels(np.stack([random_stochastic(rng, 6) for _ in range(3)]), 0.6)
    alpha, beta = 0.7, 1.3
    losses = LOSSES[kind](f_s, f_t, p, 0.04)
    loss_pccl(losses, alpha, beta).backward()
    per = [Tensor(f_s.data[b].copy(), requires_grad=True) for b in range(2)]
    want = [PER_BRANCH[kind](f, f_t, p, 0.04) for f in per]
    # the branches weighted apart
    ad.add(ad.mul(want[0], alpha), ad.mul(want[1], beta)).backward()
    assert losses.shape == (2,)
    assert losses.data.tobytes() == np.array([float(w.data) for w in want]).tobytes()
    assert f_s.grad.tobytes() == np.stack([f.grad for f in per]).tobytes()
