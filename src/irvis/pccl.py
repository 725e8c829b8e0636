"""Patch-wise cross-modality contrastive machinery.

Similarity logits between student and frozen-teacher patch features,
binary pseudo-labels derived from the teacher's attention map, and the
loss table ``LOSSES``: one term per loss kind, the one loss API, which
scores both branches in one pass.  Everything from the frozen teacher, its
features, attention maps and labels, is a plain array: none of it takes a
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateInputError, ShapeMismatchError

DEFAULT_TAU = 0.04
DEFAULT_GAMMA = 0.6

ROW_SUM_TOL = 1e-6


@dataclass
class PseudoLabelMatrix:
    values: np.ndarray  # binary (N, N) or (B, N, N)
    per_row_m: np.ndarray  # minimal prefix length per row: (N,) or (B, N)


def similarity(f_a: Tensor, f_b: np.ndarray, tau: float) -> Tensor:
    """Logits cosine / tau, (N, N) or (B, N, N), of the rows of ``f_a`` against
    the fixed ``f_b``; student features with a leading branch axis, (2, B, N, D),
    give (2, B, N, N) against the same teacher features (B, N, D)."""
    if not 0.0 < tau < math.inf:  # written so that NaN fails it too
        raise ValueError(f"temperature must be positive and finite, got {tau}")
    return ad.check_finite(ad.cosine_rows(f_a, f_b) * (1.0 / tau), "similarity")


def pseudo_labels(attention: np.ndarray, gamma: float) -> PseudoLabelMatrix:
    """Binary labels per row: diagonal plus the minimal descending-attention
    prefix whose mass strictly exceeds gamma.  Leading axes are a batch.

    Sorting is stable, lower original index first on ties.
    """
    a = np.asarray(attention)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError(f"attention must be square, got {a.shape}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    # written so that NaN fails the checks too
    ok = np.all(a >= 0.0, axis=-1) & (np.abs(a.sum(axis=-1) - 1.0) <= ROW_SUM_TOL)
    if not ok.all():
        bad = np.unravel_index(np.argmin(ok), ok.shape)
        where = ", ".join(str(int(i)) for i in bad)
        raise DegenerateInputError(
            f"attention rows must be stochastic; row {where} sums to {a[bad].sum():.9f}"
        )
    n = a.shape[-1]
    # stable descending sort = stable ascending sort of negated values
    order = np.argsort(-a, axis=-1, kind="stable")
    csum = np.cumsum(np.take_along_axis(a, order, axis=-1), axis=-1)
    # rows are nonnegative, so csum > gamma is False then True along each row
    per_row_m = np.minimum((csum <= gamma).sum(axis=-1) + 1, n)
    labels = np.zeros(a.shape)
    np.put_along_axis(labels, order, np.arange(n) < per_row_m[..., None], axis=-1)
    labels[..., np.arange(n), np.arange(n)] = 1.0
    return PseudoLabelMatrix(values=labels, per_row_m=per_row_m)


def loss_iv(s: Tensor, p: PseudoLabelMatrix) -> Tensor:
    """Cross-modal alignment: BCE of the similarity logits against pseudo-labels;
    logits with a leading branch axis give one loss per branch."""
    return ad.bce_with_logits(s, p.values)


# Visible-knowledge distillation: the same term, applied to the visible branch.
loss_vv = loss_iv


def loss_pccl(l_iv: Tensor, l_vv: Tensor, alpha: float = 1.0,
              beta: float = 1.0) -> Tensor:
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):  # NaN fails too
        raise ValueError(f"loss coefficients must be nonnegative and finite, "
                         f"got {alpha}, {beta}")
    return l_iv * alpha + l_vv * beta


def loss_variant_softmax(s: Tensor, p: PseudoLabelMatrix) -> Tensor:
    """Per row, -log of the softmax mass on label-positive positions; logits
    with a leading branch axis give one loss per branch."""
    return ad.masked_softmax_nll(s, p.values)


# -- the loss table: (f_student, f_teacher, labels, tau) -> [L_IV, L_VV] --
# ``f_student`` holds both branches on its first axis, (2, B, N, D): the
# infrared images' features, then the visible ones'.  The teacher features
# (B, N, D) and the labels are shared by both.  Each term runs one similarity
# pass and one reduction pass for the two, and returns their losses as one
# (2,) Tensor, which ``loss_pccl`` weights.  Helpers are looked up by
# module-global name at call time, so wrapping one reaches each kind that
# calls it: ``loss_iv`` and ``loss_variant_softmax`` time only the two pccl
# kinds, ``similarity`` also ``nce``, and ``mse`` calls none of them.


def _term_mse(f_s: Tensor, f_t: np.ndarray, labels=None, tau=None) -> Tensor:
    d = f_s - f_t
    return ad.tmean(ad.mul(d, d), split=True)


def _term_nce(f_s: Tensor, f_t: np.ndarray, labels=None, tau=None) -> Tensor:
    """InfoNCE: the softmax loss whose one positive is the matching patch."""
    s = similarity(f_s, f_t, tau)
    return ad.masked_softmax_nll(s, np.broadcast_to(np.eye(*s.shape[-2:]), s.shape[1:]))


LOSSES = {
    "pccl": lambda f_s, f_t, p, tau: loss_iv(similarity(f_s, f_t, tau), p),
    "pccl_softmax_variant":
        lambda f_s, f_t, p, tau: loss_variant_softmax(similarity(f_s, f_t, tau), p),
    "mse": _term_mse,
    "nce": _term_nce,
}
