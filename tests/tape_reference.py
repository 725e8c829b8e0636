"""Per-op tape nodes that no program path runs, kept as references.

``autodiff.block`` runs a transformer block as one node.  The tests check it
byte for byte against the chain of per-op nodes it replaces; ``attention``
and ``gelu`` are the two ops of that chain that nothing in ``irvis`` calls.
Each wraps the same array kernels ``block`` runs, as ``autodiff.layernorm``
and ``autodiff.linear`` wrap theirs.  ``matmul`` is the plain product the
tests build reference chains from; ``irvis merge`` checks its merged weight
with ``x @ w`` on arrays.
"""

import numpy as np

import irvis.autodiff as ad
from irvis.autodiff import Tensor
from irvis.errors import ShapeMismatchError


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes broadcast as in ``np.matmul``."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(
            f"matmul shape mismatch: {a.shape} x {b.shape}"
        )
    try:
        data = a.data @ b.data
    except ValueError:  # leading axes that do not broadcast
        raise ShapeMismatchError(
            f"matmul shape mismatch: {a.shape} x {b.shape}"
        ) from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return ad._make(data, (a, b), backward, "matmul")


def gelu(a: Tensor) -> Tensor:
    data, cdf = ad._gelu_fwd(a.data)

    def backward(g):
        a._accumulate(ad._gelu_bwd(g, a.data, cdf))

    return ad._make(data, (a,), backward, "gelu")


def attention(qkv: Tensor, heads: int, dh: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax self-attention over packed ``[q | k | v]`` columns.

    ``qkv`` is (..., N, 3 * heads * dh), each third split into ``heads`` blocks
    of ``dh`` columns.  Returns the heads' outputs merged back to
    (..., N, heads * dh), and the row-stochastic attention maps
    (..., heads, N, N) as a plain array, off the tape.
    """
    data, p = ad._attention_fwd(qkv.data, heads, dh)

    def backward(g):
        qkv._accumulate(ad._attention_bwd(g, qkv.data, p, heads, dh))

    return ad._make(data, (qkv,), backward, "attention"), p
