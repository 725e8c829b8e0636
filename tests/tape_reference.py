"""Per-op tape nodes that no program path runs, kept as references.

``autodiff.block`` runs a transformer block as one node.  The tests check it
byte for byte against the chain of per-op nodes it replaces; ``attention``
and ``gelu`` are the two ops of that chain that nothing in ``irvis`` calls.
Each wraps the same array kernels ``block`` runs, as ``autodiff.layernorm``
and ``autodiff.linear`` wrap theirs.
"""

import numpy as np

import irvis.autodiff as ad
from irvis.autodiff import Tensor


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
