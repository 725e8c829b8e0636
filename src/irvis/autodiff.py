"""Dense f64 tensors with reverse-mode gradient accumulation.

Tensors record the op graph as they are built (parents, a backward
closure and the op's name per node); ``Tensor.backward`` replays the tape in
reverse topological order, accumulating into ``.grad`` with ``+=`` so shared
parameters sum contributions from every branch.  The hot chains of the
encoder are one op each: ``linear``, which also carries a LoRA adapter's
low-rank branch, and ``attention``.

Gradient buffers are owned.  A backward hands ``_accumulate`` an array that
nothing else holds: the first write to a tensor's ``.grad`` keeps that array,
and later writes add into it in place.  Most backwards build a new array
anyway; the ops whose gradient passes the incoming one through (``add``,
``reshape`` and ``transpose``) hand over a copy, so no two tensors on a tape
share a ``.grad`` buffer.

Ops do not scan their outputs for NaN/Inf.  Finiteness is checked where
values enter autodiff (``Tensor`` construction) and where they leave it:
callers pass results through ``check_finite``, which on a failure walks the
tape already in memory and names the first op whose output is non-finite.

``gelu`` needs ``erf``, which numpy lacks; ``erf`` here is a float64 kernel
built from numpy alone, in two ranges.  For |x| < 0.84375 it is fdlibm's
rational form erf(x) = x + x P(x^2) / Q(x^2), with P and Q of degree 4 and 5,
run by Horner with no gathers.  Every other element goes through a table:
at import it tabulates, at the nodes k/256 for |x| <= 6, the Taylor
coefficients c_0..c_5 of erf: c_0 = erf(x_k), and
c_j = (2/sqrt(pi)) exp(-x_k^2) (-1)^(j-1) H_(j-1)(x_k) / j! with H the
physicists' Hermite polynomials.  There it rounds |x| to its nearest node,
runs Horner in the exact offset, one ``take`` per coefficient, and restores
the sign with ``copysign``.  An element's range is its own, so its result
does not depend on the rest of the array, and both ranges stay within 2 ulp
of ``math.erf``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, NumericError, ShapeMismatchError

LN_EPS = 1e-6  # added to the variance in ``layernorm``

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

_ERF_STEP = 256  # nodes per unit; a power of two, so offsets are exact
_ERF_MAX = 6.0   # the last node: erf rounds to 1 beyond it
_ERF_LAST = int(_ERF_MAX) * _ERF_STEP  # its index


def _erf_table() -> tuple[np.ndarray, ...]:
    """c_j at every node, scaled by _ERF_STEP**-j so Horner runs in steps."""
    x = np.arange(_ERF_LAST + 1) / _ERF_STEP
    weight = 2.0 / math.sqrt(math.pi) * np.exp(-x * x)
    coeffs = [np.array([math.erf(v) for v in x])]
    h_prev, h = np.zeros_like(x), np.ones_like(x)  # H_(n-1), H_n, from n = 0
    for j in range(1, 6):
        n = j - 1
        coeffs.append(weight * (-1) ** n * h / (math.factorial(j) * _ERF_STEP ** j))
        h_prev, h = h, 2.0 * x * h - 2.0 * n * h_prev
    return tuple(coeffs)


_ERF_COEFFS = _erf_table()

# fdlibm's s_erf.c for |x| < _ERF_SMALL: P's pp0..pp4, and Q's 1, qq1..qq5
_ERF_SMALL = 0.84375
_ERF_P = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
          -2.84817495755985104766e-02, -5.77027029648944159157e-03,
          -2.37630166566501626084e-05)
_ERF_Q = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
          5.08130628187576562776e-03, 1.32494738004321644526e-04,
          -3.96022827877536812320e-06)


def erf(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The error function of ``scale * x``, elementwise, for a float64 array
    ``x`` and ``scale`` > 0.  Scaling here spares a caller the temporary
    ``scale * x``, and rounds exactly as it does."""
    x = np.asarray(x, dtype=np.float64)
    t = np.multiply(x.reshape(-1), scale)  # 1-d, so each step gets an array, not a scalar
    # one test for the common call: NaN fails both, and 0 lets an empty array pass
    if t.max(initial=0.0) < _ERF_SMALL and t.min(initial=0.0) > -_ERF_SMALL:
        return _erf_small(t).reshape(x.shape)
    # any other call: the table for every element, then the rational form over
    # those in its range; on an all-tail array, gathering the table's share
    # out first cost about twice the table itself
    out = _erf_nodes(t)
    small = np.abs(t) < _ERF_SMALL
    out[small] = _erf_small(t[small])
    return out.reshape(x.shape)


def _poly(z: np.ndarray, coeffs) -> np.ndarray:
    """coeffs[0] + z (coeffs[1] + z (...)), by Horner in one new array."""
    acc = z * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= z
    acc += coeffs[0]
    return acc


def _erf_small(t: np.ndarray) -> np.ndarray:
    """erf(t) = t + t P(t^2) / Q(t^2), for a 1-d ``t`` with every |t| < _ERF_SMALL."""
    z = t * t
    y = _poly(z, _ERF_P)
    y /= _poly(z, _ERF_Q)
    y *= t
    y += t
    return y


def _erf_nodes(t: np.ndarray) -> np.ndarray:
    """erf(t) from the node table, for a 1-d ``t`` of any values."""
    # u = |t| in steps; the exact offset from the nearest node is u - k, and a
    # power-of-two scale of c_j makes Horner in it round as Horner in |t| - t_k
    u = np.abs(t)
    np.minimum(u, _ERF_MAX, out=u)  # keeps NaN, which the offset carries on
    u *= _ERF_STEP
    node = u + 0.5
    np.fmin(node, _ERF_LAST + 0.5, out=node)  # drops NaN: never cast to an index
    np.floor(node, out=node)
    k = node.astype(np.intp)
    offset = np.subtract(u, node, out=u)
    c = node  # free now: each coefficient is gathered into it
    p = _ERF_COEFFS[5].take(k)
    for coeff in _ERF_COEFFS[4::-1]:
        p *= offset
        p += coeff.take(k, out=c, mode="clip")  # "raise" would buffer ``out``
    return np.copysign(p, t, out=p)


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


class Tensor:
    """A dense float64 array plus optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not _finite(self.data):
            raise NumericError("non-finite values in tensor construction")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op: str | None = None  # a leaf; ops name the tensors they make

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g``, an array nothing else holds, to ``.grad``."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse sweep from this (scalar) tensor through the recorded tape."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward requires a scalar, got shape {self.shape}"
            )
        self.grad = np.ones_like(self.data)
        for node in reversed(_topo(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo(root: Tensor) -> list[Tensor]:
    """The tensors reachable from ``root`` through the tape, parents first."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return topo


def _origin(node: Tensor) -> str:
    """What made ``node``, as far as the tape can tell."""
    if node._op is None:
        return "a leaf tensor"
    if not node._parents:  # made by an op whose inputs took no gradient
        return f"{node._op} or an op before it that recorded no tape"
    return node._op


def check_finite(t: Tensor, where: str) -> Tensor:
    """``t`` itself when every value is finite.  Otherwise raise
    ``NumericError`` naming what made the first tensor on ``t``'s tape,
    parents before children, whose value is non-finite."""
    if not _finite(t.data):
        first = next(n for n in _topo(t) if not _finite(n.data))
        raise NumericError(f"non-finite values in {where}, "
                           f"first produced by {_origin(first)}")
    return t


def check_grads_finite(loss: Tensor, tensors) -> None:
    """After ``loss.backward()``: raise ``NumericError`` if a gradient of
    ``tensors`` is non-finite, naming the first op in the reverse sweep that
    has an input with a non-finite gradient."""
    if all(t.grad is None or _finite(t.grad) for t in tensors):
        return
    for node in reversed(_topo(loss)):
        if any(p.grad is not None and not _finite(p.grad) for p in node._parents):
            raise NumericError(f"non-finite gradient, first seen in the reverse "
                               f"sweep at an input of {_origin(node)}")
    raise NumericError("non-finite gradient")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._backward = None
    out._op = op
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise and structural ops ------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        # each parent gets its own buffer: a copy where no axis was summed away
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                t._accumulate(g.copy() if gt is g else gt)

    return _make(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def backward(g):
        a._accumulate(g * c)

    return _make(data, (a,), backward, "scale")


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
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(data, (a, b), backward, "matmul")


# transpose and reshape: the unfused reference chains in the tests are built from them
def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes by ``axes``, a permutation of ``range(ndim)``; by default reverse them."""
    inverse = None if axes is None else np.argsort(axes)

    def backward(g):
        a._accumulate(np.transpose(g, inverse).copy())

    return _make(np.transpose(a.data, axes).copy(), (a,), backward, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accumulate(g.reshape(a.shape).copy())

    try:
        data = a.data.reshape(shape).copy()
    except ValueError:
        raise ShapeMismatchError(f"cannot reshape {a.shape} to {shape}") from None
    return _make(data, (a,), backward, "reshape")


def _basic_key(key) -> bool:
    """An int, a slice or a tuple of those: it selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, slice) or (isinstance(k, (int, np.integer))
                                        and not isinstance(k, bool)) for k in parts)


def take(a: Tensor, key) -> Tensor:
    data = np.array(a.data[key])
    basic = _basic_key(key)

    def backward(g):
        full = np.zeros_like(a.data)
        if basic:
            full[key] += g
        else:  # a fancy key may repeat an index: each use adds its gradient
            np.add.at(full, key, g)
        a._accumulate(full)

    return _make(data, (a,), backward, "take")


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(np.array(a.data.sum()), (a,), backward, "sum")


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g) / n))

    return _make(np.array(a.data.mean()), (a,), backward, "mean")


def gelu(a: Tensor) -> Tensor:
    cdf = erf(a.data, _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    data = a.data * cdf

    def backward(g):
        # g * (cdf + x * pdf(x)) in one buffer, each product in its usual order
        t = np.multiply(a.data, -0.5)
        t *= a.data
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= a.data
        t += cdf
        t *= g
        a._accumulate(t)

    return _make(data, (a,), backward, "gelu")


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` without ``np.mean``'s wrapper: the
    same sum, divided in place, so it rounds the same way."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def layernorm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    xhat = x.data - _row_mean(x.data)
    sq = xhat * xhat
    inv = _row_mean(sq)  # np.var's steps: mean, subtract, square, mean
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = np.multiply(xhat, weight.data, out=sq)
    data += bias.data
    d = x.data.shape[-1]

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv with gx = g * weight
            gx = g * weight.data
            t = gx * xhat
            m2 = _row_mean(t)
            gx -= _row_mean(gx)
            gx -= np.multiply(xhat, m2, out=t)
            gx *= inv
            x._accumulate(gx)

    return _make(data, (x, weight, bias), backward, "layernorm")


# -- fused encoder ops --------------------------------------------------


def linear(x: Tensor, w: Tensor | None, b: Tensor | None, lora=None) -> Tensor:
    """``x @ w + b + scale * (x * mask) @ A.T @ B.T`` for ``x`` (..., k),
    ``w`` (k, d), ``b`` (d,), ``A`` (r, k) and ``B`` (d, r).

    ``lora`` is ``(A, B, scale, mask)``, the low-rank adapter branch, or
    ``None`` for no branch; ``mask`` (x's shape) is the dropout mask, already
    divided by the keep probability, or ``None`` to keep every input.  Absent
    terms are ``None``: either ``w`` with an optional ``b``, or neither, and
    then ``lora`` alone.  The terms are summed in that order.
    """
    A, B, scale, mask = lora if lora is not None else (None, None, None, None)
    k = x.shape[-1] if x.data.ndim else None
    d = w.shape[-1] if w is not None and w.data.ndim == 2 else (
        B.shape[0] if lora is not None and B.data.ndim == 2 else None)
    if (d is None or x.data.ndim < 2
            or (w is not None and w.shape != (k, d))
            or (b is not None and (w is None or b.shape != (d,)))
            or (lora is not None and (A.data.ndim != 2 or A.shape[1] != k
                                      or B.shape != (d, A.shape[0])
                                      or (mask is not None and mask.shape != x.shape)))):
        ws, bs = (None if t is None else t.shape for t in (w, b))
        ab = "" if lora is None else f" + lora A {A.shape}, B {B.shape}"
        raise ShapeMismatchError(f"linear shape mismatch: {x.shape} x {ws} + {bs}{ab}")
    if w is not None:
        data = x.data @ w.data
        if b is not None:
            data += b.data
    if lora is not None:
        r = A.shape[0]
        xm = x.data if mask is None else x.data * mask
        h = xm @ A.data.T
        branch = (h @ B.data.T) * scale
        data = branch if w is None else np.add(data, branch, out=data)

    def backward(g):
        g2 = g.reshape(-1, d)
        if w is not None and w.requires_grad:
            w._accumulate(x.data.reshape(-1, k).T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))
        gx = g @ w.data.T if x.requires_grad and w is not None else None
        if lora is not None:
            if B.requires_grad:
                B._accumulate(scale * (g2.T @ h.reshape(-1, r)))
            gh = (g @ B.data) * scale
            if A.requires_grad:
                A._accumulate(gh.reshape(-1, r).T @ xm.reshape(-1, k))
            if x.requires_grad:
                gb = gh @ A.data
                if mask is not None:
                    gb *= mask
                if gx is None:
                    gx = gb
                else:
                    gx += gb
        if gx is not None:
            x._accumulate(gx)

    parents = tuple(t for t in (x, w, b, A, B) if t is not None)
    return _make(data, parents, backward, "linear")


def attention(qkv: Tensor, heads: int, dh: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax self-attention over packed ``[q | k | v]`` columns.

    ``qkv`` is (..., N, 3 * heads * dh), each third split into ``heads`` blocks
    of ``dh`` columns.  Returns the heads' outputs merged back to
    (..., N, heads * dh), and the row-stochastic attention maps
    (..., heads, N, N) as a plain array, off the tape.
    """
    lead, b = qkv.shape[:-2], qkv.data.ndim - 2
    if b < 0 or qkv.shape[-1] != 3 * heads * dh:
        raise ShapeMismatchError(
            f"attention needs 3 * {heads} heads * {dh} packed columns, got {qkv.shape}"
        )
    n = qkv.shape[-2]
    perm = (b + 1, *range(b), b + 2, b, b + 3)
    # views of (*lead, N, 3, heads, dh) as (3, *lead, heads, N, dh): q, k and v
    # of every head; matmul writes the per-head results through such views
    q, k, v = np.transpose(qkv.data.reshape(lead + (n, 3, heads, dh)), perm)
    c = 1.0 / np.sqrt(dh)
    # the row softmax, in place in the scores
    p = q @ np.swapaxes(k, -1, -2)
    p *= c
    # the row max, exact, as a max down the columns of the scores' transpose:
    # numpy reduces that faster than along rows only n long
    p -= np.maximum.reduce(np.ascontiguousarray(p.reshape(-1, n).T),
                           axis=0).reshape(p.shape[:-1] + (1,))
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    data = np.empty(lead + (n, heads * dh))
    np.matmul(p, v, out=np.swapaxes(data.reshape(lead + (n, heads, dh)), -2, -3))

    def backward(g):
        go = np.swapaxes(g.reshape(lead + (n, heads, dh)), -2, -3)
        # gs = p * (gp - sum(gp * p)) * c, in place in gp
        gs = go @ np.swapaxes(v, -1, -2)
        gs -= np.add.reduce(gs * p, axis=-1, keepdims=True)
        gs *= p
        gs *= c
        grad = np.empty(qkv.shape)
        gq, gk, gv = np.transpose(grad.reshape(lead + (n, 3, heads, dh)), perm)
        np.matmul(gs, k, out=gq)
        np.matmul(np.swapaxes(gs, -1, -2), q, out=gk)
        np.matmul(np.swapaxes(p, -1, -2), go, out=gv)
        qkv._accumulate(grad)

    return _make(data, (qkv,), backward, "attention"), p


# -- row-structured ops used by the contrastive machinery --------------


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between rows of ``a`` and rows of ``b``;
    leading axes are a batch: ``(..., N, D)`` and ``(..., M, D)`` give ``(..., N, M)``."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-1]):
        raise ShapeMismatchError(
            f"cosine_rows shape mismatch: {a.shape} vs {b.shape}"
        )
    na = np.linalg.norm(a.data, axis=-1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=-1, keepdims=True)
    for name, norms in (("a", na), ("b", nb)):
        zero = np.argwhere(norms[..., 0] == 0.0)
        if zero.size:
            *sample, row = (int(i) for i in zero[0])
            at = f" of batch entry {tuple(sample)}" if sample else ""
            raise DegenerateInputError(
                f"cosine_rows: zero-norm row {row}{at} in argument {name}"
            )
    an = a.data / na
    bn = b.data / nb
    out = an @ np.swapaxes(bn, -1, -2)

    def backward(g):
        if a.requires_grad:
            a._accumulate((g @ bn - (g * out).sum(axis=-1, keepdims=True) * an) / na)
        if b.requires_grad:
            col = np.swapaxes((g * out).sum(axis=-2, keepdims=True), -1, -2)
            b._accumulate((np.swapaxes(g, -1, -2) @ an - col * bn) / nb)

    return _make(out, (a, b), backward, "cosine_rows")


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy in the fused, overflow-safe logits form."""
    z, t = logits.data, targets.data
    if z.shape != t.shape:
        raise ShapeMismatchError(
            f"bce_with_logits shape mismatch: {z.shape} vs {t.shape}"
        )
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_with_logits targets must be binary")
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    data = np.array(per.mean())
    n = z.size

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        logits._accumulate(float(g) * (sig - t) / n)

    return _make(data, (logits,), backward, "bce_with_logits")


def diag_cross_entropy(x: Tensor) -> Tensor:
    """Row-wise softmax cross-entropy with target class = row index, mean over
    rows; leading axes are a batch of square matrices, averaged over too."""
    if x.data.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ShapeMismatchError(f"diag_cross_entropy needs a square matrix, got {x.shape}")
    n = x.shape[-1]
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    data = np.array((lse - np.diagonal(z, axis1=-2, axis2=-1)).mean())
    rows = lse.size

    def backward(g):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        x._accumulate(float(g) * (p - np.eye(n)) / rows)

    return _make(data, (x,), backward, "diag_cross_entropy")


def masked_softmax_nll(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per row: negative log of the softmax mass on masked-in positions, mean
    over rows; leading axes are a batch, averaged over too."""
    if x.data.ndim < 2 or x.data.shape != mask.shape:
        raise ShapeMismatchError(
            f"masked_softmax_nll shape mismatch: {x.shape} vs {mask.shape}"
        )
    if not np.all(mask.sum(axis=-1) >= 1):
        raise DegenerateInputError("masked_softmax_nll: a row has no selected position")
    m = mask.astype(np.float64)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    q = (p * m).sum(axis=-1, keepdims=True)
    data = np.array((-np.log(q)).mean())
    rows = q.size

    def backward(g):
        x._accumulate(float(g) * p * (q - m) / q / rows)

    return _make(data, (x,), backward, "masked_softmax_nll")


# -- verification oracle ----------------------------------------------


def grad_check(f, x: Tensor, h: float = 1e-5, sample: int | None = None,
               seed: int = 0) -> float:
    """Compare the tape gradient of scalar ``f(x)`` against central differences.

    Returns max over (optionally sampled) coordinates of
    |analytic - numeric| / max(1, |numeric|).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    y = f(probe)
    if not np.isfinite(y.data):
        raise NumericError("grad_check: f(x) is not finite")
    y.backward()
    analytic = probe.grad.reshape(-1).copy()

    flat = x.data.reshape(-1).copy()
    idx = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        idx = np.random.default_rng(seed).choice(flat.size, size=sample, replace=False)

    def eval_at(values: np.ndarray) -> float:
        t = Tensor(values.reshape(x.shape))
        return float(f(t).data)

    worst = 0.0
    for i in idx:
        plus = flat.copy()
        plus[i] += h
        minus = flat.copy()
        minus[i] -= h
        numeric = (eval_at(plus) - eval_at(minus)) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
