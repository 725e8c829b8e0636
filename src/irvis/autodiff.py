"""Dense f64 tensors with reverse-mode gradient accumulation.

Tensors record the op graph as they are built (parents, a backward
closure and the op's name per node); ``Tensor.backward`` replays the tape in
reverse topological order, accumulating into ``.grad`` with ``+=`` so shared
parameters sum contributions from every branch.  A transformer block is one
node, ``block``, built from the same forward and backward array kernels as
the per-op nodes ``layernorm``, ``linear`` (which also carries a LoRA
adapter's low-rank branch), ``attention`` and ``gelu``, so the two give the
same bytes.  A node records as parents only the operands that take a
gradient, and ``_make`` alone picks them; an operand that never takes one, a
loss's targets or ``cosine_rows``' ``b``, is a plain array.  The reducing ops
can keep the first axis, one loss per entry: ``tmean`` when asked, the losses
when their input has one axis more than their targets or mask.

Gradient buffers are owned.  A backward hands ``_accumulate`` an array that
nothing else holds: the first write to a tensor's ``.grad`` keeps that array,
and later writes add into it in place.  Most backwards build a new array
anyway; the ops whose gradient passes the incoming one through (``add``,
``reshape`` and ``transpose``) hand over a copy, so no two tensors on a tape
share a ``.grad`` buffer.

A node saves only the arrays its backward reads.  A layer's input is read only by
its weight's gradient, so ``linear`` and ``block`` keep it only when that
weight takes one, as fixed when the node is made, and ``linear`` keeps its
input tensor only when that takes one.  In a LoRA step, whose base weights
are frozen, a block keeps none of its four layers' inputs; each adapter
branch keeps its own masked input.  A full fine-tune keeps them.

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
    """A float64 value that can go on the tape, with its gradient buffer.  A
    value that never takes a gradient (an image, a mask, a target) is an array."""

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

    def __mul__(self, c: float):
        return scale(self, float(c))  # elementwise products are ``mul``

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


def _make(data: np.ndarray, operands: tuple, backward, op: str) -> Tensor:
    """The tensor ``op`` made.  Its parents are those of its ``operands`` that
    take a gradient (None marks an absent one); with none, it is off the tape."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._parents = tuple(t for t in operands if t is not None and t.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out.requires_grad else None
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


def take(a: Tensor, key) -> Tensor:
    data = np.array(a.data[key])

    def backward(g):
        # a fancy key may repeat an index: each use adds its gradient
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        a._accumulate(full)

    return _make(data, (a,), backward, "take")


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(np.array(a.data.sum()), (a,), backward, "sum")


# -- array kernels -------------------------------------------------------
# One forward and one backward per op, on plain arrays.  A forward returns
# its output and what its backward reads; a backward returns the gradients
# that ``need`` flags, and None for the rest.  The tape ops below wrap them
# one by one, and ``block`` chains them into one node.


def _gelu_fwd(x: np.ndarray):
    cdf = erf(x, _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_bwd(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    # g * (cdf + x * pdf(x)) in one buffer, each product in its usual order
    t = np.multiply(x, -0.5)
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT2PI
    t *= x
    t += cdf
    t *= g
    return t


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` without ``np.mean``'s wrapper: the
    same sum, divided in place, so it rounds the same way."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def _layernorm_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    xhat = x - _row_mean(x)
    sq = xhat * xhat
    inv = _row_mean(sq)  # np.var's steps: mean, subtract, square, mean
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = np.multiply(xhat, w, out=sq)
    out += b
    return out, xhat, inv


def _layernorm_bwd(g, xhat, inv, w, need):
    """(gx, gw, gb) for ``need``, the flags of (x, w, b)."""
    d = xhat.shape[-1]
    gx = gw = gb = None
    if need[2]:
        gb = g.reshape(-1, d).sum(axis=0)
    if need[1]:
        gw = (g * xhat).reshape(-1, d).sum(axis=0)
    if need[0]:
        # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv with gx = g * weight
        gx = g * w
        t = gx * xhat
        m2 = _row_mean(t)
        gx -= _row_mean(gx)
        gx -= np.multiply(xhat, m2, out=t)
        gx *= inv
    return gx, gw, gb


def _linear_fwd(x, w, b, lora):
    """``x @ w + b + scale * (x * mask) @ A.T @ B.T``, the terms summed in
    that order; ``lora`` is (A, B, scale, mask) or None.  Also returns the
    branch's masked input and its rank-wide activations."""
    out = x @ w
    out += b
    if lora is None:
        return out, None, None
    A, B, scale, mask = lora
    xm = x if mask is None else x * mask
    h = xm @ A.T
    branch = h @ np.ascontiguousarray(B.T)
    branch *= scale
    out += branch
    return out, xm, h


def _linear_bwd(g, x, w, lora, xm, h, need):
    """(gx, gw, gb, gA, gB) for ``need``, the flags of (x, w, b, A, B);
    ``x`` is read only for ``gw``."""
    k, d = w.shape
    g2 = g.reshape(-1, d)
    gx = gw = gb = gA = gB = None
    if need[1]:
        gw = x.reshape(-1, k).T @ g2
    if need[2]:
        gb = g2.sum(axis=0)
    if lora is not None:
        A, B, scale, mask = lora
        r = A.shape[0]
        if need[4]:
            gB = g2.T @ h.reshape(-1, r)
            gB *= scale
        gh = g @ B
        gh *= scale
        if need[3]:
            gA = gh.reshape(-1, r).T @ xm.reshape(-1, k)
    if need[0]:
        gx = g @ w.T
        if lora is not None:
            gbranch = gh @ A
            if mask is not None:
                gbranch *= mask
            gx += gbranch
    return gx, gw, gb, gA, gB


def _qkv_views(qkv: np.ndarray, heads: int, dh: int):
    """q, k and v of every head, (*lead, heads, N, dh) views of the packed
    (*lead, N, 3 * heads * dh) columns."""
    nb = qkv.ndim - 2
    perm = (nb + 1, *range(nb), nb + 2, nb, nb + 3)
    return np.transpose(qkv.reshape(qkv.shape[:-1] + (3, heads, dh)), perm)


def _attention_fwd(qkv: np.ndarray, heads: int, dh: int):
    """The heads' outputs merged to (*lead, N, heads * dh), and the maps."""
    if qkv.ndim < 2 or qkv.shape[-1] != 3 * heads * dh:
        raise ShapeMismatchError(
            f"attention needs 3 * {heads} heads * {dh} packed columns, got {qkv.shape}"
        )
    lead, n = qkv.shape[:-2], qkv.shape[-2]
    q, k, v = _qkv_views(qkv, heads, dh)
    # the row softmax, in place in the scores
    p = q @ np.swapaxes(k, -1, -2)
    p *= 1.0 / np.sqrt(dh)
    # the row max, exact, as a max down the columns of the scores' transpose:
    # numpy reduces that faster than along rows only n long
    p -= np.maximum.reduce(np.ascontiguousarray(p.reshape(-1, n).T),
                           axis=0).reshape(p.shape[:-1] + (1,))
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    out = np.empty(lead + (n, heads * dh))
    # matmul writes each head's result through a view of the merged columns
    np.matmul(p, v, out=np.swapaxes(out.reshape(lead + (n, heads, dh)), -2, -3))
    return out, p


def _attention_bwd(g, qkv, p, heads: int, dh: int) -> np.ndarray:
    q, k, v = _qkv_views(qkv, heads, dh)
    go = np.swapaxes(g.reshape(g.shape[:-1] + (heads, dh)), -2, -3)
    # gs = p * (gp - sum(gp * p)) / sqrt(dh), in place in gp
    gs = go @ np.swapaxes(v, -1, -2)
    gs -= np.add.reduce(gs * p, axis=-1, keepdims=True)
    gs *= p
    gs *= 1.0 / np.sqrt(dh)
    grad = np.empty(qkv.shape)
    gq, gk, gv = _qkv_views(grad, heads, dh)
    np.matmul(gs, k, out=gq)
    np.matmul(np.swapaxes(gs, -1, -2), q, out=gk)
    np.matmul(np.swapaxes(p, -1, -2), go, out=gv)
    return grad


# -- fused encoder ops --------------------------------------------------


def _needs(tensors) -> tuple[bool, ...]:
    return tuple(t is not None and t.requires_grad for t in tensors)


def _hand(tensors, grads) -> None:
    """Accumulate each gradient a backward computed into its tensor."""
    for t, g in zip(tensors, grads):
        if g is not None:
            t._accumulate(g)


def _layer_tensors(w, b, lora) -> tuple:
    """(w, b, A, B) of a ``linear`` layer; None for an absent one."""
    return (w, b) + ((None, None) if lora is None else tuple(lora[:2]))


def _run_linear(x: np.ndarray, layer):
    """A layer ``(w, b, lora)``'s forward on ``x``: its output, and the cache
    ``_back_linear`` reads.  Which of the layer's tensors take a gradient is
    fixed here, and the cache holds ``x`` only if ``w`` does, the one
    gradient that reads it."""
    w, b, lora = layer
    A, B, _, mask = lora if lora is not None else (None, None, None, None)
    k, d = w.shape if w.data.ndim == 2 else (None, None)
    if (d is None or x.ndim < 2 or x.shape[-1] != k
            or b.shape != (d,)
            or (lora is not None and (A.data.ndim != 2 or A.shape[1] != k
                                      or B.shape != (d, A.shape[0])
                                      or (mask is not None and mask.shape != x.shape)))):
        ab = "" if lora is None else f" + lora A {A.shape}, B {B.shape}"
        raise ShapeMismatchError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}{ab}")
    arrays = None if lora is None else (A.data, B.data, *lora[2:])
    out, xm, h = _linear_fwd(x, w.data, b.data, arrays)
    need = _needs(_layer_tensors(*layer))
    return out, (x if need[0] else None, arrays, xm, h, need)


def _back_linear(g, layer, cache, need_x: bool):
    """Hand a layer's weights their gradients; return its input's, if needed."""
    x, arrays, xm, h, need = cache
    gx, *grads = _linear_bwd(g, x, layer[0].data, arrays, xm, h, (need_x,) + need)
    _hand(_layer_tensors(*layer), grads)
    return gx


def gelu(a: Tensor) -> Tensor:
    data, cdf = _gelu_fwd(a.data)

    def backward(g):
        a._accumulate(_gelu_bwd(g, a.data, cdf))

    return _make(data, (a,), backward, "gelu")


def layernorm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    data, xhat, inv = _layernorm_fwd(x.data, weight.data, bias.data)
    tensors = (x, weight, bias)

    def backward(g):
        _hand(tensors, _layernorm_bwd(g, xhat, inv, weight.data, _needs(tensors)))

    return _make(data, tensors, backward, "layernorm")


def linear(x: Tensor, w: Tensor, b: Tensor, lora=None) -> Tensor:
    """``x @ w + b + scale * (x * mask) @ A.T @ B.T`` for ``x`` (..., k),
    ``w`` (k, d), ``b`` (d,), ``A`` (r, k) and ``B`` (d, r).

    ``lora`` is ``(A, B, scale, mask)``, the low-rank adapter branch, or
    ``None`` for no branch; ``mask`` (x's shape) is the dropout mask, already
    divided by the keep probability, or ``None`` to keep every input.  The
    terms are summed in that order.
    """
    layer = (w, b, lora)
    data, cache = _run_linear(x.data, layer)
    if not x.requires_grad:
        x = None  # no gradient to hand it, so the backward does not keep it

    def backward(g):
        _hand((x,), (_back_linear(g, layer, cache, x is not None),))

    return _make(data, (x,) + _layer_tensors(*layer), backward, "linear")


def attention(qkv: Tensor, heads: int, dh: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax self-attention over packed ``[q | k | v]`` columns.

    ``qkv`` is (..., N, 3 * heads * dh), each third split into ``heads`` blocks
    of ``dh`` columns.  Returns the heads' outputs merged back to
    (..., N, heads * dh), and the row-stochastic attention maps
    (..., heads, N, N) as a plain array, off the tape.
    """
    data, p = _attention_fwd(qkv.data, heads, dh)

    def backward(g):
        qkv._accumulate(_attention_bwd(g, qkv.data, p, heads, dh))

    return _make(data, (qkv,), backward, "attention"), p


def block(x: Tensor, norm1, qkv, proj, norm2, fc1, fc2, heads: int,
          dh: int) -> tuple[Tensor, np.ndarray]:
    """One pre-norm transformer block as one tape node, for ``x`` (..., N, D):
    ``x1 = x + proj(attention(qkv(layernorm(x))))``, then
    ``x1 + fc2(gelu(fc1(layernorm(x1))))``.

    ``norm1`` and ``norm2`` are a LayerNorm's (weight, bias); ``qkv``,
    ``proj``, ``fc1`` and ``fc2`` are a layer's (weight, bias, lora) as
    ``linear`` takes them, dropout masks included.  Attention runs ``heads``
    heads of width ``dh``, as ``attention`` does.  Returns the output and the
    per-head attention maps (..., heads, N, N), off the tape.  It runs the
    kernels of the tape ops it replaces, and sums each gradient in their
    order, so its outputs and gradients are theirs, byte for byte.  Every
    weight, bias, LayerNorm parameter and adapter that takes a gradient gets one.
    """
    h1, *ln1 = _layernorm_fwd(x.data, norm1[0].data, norm1[1].data)
    q, c_qkv = _run_linear(h1, qkv)
    merged, p = _attention_fwd(q, heads, dh)
    # each residual sum goes into its branch's own new array (a + b is b + a)
    x1, c_proj = _run_linear(merged, proj)
    x1 += x.data
    h2, *ln2 = _layernorm_fwd(x1, norm2[0].data, norm2[1].data)
    f1, c_fc1 = _run_linear(h2, fc1)
    g1, cdf = _gelu_fwd(f1)
    data, c_fc2 = _run_linear(g1, fc2)
    data += x1

    def backward(g):
        # the chain's reverse sweep: each residual's input gradient is the
        # incoming one plus its LayerNorm's, as two accumulations added them
        gg1 = _back_linear(g, fc2, c_fc2, True)
        gh2 = _back_linear(_gelu_bwd(gg1, f1, cdf), fc1, c_fc1, True)
        gx1, *grads = _layernorm_bwd(gh2, *ln2, norm2[0].data, (True,) + _needs(norm2))
        _hand(norm2, grads)
        gx1 += g
        gq = _attention_bwd(_back_linear(gx1, proj, c_proj, True), q, p, heads, dh)
        gh1 = _back_linear(gq, qkv, c_qkv, True)
        gx, *grads = _layernorm_bwd(gh1, *ln1, norm1[0].data, _needs((x, *norm1)))
        _hand(norm1, grads)
        if gx is not None:
            gx += gx1
            x._accumulate(gx)

    weights = (*norm1, *norm2) + sum((_layer_tensors(*layer)
                                      for layer in (qkv, proj, fc1, fc2)), ())
    return _make(data, (x,) + weights, backward, "block"), p


# -- row-structured ops used by the contrastive machinery --------------


def cosine_rows(a: Tensor, b: np.ndarray) -> Tensor:
    """All-pairs cosine similarity between rows of ``a`` and rows of the fixed
    array ``b``; leading axes are a batch: ``(..., N, D)`` and ``(..., M, D)``
    give ``(..., N, M)``.  ``a`` may carry one more leading axis than a batched
    ``b``: each of its entries is then compared with the same ``b``."""
    if (a.data.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-1]
            or (a.shape[:-2] != b.shape[:-2]
                and (b.ndim < 3 or a.shape[1:-2] != b.shape[:-2]))):
        raise ShapeMismatchError(
            f"cosine_rows shape mismatch: {a.shape} vs {b.shape}"
        )
    na = np.linalg.norm(a.data, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    if not (na.all() and nb.all()):  # the search runs only when a norm is zero
        for name, norms in (("a", na), ("b", nb)):
            zero = np.argwhere(norms[..., 0] == 0.0)
            if zero.size:
                *sample, row = (int(i) for i in zero[0])
                at = f" of batch entry {tuple(sample)}" if sample else ""
                raise DegenerateInputError(
                    f"cosine_rows: zero-norm row {row}{at} in argument {name}"
                )
    an = a.data / na
    bn = b / nb
    out = an @ np.swapaxes(bn, -1, -2)

    def backward(g):
        a._accumulate((g @ bn - (g * out).sum(axis=-1, keepdims=True) * an) / na)

    return _make(out, (a,), backward, "cosine_rows")


# The reducing ops below average a whole array to a scalar, or split it into one
# mean per entry of its first axis: ``tmean`` when asked, the losses when their
# input has one axis more than the fixed targets or mask, which each entry shares.
# Each entry's mean and gradient are what the unsplit op gives an array of one
# entry, so splitting changes no byte of any entry's loss or gradient.


def _means(per: np.ndarray, split: bool) -> np.ndarray:
    return np.array([entry.mean() for entry in per]) if split else np.array(per.mean())


def _mean_grad(g: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """``g * d / n``, in place in ``d``: the gradient of the mean of ``n``
    terms whose derivatives are ``d``; entry ``i`` of a split takes ``g[i]``."""
    d *= g.reshape(g.shape + (1,) * (d.ndim - g.ndim))
    d /= n
    return d


def _entry_shape(x: np.ndarray, split: bool) -> tuple[int, ...]:
    return x.shape[1:] if split else x.shape


def _shares(x: np.ndarray, fixed: np.ndarray, op: str) -> bool:
    """Whether ``x`` splits over ``fixed``, having one more leading axis;
    ``ShapeMismatchError`` unless its entries, or ``x`` itself, have ``fixed``'s shape."""
    split = x.ndim == fixed.ndim + 1
    if _entry_shape(x, split) != fixed.shape:
        raise ShapeMismatchError(f"{op} shape mismatch: {x.shape} vs {fixed.shape}")
    return split


def tmean(a: Tensor, split: bool = False) -> Tensor:
    shape = _entry_shape(a.data, split)
    n = math.prod(shape)

    def backward(g):
        grad = np.empty_like(a.data)
        grad[...] = (g / n).reshape(g.shape + (1,) * len(shape))
        a._accumulate(grad)

    return _make(_means(a.data, split), (a,), backward, "mean")


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy in the fused, overflow-safe logits form,
    against fixed 0/1 ``targets``, split when ``logits`` has one axis more."""
    z = logits.data
    split = _shares(z, targets, "bce_with_logits")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("bce_with_logits targets must be binary")
    per = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    n = targets.size

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        logits._accumulate(_mean_grad(g, sig - targets, n))

    return _make(_means(per, split), (logits,), backward, "bce_with_logits")


def masked_softmax_nll(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax cross-entropy on the positives where ``mask`` is nonzero: per row
    lse(z) - lse(z over the mask), z = x - rowmax, mean over rows; leading axes
    are a batch, averaged over too, or split when ``x`` has one axis more than
    ``mask``.  In log space, positives far below the row's maximum give a finite
    loss.  An identity mask is InfoNCE."""
    split = _shares(x.data, mask, "masked_softmax_nll")
    if mask.ndim < 2:
        raise ShapeMismatchError(f"masked_softmax_nll needs rows, got mask {mask.shape}")
    pos = mask != 0
    if not pos.any(axis=-1).all():
        raise DegenerateInputError("masked_softmax_nll: a row has no selected position")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    zp = np.where(pos, z, -np.inf)
    zm = zp.max(axis=-1, keepdims=True)
    e, ep = np.exp(z), np.exp(zp - zm)
    s, sp = e.sum(axis=-1, keepdims=True), ep.sum(axis=-1, keepdims=True)
    rows = math.prod(mask.shape[:-1])

    def backward(g):
        # softmax minus the softmax over the positives
        p = e / s
        p -= ep / sp
        x._accumulate(_mean_grad(g, p, rows))

    return _make(_means(np.log(s) - zm - np.log(sp), split), (x,), backward,
                 "masked_softmax_nll")


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
