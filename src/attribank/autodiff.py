"""Tape-based reverse-mode differentiation over dense float64 tensors.

Primitive applications are appended to a module-global tape during the
forward pass; ``backward`` replays the tape in reverse order and accumulates
gradients into the ``grad`` buffers of every tensor that requires them.
Everything is double precision: the package's acceptance rests on tight
gradient checks, not throughput.

Supported primitives: matmul, add, mul, scale, concat, transpose, l2norm,
cosine_sim, softmax_logits, neg_log_prob, abs, sum, mean. No broadcasting
beyond scalar-tensor; shapes are checked explicitly per primitive.

The tape is module-global and single-threaded: one forward pass owns it
until the next ``reset_tape``. Tensors with requires_grad=False never
record, so evaluation over constants leaves the tape untouched.
"""

from __future__ import annotations

import numpy as np

# Guard added under the square root of every norm so cosine gradients stay
# finite for near-zero vectors.
NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operand shapes are invalid for a primitive."""


class NumericError(FloatingPointError):
    """Raised when a computation produces non-finite values."""


class Tensor:
    """Dense float64 array with an optional same-shape gradient buffer."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        v = np.asarray(values, dtype=np.float64)
        # ascontiguousarray would promote scalars to rank 1; keep 0-d intact
        if v.ndim and not v.flags.c_contiguous:
            v = np.ascontiguousarray(v)
        self.values = v
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


class TapeNode:
    __slots__ = ("op", "inputs", "output", "grad_fn")

    def __init__(self, op, inputs, output, grad_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class ComputationTape:
    """Append-only record of primitive applications, in execution order.

    Because every node is appended after its parents, the list is already
    topologically sorted; backward visits each node exactly once in reverse.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)


_tape = ComputationTape()


def active_tape() -> ComputationTape:
    return _tape


def reset_tape() -> None:
    global _tape
    _tape = ComputationTape()


def _record(op: str, inputs: tuple, output: Tensor, grad_fn) -> Tensor:
    if any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _tape.nodes.append(TapeNode(op, inputs, output, grad_fn))
    return output


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    # Same shape, or one side a scalar (shape ()).
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def cosine_value(u: np.ndarray, v: np.ndarray) -> float:
    """Guarded cosine similarity on raw arrays.

    Shared by the tape primitive and every non-tape caller (key selection,
    evaluation) so the two routes agree bit-for-bit.
    """
    uf = u.reshape(-1)
    vf = v.reshape(-1)
    nu = np.sqrt(np.dot(uf, uf) + NORM_EPS)
    nv = np.sqrt(np.dot(vf, vf) + NORM_EPS)
    return float(np.dot(uf, vf) / (nu * nv))


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D x 2-D, 1-D x 2-D (vec-mat) or 2-D x 1-D (mat-vec)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim not in (1, 2) or b.values.ndim not in (1, 2):
        raise ShapeError(f"matmul: ranks must be 1 or 2, got {a.shape} x {b.shape}")
    if a.values.ndim == 1 and b.values.ndim == 1:
        raise ShapeError("matmul: use cosine_sim/mul for vector-vector products")
    ka = a.shape[-1]
    kb = b.shape[0]
    if ka != kb:
        raise ShapeError(f"matmul: contraction mismatch {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    out = Tensor(av @ bv)

    def grad_fn(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return bv @ g, np.outer(av, g)
        # (m,k) @ (k,) -> (m,)
        return np.outer(g, bv), av.T @ g

    return _record("matmul", (a, b), out, grad_fn)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)
    out = Tensor(a.values + b.values)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g if a_shape == out.shape else np.asarray(g.sum())
        gb = g if b_shape == out.shape else np.asarray(g.sum())
        return ga, gb

    return _record("add", (a, b), out, grad_fn)


def mul(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    av, bv = a.values, b.values
    out = Tensor(av * bv)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g * bv
        gb = g * av
        if a_shape != out.shape:
            ga = np.asarray(ga.sum())
        if b_shape != out.shape:
            gb = np.asarray(gb.sum())
        return ga, gb

    return _record("mul", (a, b), out, grad_fn)


def scale(a: Tensor, alpha: float) -> Tensor:
    a = _as_tensor(a)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NumericError(f"scale: non-finite factor {alpha}")
    out = Tensor(a.values * alpha)

    def grad_fn(g):
        return (g * alpha,)

    return _record("scale", (a,), out, grad_fn)


def concat(tensors) -> Tensor:
    """Concatenate along axis 0. Scalars are promoted to length-1 vectors."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    views = [t.values.reshape(1) if t.values.ndim == 0 else t.values for t in tensors]
    rank = views[0].ndim
    for v in views:
        if v.ndim != rank:
            raise ShapeError(f"concat: mixed ranks {[w.shape for w in views]}")
        if v.shape[1:] != views[0].shape[1:]:
            raise ShapeError(f"concat: trailing extents differ {[w.shape for w in views]}")
    out = Tensor(np.concatenate(views, axis=0))
    lengths = [v.shape[0] for v in views]
    shapes = [t.shape for t in tensors]

    def grad_fn(g):
        grads = []
        offset = 0
        for length, shape in zip(lengths, shapes):
            piece = g[offset:offset + length]
            grads.append(piece.reshape(shape))
            offset += length
        return tuple(grads)

    return _record("concat", tuple(tensors), out, grad_fn)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: expects a matrix, got {a.shape}")
    out = Tensor(a.values.T)

    def grad_fn(g):
        return (g.T,)

    return _record("transpose", (a,), out, grad_fn)


def l2norm(a: Tensor) -> Tensor:
    """Euclidean norm of all elements: sqrt(sum(a^2) + eps), a scalar."""
    a = _as_tensor(a)
    av = a.values.reshape(-1)
    n = np.sqrt(np.dot(av, av) + NORM_EPS)
    out = Tensor(n)
    shape = a.shape

    def grad_fn(g):
        return ((float(g) / n) * av.reshape(shape),)

    return _record("l2norm", (a,), out, grad_fn)


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two same-shape tensors, as a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_sim: shape mismatch {a.shape} vs {b.shape}")
    av = a.values.reshape(-1)
    bv = b.values.reshape(-1)
    na = np.sqrt(np.dot(av, av) + NORM_EPS)
    nb = np.sqrt(np.dot(bv, bv) + NORM_EPS)
    s = np.dot(av, bv)
    c = s / (na * nb)
    out = Tensor(c)
    a_shape = a.shape

    def grad_fn(g):
        gf = float(g)
        ga = gf * (bv / (na * nb) - (c / (na * na)) * av)
        gb = gf * (av / (na * nb) - (c / (nb * nb)) * bv)
        return ga.reshape(a_shape), gb.reshape(a_shape)

    return _record("cosine_sim", (a, b), out, grad_fn)


def softmax_logits(a: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (vector or matrix rows)."""
    a = _as_tensor(a)
    if a.values.ndim not in (1, 2):
        raise ShapeError(f"softmax_logits: rank must be 1 or 2, got {a.shape}")
    av = a.values
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _record("softmax_logits", (a,), out, grad_fn)


def neg_log_prob(logits: Tensor, index: int) -> Tensor:
    """Negative log softmax probability of one entry, computed stably.

    Equals logsumexp(logits) - logits[index]; gradient is softmax - onehot.
    """
    logits = _as_tensor(logits)
    if logits.values.ndim != 1:
        raise ShapeError(f"neg_log_prob: expects a logits vector, got {logits.shape}")
    k = logits.size
    index = int(index)
    if not 0 <= index < k:
        raise IndexError(f"neg_log_prob: index {index} out of range for {k} logits")
    lv = logits.values
    m = lv.max()
    lse = m + np.log(np.exp(lv - m).sum())
    out = Tensor(lse - lv[index])
    p = np.exp(lv - lse)

    def grad_fn(g):
        grad = p.copy()
        grad[index] -= 1.0
        return (float(g) * grad,)

    return _record("neg_log_prob", (logits,), out, grad_fn)


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    out = Tensor(np.abs(av))

    def grad_fn(g):
        return (g * np.sign(av),)

    return _record("abs", (a,), out, grad_fn)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.values.sum())
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return _record("sum", (a,), out, grad_fn)


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.size
    out = Tensor(a.values.mean())
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g) / n),)

    return _record("mean", (a,), out, grad_fn)


# ---------------------------------------------------------------------------
# backward pass and verification


def backward(loss: Tensor) -> None:
    """Populate gradients of every requires_grad tensor on the active tape.

    Gradient buffers are re-zeroed first, so leaves unreachable from the loss
    end with exact zero gradients and replaying the same tape is bit-stable.
    """
    if loss.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _tape.nodes
    seen: set[int] = set()
    for node in nodes:
        for t in node.inputs + (node.output,):
            if t.requires_grad and id(t) not in seen:
                t.grad = np.zeros_like(t.values)
                seen.add(id(t))
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.values)
    for node in reversed(nodes):
        out_grad = node.output.grad
        if out_grad is None or not out_grad.any():
            continue
        for t, g in zip(node.inputs, node.grad_fn(out_grad)):
            if g is not None and t.requires_grad:
                t.grad += g


def finite_difference_check(f, at, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``at`` is one tensor or a list of them; ``f(at)`` must return a scalar
    Tensor deterministically. Returns the max over every coordinate of every
    tensor of |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0:
        raise ValueError("finite_difference_check: h must be positive")
    tensors = at if isinstance(at, (list, tuple)) else [at]
    for t in tensors:
        t.grad = None
    reset_tape()
    out = f(at)
    if out.shape != ():
        raise ShapeError("finite_difference_check: f must return a scalar")
    if not np.isfinite(out.values):
        raise NumericError("finite_difference_check: f produced a non-finite value")
    backward(out)
    analytic = [t.grad.reshape(-1).copy() if t.grad is not None else np.zeros(t.size)
                for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat = t.values.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            reset_tape()
            fp = float(f(at).values)
            flat[i] = orig - h
            reset_tape()
            fm = float(f(at).values)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"finite_difference_check: non-finite f at coordinate {i}")
            numeric[i] = (fp - fm) / (2.0 * h)
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    reset_tape()
    return worst
