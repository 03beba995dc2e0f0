"""Tape-based reverse-mode differentiation over dense float64 tensors.

Primitive applications are appended to a module-global tape during the
forward pass; ``backward`` replays the tape in reverse order and accumulates
gradients into the ``grad`` buffers of every tensor that requires them.
Everything is double precision: the package's acceptance rests on tight
gradient checks, not throughput.

Supported primitives: add, scale, concat, take (one row or an index list),
cosine_logits (one vector against the K rows of a matrix), neg_log_prob,
abs, sum, mean. No broadcasting beyond scalar-tensor; shapes are checked
explicitly per primitive. A fused block over constant weights, such as the
frozen text tower, is one node built with ``record``; ``tests/reference.py``
holds the finer primitives (matmul, mul, transpose, cosine_sim,
softmax_logits) that the fused nodes are pinned to.

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


# Append-only record of primitive applications, in execution order. Every
# node is appended after its parents, so the list is already topologically
# sorted; backward visits each node exactly once in reverse.
_tape: list[TapeNode] = []


def active_tape() -> list:
    return _tape


def reset_tape() -> None:
    global _tape
    _tape = []


def record(op: str, inputs: tuple, output: Tensor, grad_fn) -> Tensor:
    """Put ``output`` on the tape when any input requires gradient.

    ``grad_fn(g)`` returns one gradient (or None) per input. Every primitive
    ends here, and so does a fused block over constant weights, such as the
    frozen text tower.
    """
    for t in inputs:
        if t.requires_grad:
            output.requires_grad = True
            _tape.append(TapeNode(op, inputs, output, grad_fn))
            break
    return output


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and a.shape != () and b.shape != ():  # one side may be a scalar
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values + b.values)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g if a_shape == out.shape else np.asarray(g.sum())
        gb = g if b_shape == out.shape else np.asarray(g.sum())
        return ga, gb

    return record("add", (a, b), out, grad_fn)


def scale(a: Tensor, alpha: float) -> Tensor:
    a = _as_tensor(a)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NumericError(f"scale: non-finite factor {alpha}")
    out = Tensor(a.values * alpha)

    def grad_fn(g):
        return (g * alpha,)

    return record("scale", (a,), out, grad_fn)


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

    return record("concat", tuple(tensors), out, grad_fn)


def take(a: Tensor, index) -> Tensor:
    """Row ``index`` of ``a`` along axis 0, or the rows of a list of distinct
    indices, in its order; the gradient goes only into the rows read."""
    a = _as_tensor(a)
    n = a.shape[0] if a.values.ndim else 0
    if isinstance(index, (int, np.integer)):
        index = int(index)
        ok = 0 <= index < n
    else:
        index = [int(i) for i in index]
        ok = len(set(index)) == len(index) and all(0 <= i < n for i in index)
    if not ok:
        raise IndexError(f"take: row {index} out of range or repeated for shape {a.shape}")
    out = Tensor(a.values[index])

    def grad_fn(g):
        # Accumulate straight into the rows, so no zero array of a's full
        # shape is built per read; distinct rows make the in-place add exact.
        a.grad[index] += g
        return (None,)

    return record("take", (a,), out, grad_fn)


def cosine_logits(a: Tensor, b, alpha: float) -> Tensor:
    """The vector of ``alpha * cos(a, b_k)`` over the rows b_k of the (K, d) ``b``, as one node.

    Bit-identical to concatenating ``scale(cosine_sim(a, take(b, k)), alpha)``
    over k (the chain in ``tests/reference.py``), in values and gradients,
    without 2K + 1 nodes per call. It is the package's one differentiable
    cosine: on constants it records nothing, so key selection reads its
    ``values`` with ``alpha = 1``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NumericError(f"cosine_logits: non-finite factor {alpha}")
    if a.values.ndim != 1 or b.values.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ShapeError(f"cosine_logits: expects a (d,) vector and (K, d) rows, "
                         f"got {a.shape} and {b.shape}")
    if not b.shape[0]:
        raise ShapeError("cosine_logits: no rows")
    av, bv = a.values, b.values
    # One dot product per row, as the per-pair chain computes it: vecdot
    # equals a loop of 1-D np.dot.
    na = np.sqrt(np.dot(av, av) + NORM_EPS)
    nb = np.sqrt(np.vecdot(bv, bv) + NORM_EPS)
    c = np.vecdot(av, bv) / (na * nb)
    out = Tensor(c * alpha)

    def grad_fn(g):
        gf = (g * alpha)[:, None]
        ga = gb = None
        if a.requires_grad:
            # Summed in reverse row order, as backward would visit the per-row
            # nodes. accumulate is a left fold at every d; reduce sums pairwise at d = 1.
            ga = np.add.accumulate(
                (gf * (bv / (na * nb)[:, None] - (c / (na * na))[:, None] * av))[::-1], axis=0)[-1]
        if b.requires_grad:
            gb = gf * (av / (na * nb)[:, None] - (c / (nb * nb))[:, None] * bv)
        return ga, gb

    return record("cosine_logits", (a, b), out, grad_fn)


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

    return record("neg_log_prob", (logits,), out, grad_fn)


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    out = Tensor(np.abs(av))

    def grad_fn(g):
        return (g * np.sign(av),)

    return record("abs", (a,), out, grad_fn)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.values.sum())
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return record("sum", (a,), out, grad_fn)


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.size
    out = Tensor(a.values.mean())
    shape = a.shape

    def grad_fn(g):
        return (np.full(shape, float(g) / n),)

    return record("mean", (a,), out, grad_fn)


# ---------------------------------------------------------------------------
# backward pass and verification


# Nodes whose backward may add into rows of an input's buffer in place: ``take``,
# and the text tower reading a selection's prompt rows.
_IN_PLACE = ("take", "encode_text")


def backward(loss: Tensor) -> None:
    """Populate gradients of the requires_grad tensors on the active tape.

    Every leaf on the tape (and every input of a node that accumulates into
    its input's buffer in place) gets a fresh zero buffer first, so
    leaves unreachable from the loss end with exact zero gradients and
    replaying the same tape is bit-stable. Intermediate outputs get a buffer
    only when the loss reaches them: their first gradient is stored as is,
    later ones are added out of place, so no zero array is built per node.
    """
    if loss.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _tape
    outputs = set()
    for node in nodes:
        node.output.grad = None
        outputs.add(id(node.output))
    owned = [t for node in nodes for t in node.inputs
             if t.requires_grad and (node.op in _IN_PLACE or id(t) not in outputs)]
    for t in owned:
        t.grad = None
    for t in owned:
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.values)
    for node in reversed(nodes):
        out_grad = node.output.grad
        if out_grad is None:
            continue
        for t, g in zip(node.inputs, node.grad_fn(out_grad)):
            if g is not None and t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g


def finite_difference_check(f, at: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(at)`` must return a scalar Tensor deterministically. Returns the max
    over every coordinate of |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0:
        raise ValueError("finite_difference_check: h must be positive")
    at.grad = None
    reset_tape()
    out = f(at)
    if out.shape != ():
        raise ShapeError("finite_difference_check: f must return a scalar")
    if not np.isfinite(out.values):
        raise NumericError("finite_difference_check: f produced a non-finite value")
    backward(out)
    analytic = at.grad.reshape(-1).copy() if at.grad is not None else np.zeros(at.size)

    flat = at.values.reshape(-1)
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
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    reset_tape()
    return float(rel.max()) if rel.size else 0.0
