"""Tape-based reverse-mode differentiation over dense float64 tensors.

Primitive applications are appended to a module-global tape during the
forward pass; ``backward`` replays the tape in reverse order and accumulates
gradients into the ``grad`` buffers of every tensor that requires them.
Everything is double precision: the package's acceptance rests on tight
gradient checks, not throughput.

The module holds no arithmetic primitive. ``cosines`` is the one batched
cosine kernel, values and gradient, that key selection and the loss terms
build on. Every node is a fused block built with ``record``: the frozen
text tower, each loss term over the batch and their weighted total;
``tests/reference.py`` holds the finer primitives (add, scale, matmul,
mul, transpose, cosine_sim, cosine_logits, softmax_logits, concat, take,
neg_log_prob, abs, sum, mean) that the fused nodes are pinned to.

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

    ``grad_fn(g)`` returns one gradient (or None) per input. Every node
    ends here: the frozen text tower, each loss term and their total.
    """
    for t in inputs:
        if t.requires_grad:
            output.requires_grad = True
            _tape.append(TapeNode(op, inputs, output, grad_fn))
            break
    return output


def cosines(a: np.ndarray, b: np.ndarray):
    """Cosine of each (..., d) row of ``a`` against the K rows of its (..., K, d) ``b``.

    Returns the (..., K) cosines and ``grads(g, da=True, db=True)``, which
    maps their gradient ``g`` to (d/da, d/db), None for one not asked for.
    It is the package's one cosine and its one cosine gradient: key
    selection and every node that takes a cosine build on it. One dot
    product per row, as a per-pair chain takes it: vecdot
    equals a loop of 1-D np.dot, batched or not. d/da sums its K terms in
    reverse row order, as backward would visit K per-row nodes;
    accumulate is a left fold at every d, where reduce sums pairwise at d = 1.
    """
    na = np.sqrt(np.vecdot(a, a) + NORM_EPS)[..., None]
    nb = np.sqrt(np.vecdot(b, b) + NORM_EPS)
    nab = na * nb
    c = np.vecdot(a[..., None, :], b) / nab

    def grads(g, da=True, db=True):
        g = g[..., None]
        ga = gb = None
        if da:
            terms = g * (b / nab[..., None] - (c / (na * na))[..., None] * a[..., None, :])
            ga = np.add.accumulate(terms[..., ::-1, :], axis=-2)[..., -1, :]
        if db:
            gb = g * (a[..., None, :] / nab[..., None] - (c / (nb * nb))[..., None] * b)
        return ga, gb

    return c, grads


# ---------------------------------------------------------------------------
# backward pass and verification


# Nodes whose backward adds into rows of an input's buffer in place: the text
# tower reading a selection's prompt rows.
_IN_PLACE = ("encode_text",)


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
