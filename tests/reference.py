"""Reference chains the fused code paths are pinned to, built on ``autodiff.record``.

The package computes the text tower and every cosine-logit vector as single
fused tape nodes. These finer primitives rebuild the same arithmetic one
operation per node; tests check each against central differences and pin
the fused nodes to them: the cosine logits and the unshared text tower bit
for bit, the prefix-shared text tower (which sums in another order) within
1e-12 relative.
``text_tower`` is the per-sequence tower as a chain, and ``ChainTower`` the
stacked unshared tower as one such chain per sequence. ``score`` is the one-key
form of ``bank.scores``, and ``predict_probabilities`` the softmax that
``classification_loss`` takes the log of.
"""

import numpy as np

from attribank import autodiff as ad
from attribank.bank import scores


def _as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def matmul(a, b) -> ad.Tensor:
    """Matrix product: 2-D x 2-D, 1-D x 2-D (vec-mat) or 2-D x 1-D (mat-vec)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim not in (1, 2) or b.values.ndim not in (1, 2):
        raise ad.ShapeError(f"matmul: ranks must be 1 or 2, got {a.shape} x {b.shape}")
    if a.values.ndim == 1 and b.values.ndim == 1:
        raise ad.ShapeError("matmul: use cosine_sim/mul for vector-vector products")
    if a.shape[-1] != b.shape[0]:
        raise ad.ShapeError(f"matmul: contraction mismatch {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    out = ad.Tensor(av @ bv)

    def grad_fn(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return bv @ g, np.outer(av, g)
        # (m,k) @ (k,) -> (m,)
        return np.outer(g, bv), av.T @ g

    return ad.record("matmul", (a, b), out, grad_fn)


def mul(a, b) -> ad.Tensor:
    """Elementwise product; one side may be a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ad.ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    out = ad.Tensor(av * bv)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        ga = g * bv
        gb = g * av
        if a_shape != out.shape:
            ga = np.asarray(ga.sum())
        if b_shape != out.shape:
            gb = np.asarray(gb.sum())
        return ga, gb

    return ad.record("mul", (a, b), out, grad_fn)


def transpose(a) -> ad.Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ad.ShapeError(f"transpose: expects a matrix, got {a.shape}")

    def grad_fn(g):
        return (g.T,)

    return ad.record("transpose", (a,), ad.Tensor(a.values.T), grad_fn)


def cosine_sim(a, b) -> ad.Tensor:
    """Cosine similarity of two same-shape tensors, as a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ad.ShapeError(f"cosine_sim: shape mismatch {a.shape} vs {b.shape}")
    av = a.values.reshape(-1)
    bv = b.values.reshape(-1)
    na = np.sqrt(np.dot(av, av) + ad.NORM_EPS)
    nb = np.sqrt(np.dot(bv, bv) + ad.NORM_EPS)
    c = np.dot(av, bv) / (na * nb)
    a_shape = a.shape

    def grad_fn(g):
        gf = float(g)
        ga = gf * (bv / (na * nb) - (c / (na * na)) * av)
        gb = gf * (av / (na * nb) - (c / (nb * nb)) * bv)
        return ga.reshape(a_shape), gb.reshape(a_shape)

    return ad.record("cosine_sim", (a, b), ad.Tensor(c), grad_fn)


def softmax_logits(a) -> ad.Tensor:
    """Numerically stable softmax along the last axis (vector or matrix rows)."""
    a = _as_tensor(a)
    if a.values.ndim not in (1, 2):
        raise ad.ShapeError(f"softmax_logits: rank must be 1 or 2, got {a.shape}")
    av = a.values
    e = np.exp(av - av.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return ad.record("softmax_logits", (a,), ad.Tensor(y), grad_fn)


def text_tower(encoders, x) -> ad.Tensor:
    """The frozen text tower of one (s, d) token sequence, one primitive per step."""
    psi = encoders.weights.psi
    s, d = x.shape
    xp = ad.add(x, ad.constant(psi["pos"][:s]))
    scores = ad.scale(matmul(matmul(xp, ad.constant(psi["w_mix"])), transpose(xp)),
                      1.0 / np.sqrt(d))
    mixed = matmul(softmax_logits(scores), xp)
    pooled = matmul(ad.constant(np.full(s, 1.0 / s)), mixed)
    return matmul(ad.constant(psi["w_proj"]), pooled)


def stack(vectors) -> ad.Tensor:
    """(d,) tensors as the rows of one (n, d) tensor; no arithmetic."""

    def grad_fn(g):
        return tuple(g)

    return ad.record("stack", tuple(vectors), ad.Tensor(np.stack([v.values for v in vectors])),
                     grad_fn)


class ChainTower:
    """``encode_text`` of the stacked unshared tower, built as one ``text_tower``
    chain per sequence: every sequence reads its stack entries with its own
    ``take``s, as the training path did before it was one node."""

    def __init__(self, encoders):
        self.encoders = encoders

    def encode_text(self, seq, tails=None):
        x = seq.tokens
        if seq.rows is not None:
            return stack([text_tower(self.encoders, ad.concat(
                [ad.take(x, i) for i in seq.rows] + [tails.values[k:k + 1]]))
                for k in range(tails.shape[0])])
        if x.values.ndim == 3:
            return stack([text_tower(self.encoders, ad.take(x, i)) for i in range(x.shape[0])])
        return stack([text_tower(self.encoders, x)])


def score(z: np.ndarray, key: np.ndarray) -> float:
    """Cosine distance 1 - cos(z, key), in [0, 2]."""
    return float(scores(z, np.asarray(key, dtype=np.float64)[None])[0])


def predict_probabilities(z: np.ndarray, text_embeddings, tau: float) -> np.ndarray:
    """Softmax over cosine similarities at temperature tau (max-shifted)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=np.float64)
    embs = [np.asarray(w, dtype=np.float64) for w in text_embeddings]
    if not embs:
        raise ValueError("predict_probabilities: need at least one class embedding")
    if not np.isfinite(z).all() or any(not np.isfinite(w).all() for w in embs):
        raise ad.NumericError("predict_probabilities: non-finite embedding")
    logits = ad.cosine_logits(z, embs, 1.0).values / tau
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()
