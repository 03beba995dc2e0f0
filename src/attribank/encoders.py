"""Frozen dual encoders: an image tower and an input-differentiable text tower.

The image encoder maps a feature vector to a D-dimensional embedding and
tracks no gradients (its output is a constant for the objective). Two
backends exist: a seeded frozen linear map ("toy") and an identity pass for
precomputed embeddings ("lookup").

The text encoder is a deliberately small, order-sensitive network:

    tokens + positional table
    -> bilinear pairwise scores, row-softmax   (one token-mixing step)
    -> mean pool over tokens
    -> linear projection to R^D

Its weights are frozen; gradients flow only into the input tokens, which is
exactly the property prompt tuning relies on.

Its input is an (n, m, d) token stack: every entry as one sequence, or the
entries ``rows`` as one prefix followed by each of K tails, such as one
selection's prompts followed by each candidate's class token.
``encode_text`` embeds them in one of two arithmetics, and the tape picks
which. Evaluation, where nothing requires a gradient, encodes a prefix and
its tails prefix-shared and forward only: the prefix's scores are computed
once, and each tail adds one score row and one score column. Training runs
every sequence through the tower on its own as one tape node, stacked over
a (K, s, d) array with numpy forms that equal their per-slice calls, so its
values and gradients are those of one sequence at a time, bit for bit.
That node keeps only the (K, s, s) attention and the tokens plus positions
of the prefix and of the K tails; its backward rebuilds the (K, s, d) token
stacks with the same calls, so the tape holds about a third of the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .util import content_hash, keyed_rng

_CTX_IMAGE, _CTX_MIX, _CTX_PROJ, _CTX_POS = 11, 12, 13, 14


@dataclass
class ImageSample:
    """One labelled input: either a raw feature vector or a precomputed embedding."""

    vector: np.ndarray
    label: int
    task_id: int


@dataclass
class TokenSequence:
    """Ordered tokens, possibly on the tape.

    ``tokens`` is always an (n, m, d) stack. Without ``rows`` it is n
    sequences, one per entry. With ``rows`` it is one prefix, the stack
    entries ``rows`` in that order, such as a selection's prompts in
    ``bank.prompts``; the text tower reads them itself. A learner without a
    bank has the prefix ``[]`` of an empty (0, 0, d) stack.
    """

    tokens: ad.Tensor
    rows: list | None = None

    def __post_init__(self):
        shape = self.tokens.shape
        if len(shape) != 3:
            raise ad.ShapeError(f"TokenSequence expects an (n, m, dim) stack, got {shape}")
        if self.rows is not None and (len(set(self.rows)) != len(self.rows)
                                      or not all(0 <= i < shape[0] for i in self.rows)):
            raise IndexError(f"TokenSequence: rows {self.rows} out of range or repeated for {shape}")


@dataclass
class EncoderWeights:
    """Frozen parameter set for both towers; the checksum pins immutability."""

    theta: dict = field(default_factory=dict)  # image tower
    psi: dict = field(default_factory=dict)    # text tower: mix, proj, pos
    seed: int = 0

    def checksum(self) -> str:
        parts = []
        for name in sorted(self.theta):
            parts.extend([name.encode(), self.theta[name]])
        for name in sorted(self.psi):
            parts.extend([name.encode(), self.psi[name]])
        return content_hash(str(self.seed).encode(), *parts)


class FrozenEncoderPair:
    """Immutable encoder pair; weights are drawn once from the seed.

    Init is standard normal scaled by 1/sqrt(fan_in), which keeps cosine
    similarities well spread at the start of training.
    """

    def __init__(self, d: int, image_width: int, seed: int,
                 max_tokens: int = 64, backend: str = "toy"):
        if d < 1 or image_width < 1 or max_tokens < 1:
            raise ValueError("encoder dimensions must be positive")
        if backend not in ("toy", "lookup"):
            raise ValueError(f"unknown image backend {backend!r}")
        if backend == "lookup" and image_width != d:
            raise ValueError("lookup backend requires image_width == d")
        self.d = d
        self.image_width = image_width
        self.max_tokens = max_tokens
        self.backend = backend

        theta = {}
        if backend == "toy":
            theta["w_image"] = keyed_rng(seed, _CTX_IMAGE).standard_normal((d, image_width)) / math.sqrt(image_width)
        psi = {
            "w_mix": keyed_rng(seed, _CTX_MIX).standard_normal((d, d)) / math.sqrt(d),
            "w_proj": keyed_rng(seed, _CTX_PROJ).standard_normal((d, d)) / math.sqrt(d),
            "pos": keyed_rng(seed, _CTX_POS).standard_normal((max_tokens, d)) / math.sqrt(d),
        }
        self.weights = EncoderWeights(theta=theta, psi=psi, seed=seed)
        for arr in (*theta.values(), *psi.values()):
            arr.setflags(write=False)
        self._inv_sqrt_d = 1.0 / math.sqrt(d)

    def checksum(self) -> str:
        return self.weights.checksum()

    def encode_image(self, samples) -> np.ndarray:
        """Deterministic embeddings; never on the tape.

        One image (an ``ImageSample`` or a (w,) vector) gives a D-vector; a
        (B, w) stack or a list or tuple of B images gives a (B, D) stack.
        The toy backend multiplies each row on its own, as
        ``w_image @ X[..., None]``, so row b is the one-image product of
        image b, bit for bit; a gemm over the stack (``X @ w_image.T``) is not.
        """
        if isinstance(samples, (list, tuple)):
            vectors = [s.vector if isinstance(s, ImageSample) else s for s in samples]
            for i, v in enumerate(vectors):
                if np.shape(v) != (self.image_width,):
                    raise ad.ShapeError(f"encode_image: expected width {self.image_width}, "
                                        f"got shape {np.shape(v)} for image {i}")
            x = np.stack(vectors)
        else:
            x = samples.vector if isinstance(samples, ImageSample) else samples
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.image_width:
            raise ad.ShapeError(
                f"encode_image: expected width {self.image_width}, got shape {x.shape}")
        if self.backend == "lookup":
            return x
        return (self.weights.theta["w_image"] @ x[..., None])[..., 0]

    def encode_text(self, seq: TokenSequence, tails: ad.Tensor | None = None) -> ad.Tensor:
        """Embed ``[seq; t_k]`` for every row t_k of the (K, d) ``tails``, as one (K, d) tensor.

        Differentiable w.r.t. the tokens and ``tails`` only. The tape picks
        the arithmetic. When nothing requires a gradient and ``tails`` is
        given (evaluation), the sequences are encoded prefix-shared, below,
        and the result is a constant. Every other call runs each of its
        sequences through the unshared tower, stacked, as one node
        (``_encode_unshared``):

        * with no ``tails``, a whole (n, m, d) stack gives one row per entry
          (the standalone prompts);
        * ``seq.rows`` with ``tails`` (training) gives one row per tail, each
          sequence the stack entries ``rows`` followed by its tail.

        ``seq.rows`` come exactly with ``tails``; rows without tails, or
        tails without rows, raise ``ShapeError``.

        Prefix-shared, every sequence shares its first L rows, so the L x L
        prefix block of the scores is computed once; each tail adds one score
        column (to every prefix row) and one score row. Prefix row i of
        sequence k takes the shift max(row max of the block, its score
        against tail k), the shift of the unshared softmax. With A = E_PP xp_P
        the shared block's attention mass, the pooled vector of sequence k is

            (sum_i R_ik u_ik A_i + (sum_i R_ik w_ik + a_kk) xp_k + a_kP xp_P) / (L + 1)

        where u and w rescale row i to its shift, R is its softmax normaliser
        and a_k is the softmax of the tail's own row. The cost is
        O(L^2 d + K L d) in place of K sequences at O(L^2 d) each; values
        agree with the unshared tower to about 1e-15 relative, not bit for bit.
        """
        x = seq.tokens
        if x.shape[-1] != self.d:
            raise ad.ShapeError(f"encode_text: token dim {x.shape[-1]} != encoder dim {self.d}")
        if tails is not None and (tails.values.ndim != 2 or tails.shape[1] != self.d):
            raise ad.ShapeError(f"encode_text: tails must be (K, {self.d}), got {tails.shape}")
        if (tails is None) != (seq.rows is None):
            raise ad.ShapeError(f"encode_text: rows of a stack come with tails, got rows "
                                f"{seq.rows} and {'no ' if tails is None else ''}tails")
        n = x.shape[1] if seq.rows is None else len(seq.rows) * x.shape[1]
        length = n + (tails is not None)
        if length < 1:
            raise ad.ShapeError("encode_text: no tail row")
        if length > self.max_tokens:
            raise ad.ShapeError(
                f"encode_text: sequence length {length} exceeds positional table ({self.max_tokens})")
        if tails is None or x.requires_grad or tails.requires_grad:
            return self._encode_unshared(seq, tails)
        psi, alpha = self.weights.psi, self._inv_sqrt_d
        mix, proj = psi["w_mix"], psi["w_proj"]
        xp = x.values[seq.rows].reshape(n, self.d) + psi["pos"][:n]  # (L, d), shared
        xt = tails.values + psi["pos"][n]   # (K, d), one row per sequence
        xm, xmt = xp @ mix, xt @ mix
        # Prefix rows: the shared block, then one column per tail.
        s_pp = (xm @ xp.T) * alpha
        s_pt = (xm @ xt.T) * alpha
        row_max = s_pp.max(axis=1, initial=-np.inf)[:, None]
        shift = np.maximum(row_max, s_pt)
        e_pp = np.exp(s_pp - row_max)
        u, w = np.exp(row_max - shift), np.exp(s_pt - shift)
        r = 1.0 / (u * e_pp.sum(axis=1, keepdims=True) + w)
        ru, rw = r * u, r * w
        a = e_pp @ xp
        # Tail rows: one score per prefix row, then their own.
        s_tp = (xmt @ xp.T) * alpha
        s_tt = np.einsum("kd,kd->k", xmt, xt) * alpha
        t_max = np.maximum(s_tp.max(axis=1, initial=-np.inf), s_tt)
        e_tp, e_tt = np.exp(s_tp - t_max[:, None]), np.exp(s_tt - t_max)
        z_t = e_tp.sum(axis=1) + e_tt
        a_tp, a_tt = e_tp / z_t[:, None], e_tt / z_t
        tail_mass = rw.sum(axis=0) + a_tt
        pooled = (ru.T @ a + tail_mass[:, None] * xt + a_tp @ xp) / (n + 1)
        return ad.constant(pooled @ proj.T)

    def _encode_unshared(self, seq: TokenSequence, tails: ad.Tensor | None) -> ad.Tensor:
        """Every sequence of ``seq`` (and ``tails``) through the tower on its own, as one node.

        The sequences are stacked into one (K, s, d) array and pass through
        stacked ``@``, ``np.matmul(vector, stack)``, ``matrix @ stack[..., None]``
        and elementwise steps, each of which equals its per-slice call. So
        every row, forward and backward, is that of the primitive chain add,
        matmul, transpose, matmul, scale, softmax_logits, matmul, matmul,
        matmul on its sequence alone, bit for bit. The elementwise steps run
        in place, in that order. Training runs on it: the prompt updates
        amplify a one-ulp change in the embeddings until the accuracies move,
        so the prefix-shared arithmetic stays out of it.

        The node keeps the attention, ``head`` (the prefix plus its positions:
        one (1, n, d) block for rows of a stack, the whole stack without
        tails) and ``tail`` (the K tails plus their position). ``tokens()``
        copies those into the (K, s, d) stack ``xp`` and derives its
        transposed copy and ``xp @ mix`` from it; forward drops the three
        after pooling and backward calls ``tokens()`` again. The values,
        layouts and BLAS calls are the same both times, so are the bits; a
        different layout is not (``xm @ xp.mT`` for ``xm @ xp_t`` changes
        the scores at some lengths). Backward writes only into arrays it made
        itself, so the attention stays as forward left it.

        With ``seq.rows`` the node reads the rows of the stack itself and adds
        each sequence's gradient into them in place, for k = K-1 ... 0: the
        order in which K per-sequence reads of those rows would add it.
        """
        x, rows = seq.tokens, seq.rows
        prefix = x.values if rows is None else x.values[rows].reshape(1, -1, self.d)
        n = prefix.shape[1]
        psi, alpha = self.weights.psi, self._inv_sqrt_d
        mix, proj, pos = psi["w_mix"], psi["w_proj"], psi["pos"]
        k = len(prefix) if tails is None else tails.shape[0]
        s = n + (tails is not None)
        head = prefix + pos[:n]  # tokens plus positions
        tail = None if tails is None else tails.values + pos[n]

        def tokens():
            xp = np.empty((k, s, self.d))
            xp[:, :n] = head
            if tail is not None:
                xp[:, n] = tail
            return xp, np.ascontiguousarray(xp.mT), xp @ mix

        xp, xp_t, xm = tokens()
        attn = xm @ xp_t  # the scores, scaled, shifted, exponentiated and normalised in place
        attn *= alpha
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        pooled = np.matmul(np.full(s, 1.0 / s), attn @ xp)  # (s,) @ (K, s, d) -> (K, d)
        del xp, xp_t, xm

        def grad_fn(g):
            xp, xp_t, xm = tokens()
            g_mixed = np.empty((k, s, self.d))  # every row the same (1/s) (proj.T g_k)
            g_mixed[:] = (proj.T @ g[..., None]).mT * (1.0 / s)
            g_scores = g_mixed @ xp.mT  # d/d attn, then d/d scores in place
            g_scores -= (g_scores * attn).sum(axis=-1, keepdims=True)
            g_scores *= attn
            g_scores *= alpha
            g_xs = attn.mT @ g_mixed
            g_xs += (xm.mT @ g_scores).mT
            g_xs += (g_scores @ xp_t.mT) @ mix.T
            if rows is None:
                return (g_xs,)
            if x.requires_grad:
                acc = x.grad[rows].reshape(n, self.d)
                for g_k in g_xs[::-1, :n]:
                    acc += g_k
                x.grad[rows] = acc.reshape(len(rows), -1, self.d)
            return None, g_xs[:, n]

        out = ad.Tensor((proj @ pooled[..., None])[..., 0])
        return ad.record("encode_text", (x,) if tails is None else (x, tails), out, grad_fn)
