"""Message-passing layers with analytic gradients.

Parameters live in plain dicts of numpy arrays, a graph in one dense (n, n)
0/1 in-neighbour mask whose row i marks the nodes feeding i, self included.
Every forward returns a cache that its backward consumes; backward returns
the gradient w.r.t. the input features plus a gradient dict shaped exactly
like the parameter dict. No autograd anywhere: each formula below is
differentiated by hand and finite-difference tests hold the line.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

LEAKY_SLOPE = 0.2


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(x))


def elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(x))


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# A layer layout maps each parameter, in drawing order, to its shape and the
# (fan_in, fan_out) of its Glorot draw, or None for one that starts at zero.
Layout = dict[str, tuple[tuple[int, ...], Optional[tuple[int, int]]]]


def gat_layout(d_in: int, d_out: int) -> Layout:
    return {
        "weight": ((d_in, d_out), (d_in, d_out)),
        "bias": ((d_out,), None),
        "att": ((2 * d_out,), (2 * d_out, 1)),
    }


def sage_layout(d_in: int, d_out: int) -> Layout:
    return {
        "weight": ((d_in, d_out), (d_in, d_out)),
        "bias": ((d_out,), None),
    }


def gat_forward(
    h: np.ndarray,
    params: dict[str, np.ndarray],
    inbound: np.ndarray,
    activate: bool,
) -> tuple[np.ndarray, dict]:
    """Single-head attention layer.

    inbound[i, j] is 1 where j feeds i, diagonal included, so every node
    attends at least to itself. score[i, j] = LeakyReLU(a_self . g_i +
    a_neigh . g_j), softmax over each row's inbound entries.
    """
    d_out = params["weight"].shape[1]
    g = h @ params["weight"]
    a_self, a_neigh = params["att"][:d_out], params["att"][d_out:]
    score = (g @ a_self)[:, None] + (g @ a_neigh)[None, :]
    bent = np.where(inbound > 0, np.where(score > 0, score, LEAKY_SLOPE * score), -np.inf)
    ex = np.exp(bent - bent.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    pre = alpha @ g + params["bias"]
    out = elu(pre) if activate else pre
    cache = {
        "h": h, "g": g, "score": score, "alpha": alpha, "pre": pre,
        "activate": activate, "params": params,
    }
    return out, cache


def gat_backward(cache: dict, d_out_grad: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    params = cache["params"]
    h, g = cache["h"], cache["g"]
    alpha, score, pre = cache["alpha"], cache["score"], cache["pre"]
    d_outdim = params["weight"].shape[1]
    a_self, a_neigh = params["att"][:d_outdim], params["att"][d_outdim:]

    d_pre = d_out_grad * elu_grad(pre) if cache["activate"] else d_out_grad
    d_bias = d_pre.sum(axis=0)

    # message term: pre = alpha @ g
    d_g = alpha.T @ d_pre
    d_alpha = d_pre @ g.T

    # softmax over each row; alpha is 0 off the mask, so d_bent is too
    d_bent = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
    d_score = d_bent * np.where(score > 0, 1.0, LEAKY_SLOPE)

    # score[i, j] = a_self . g_i + a_neigh . g_j
    to_center, from_source = d_score.sum(axis=1), d_score.sum(axis=0)
    d_g += np.outer(to_center, a_self) + np.outer(from_source, a_neigh)

    d_weight = h.T @ d_g
    d_h = d_g @ params["weight"].T
    grads = {
        "weight": d_weight,
        "bias": d_bias,
        "att": np.concatenate([to_center @ g, from_source @ g]),
    }
    return d_h, grads


def sage_forward(
    h: np.ndarray,
    params: dict[str, np.ndarray],
    inbound: np.ndarray,
    activate: bool,
) -> tuple[np.ndarray, dict]:
    """Mean over the node and its in-neighbors (the rows of inbound), then a
    dense map."""
    mean = inbound / inbound.sum(axis=1, keepdims=True)
    agg = mean @ h
    z = agg @ params["weight"] + params["bias"]
    out = elu(z) if activate else z
    cache = {"agg": agg, "z": z, "mean": mean, "activate": activate, "params": params}
    return out, cache


def sage_backward(cache: dict, d_out_grad: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    params = cache["params"]
    d_z = d_out_grad * elu_grad(cache["z"]) if cache["activate"] else d_out_grad
    d_weight = cache["agg"].T @ d_z
    d_bias = d_z.sum(axis=0)
    d_h = cache["mean"].T @ (d_z @ params["weight"].T)
    return d_h, {"weight": d_weight, "bias": d_bias}


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


BCE_CLAMP = 1e-7


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def bce_grad_wrt_logits(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d loss / d logit, consistent with the clamp (clamped points go dead)."""
    inside = (probs > BCE_CLAMP) & (probs < 1.0 - BCE_CLAMP)
    return np.where(inside, probs - targets, 0.0) / len(probs)


class Adam:
    """Bias-corrected Adam over a list of parameter dicts.

    The moments and the update run on one flat vector over every parameter
    array, in the order of the gradient dicts; each step writes reshaped
    views of the new vector back into the parameter dicts.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def step(self, params: list[dict[str, np.ndarray]], grads: list[dict[str, np.ndarray]]) -> None:
        self.step_count += 1
        t = self.step_count
        slots = [(layer, name) for layer, grad in zip(params, grads) for name in grad]
        g = np.concatenate([grad[name].ravel() for grad in grads for name in grad])
        if self._m is None:
            self._m = np.zeros_like(g)
            self._v = np.zeros_like(g)
        m = self._m = self.beta1 * self._m + (1 - self.beta1) * g
        v = self._v = self.beta2 * self._v + (1 - self.beta2) * g * g
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        flat = np.concatenate([layer[name].ravel() for layer, name in slots])
        flat = flat - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        ends = np.cumsum([layer[name].size for layer, name in slots])
        for (layer, name), part in zip(slots, np.split(flat, ends[:-1])):
            layer[name] = part.reshape(layer[name].shape)
