"""Adam (Kingma & Ba 2015) with bias correction and coupled L2 weight decay.

The update works on the flat vectors of ``ModelParams`` and ``AdamState``
in place, with the gradient vector as its second scratch vector: a step
allocates nothing, and the parameters it is given are the parameters it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer and loop settings; defaults match the reference training setup."""

    learning_rate: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 128
    epochs: int = 30
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")


@dataclass
class AdamState:
    """Flat first/second moment estimates, the step counter and one scratch
    vector, each laid out like ``ModelParams.flat``. The step's other scratch
    vector is the gradient vector it is given."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        n = params.flat.size
        return cls(0, np.zeros(n), np.zeros(n), scratch=np.empty(n))


def adam_step(
    params: ModelParams,
    gradients: ModelParams,
    state: AdamState,
    config: TrainingConfig,
) -> tuple[ModelParams, AdamState]:
    """One update of ``params`` and ``state`` in place; returns them both.

    ``gradients.flat`` is overwritten: it holds ``g`` and then the step that
    was subtracted from the parameters. Weight decay enters the gradient before
    the moment updates. Each line below is one operation of

        g = grad + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)

    in this order, so the result is bit for bit that of the formula
    evaluated with a fresh array per intermediate.
    """
    state.step += 1
    bc1 = 1.0 - config.beta1**state.step
    bc2 = 1.0 - config.beta2**state.step
    p, m, v, g, s = params.flat, state.m, state.v, gradients.flat, state.scratch
    np.multiply(config.weight_decay, p, out=s)
    np.add(g, s, out=g)
    np.multiply(config.beta1, m, out=m)
    np.multiply(1.0 - config.beta1, g, out=s)
    np.add(m, s, out=m)
    np.multiply(config.beta2, v, out=v)
    np.multiply(1.0 - config.beta2, g, out=s)
    np.multiply(s, g, out=s)
    np.add(v, s, out=v)
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    np.add(s, config.epsilon, out=s)
    np.divide(m, bc1, out=g)
    np.multiply(config.learning_rate, g, out=g)
    np.divide(g, s, out=g)
    np.subtract(p, g, out=p)
    return params, state
