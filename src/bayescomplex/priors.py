"""Prior distributions over model parameters.

Shallow-network prior: weights i.i.d. N(0, sigma_w^2), hidden biases i.i.d.
U([0, M]), output bias N(0, sigma_b^2). Linear-model prior: isotropic
Gaussian over basis coefficients. Defaults follow the k-node convention
M = k, sigma_w^2 = 1/k, sigma_b^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .models import LinearModelParams
from .rng import SeededRng


@dataclass(frozen=True)
class NnPriorSpec:
    sigma_w_sq: float
    M: float
    sigma_b_sq: float

    def __post_init__(self):
        if not (0 < self.sigma_w_sq < math.inf and 0 < self.sigma_b_sq < math.inf):
            raise ConfigError(
                "prior variances must be finite and > 0, got "
                f"sigma_w_sq={self.sigma_w_sq}, sigma_b_sq={self.sigma_b_sq}"
            )
        if not 1 <= self.M < math.inf:
            raise ConfigError(f"hidden-bias range M must be finite and >= 1, got {self.M}")

    @staticmethod
    def default_for(k: int) -> "NnPriorSpec":
        return NnPriorSpec(sigma_w_sq=1.0 / k, M=float(k), sigma_b_sq=1.0)


@dataclass(frozen=True)
class LinearPriorSpec:
    sigma_w_sq: float

    def __post_init__(self):
        if not 0 < self.sigma_w_sq < math.inf:
            raise ConfigError(f"prior variance must be finite and > 0, got {self.sigma_w_sq}")


def sample_linear_prior(spec: LinearPriorSpec, d: int, rng: SeededRng) -> LinearModelParams:
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    gen = rng.generator()
    w = gen.normal(0.0, math.sqrt(spec.sigma_w_sq), size=d)
    return LinearModelParams(tuple(w))
