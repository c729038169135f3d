"""Singular 2D target functions and the sampling scheme used to fit them.

Both targets are radial, defined on all of R^2, and bounded in [0, 1].  Each
carries a localized loss of smoothness: a thin tanh transition layer on a
circle, and a cone-like Hoelder kink radiating from the origin.  Training data
is sampled uniformly from the square [-1, 1]^2.
"""

from dataclasses import dataclass

import numpy as np

from ._seeds import ROLE_DATA, stream

__all__ = [
    "MollifiedCircle",
    "RadialCone",
    "target_by_name",
    "sample_uniform",
]


def _radius(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)


@dataclass(frozen=True)
class MollifiedCircle:
    """Smoothed indicator of the disk of radius r0.

    f(x) = (1 + tanh((r0 - |x|) / eps)) / 2.  Values are pinned to (0, 1),
    roughly 1 inside the circle, roughly 0 outside, with a transition layer of
    width ~eps around |x| = r0.
    """

    r0: float = 0.5
    eps: float = 0.05

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.r0 > 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")

    def __call__(self, x) -> np.ndarray:
        return 0.5 * (1.0 + np.tanh((self.r0 - _radius(x)) / self.eps))


@dataclass(frozen=True)
class RadialCone:
    """Hoelder-type cone: f(x) = max(1 - |x|, 0) ** beta.

    The tip is a first-order kink (f ~ 1 - beta |x| near 0), so f is not C^1
    at the origin.  Where the support meets |x| = 1 the radial profile
    (1 - r)^beta is C^{1, beta - 1} for beta in (1, 2): C^1 but not C^2.
    """

    beta: float = 1.8

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def __call__(self, x) -> np.ndarray:
        return np.maximum(1.0 - _radius(x), 0.0) ** self.beta


TargetFunction = MollifiedCircle | RadialCone

_PRESETS = {"circle": MollifiedCircle, "cone": RadialCone}


def target_by_name(name: str) -> TargetFunction:
    """Build a preset target ("circle" or "cone") with its default parameters."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown target preset {name!r}; expected one of {sorted(_PRESETS)}")


def sample_uniform(target, n: int, seed: int):
    """Draw n points uniformly from [-1, 1]^2 and evaluate the target on them.

    Returns (points, values) with shapes (n, 2) and (n,).  The point stream is
    produced by a counter-based generator keyed by the seed, so point i is the
    same for every n >= i+1: requesting a longer stream extends the shorter
    one instead of reshuffling it.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = stream(seed, ROLE_DATA)
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    return pts, np.asarray(target(pts), dtype=float)
