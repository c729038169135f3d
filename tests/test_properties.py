"""Property tests over random shapes, with a fixed example sequence.

derandomize makes every run draw the same examples, and database=None keeps
no failing examples between runs, so the suite stays deterministic.
Hypothesis still caches the constants it reads from source files under
.hypothesis/, which git ignores.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, random_params, relative_error
from prodmlp import (
    GAUSSIAN_BUMP,
    TANH,
    MlpArch,
    MmlpArch,
    forward,
    pack_params,
    unpack_params,
    weighted_grad_sum,
)


@settings(derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from((MlpArch, MmlpArch)), m=st.integers(1, 4),
       units=st.integers(1, 6), batch=st.integers(1, 9),
       act=st.sampled_from((TANH, GAUSSIAN_BUMP)), seed=st.integers(0, 2**32 - 1))
def test_weighted_grad_sum_matches_finite_differences(family, m, units, batch, act, seed):
    arch = family(units, m=m)
    rng = np.random.default_rng(seed)
    p = random_params(arch, rng)
    xs = rng.uniform(-1.5, 1.5, size=(batch, m))
    coef = rng.normal(size=batch)
    fd = fd_gradient(lambda v: coef @ forward(unpack_params(arch, v), act, xs),
                     pack_params(p))
    assert relative_error(weighted_grad_sum(p, act, xs, coef), fd) < 1e-7
