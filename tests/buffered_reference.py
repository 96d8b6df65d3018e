"""Vector-buffer reference for the streaming engine.

It keeps the last bandwidth-1 raw noise vectors, the memory the engine saves
by regenerating them from its origin.  Tests compare the engine with it bit
for bit.
"""

import collections

import numpy as np

from bifr.catalog import inverse_band
from bifr.prng import GaussianStream


def buffered_noise(spec, dim, noise_scale, origin, n):
    """The engine's n x dim outputs on zero inputs, from buffered vectors.

    Each step draws one fresh vector from the stream at ``origin`` (a
    ``StateToken``, Z_0's state), then adds the buffered ones oldest first
    and the fresh one last, in the engine's order.
    """
    weights = inverse_band(spec)[1:]
    gen = GaussianStream(origin)
    window = collections.deque(maxlen=weights.size)  # raw vectors, oldest first
    out = np.zeros((n, dim))
    for i in range(n):
        for age, z in zip(range(len(window), 0, -1), window):
            out[i] += noise_scale * weights[age - 1] * z
        z = gen.normal(dim)
        out[i] += noise_scale * z
        window.append(z)
    return out
