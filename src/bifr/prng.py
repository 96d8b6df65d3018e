"""Counter-based Gaussian noise generator with serializable state.

Each draw is a pure function of a 128-bit key and a 128-bit counter, so a
generator "state" is a tiny token: replaying any past stretch of noise is an
O(1) seek rather than a stored buffer.  The counter generator is numpy's
``np.random.Philox``, Philox4x64-10 (Salmon et al., SC 2011): draw c is lane
c % 4 of the Philox block at counter c // 4 under the token's key, whose low
and high 64 bits are Philox's two key words.  Gaussian variates come from an
inverse-CDF transform of those uniforms, so regeneration is bitwise
reproducible (no rejection-sampling history to replay).

Each 64-bit output x becomes the uniform (floor(x / 2^12) + 1/2) * 2^-52, a
point of a symmetric 52-bit grid strictly inside (0, 1), so every normal is
finite and |z| <= 8.20954 (the grid's outermost points; on floating-point
samplers and DP see Mironov, CCS 2012).  A stream owns one Philox and fills
on its calling thread, whatever the fill's size.  It builds Philox's state
once per key, in ``set_state``; a seek stores only the counter, and a fill
writes the block counter into that state and loads it.

``ndtri`` is the one thing bifr takes from scipy, and importing
``scipy.special`` would be two thirds of ``import bifr``.  So it is imported
at the process's first fill, and ``coeffs``, ``rmse``, ``sweep``, ``compare``
and ``verify``, which never draw, never import scipy.  A fill binds it before
it writes ``out`` or moves the counter: a failed import draws nothing.

State tokens serialize to a fixed 32-byte little-endian layout: 16-byte key
followed by 16-byte counter.  A counter never wraps: 2^128 - 1 is the last
one a token or a stream may stand at, so no counter is drawn twice under a
key, and a fill or a seek that would go past it raises.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TOKEN_BYTES = 32

# |z| of a drawn normal is at most |ndtri(2^-53)| = 8.2095362, at the 52-bit
# grid's outermost points; 8.21 bounds it with room for rounding.
_NORMAL_BOUND = 8.21

_ndtri = None  # scipy.special.ndtri, bound by _bind_ndtri at the first fill

# The grid map's operands as read-only 0-d arrays (``broadcast_to`` returns a
# read-only view): a ufunc converts a Python float operand on every call.
_TWO52, _HALF, _TWO_M52 = (np.broadcast_to(v, ()) for v in (2.0**52, 0.5, 2.0**-52))


def _bind_ndtri():
    """Import ``scipy.special.ndtri`` into ``_ndtri``, once per process.

    First fills that race on separate threads are safe: the import lock
    serializes their imports, and each binds the same function.
    """
    global _ndtri
    if _ndtri is None:
        from scipy.special import ndtri

        _ndtri = ndtri


def _mix64_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _M1) & _MASK64
    x = ((x ^ (x >> 27)) * _M2) & _MASK64
    return x ^ (x >> 31)


@dataclasses.dataclass(frozen=True)
class StateToken:
    """Opaque (key, counter) snapshot of a generator; both are stored as Python ints."""

    key: int = dataclasses.field(repr=False)  # fixes every draw, so no repr shows it
    counter: int

    def __post_init__(self):
        object.__setattr__(self, "key", operator.index(self.key))
        object.__setattr__(self, "counter", operator.index(self.counter))
        if not 0 <= self.key <= _MASK128 or not 0 <= self.counter <= _MASK128:
            raise ValueError("key and counter must be 128-bit unsigned integers")

    def to_bytes(self) -> bytes:
        return self.key.to_bytes(16, "little") + self.counter.to_bytes(16, "little")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StateToken":
        if len(raw) != TOKEN_BYTES:
            raise ValueError(f"state token must be {TOKEN_BYTES} bytes, got {len(raw)}")
        return cls(
            key=int.from_bytes(raw[:16], "little"),
            counter=int.from_bytes(raw[16:], "little"),
        )


class GaussianStream:
    """Deterministic stream of standard normals driven by a counter.

    ``fill(out)`` consumes ``out.size`` counter values, and ``seek(counter)``
    moves to any counter under the stream's key.  The counter ends at
    2^128 - 1: a fill or seek that would move it further raises
    ``ValueError`` and draws nothing, so the stream never returns to counter 0
    and never draws a counter twice.
    """

    def __init__(self, token: StateToken):
        self.set_state(token)
        bitgen = np.random.Philox(0)
        self._rng = (bitgen, np.random.Generator(bitgen), np.empty(3))

    @classmethod
    def from_seed(cls, seed: int) -> "GaussianStream":
        return cls(_seed_token(seed, 0))

    def get_state(self) -> StateToken:
        return StateToken(key=self._key, counter=self._counter)

    def set_state(self, token: StateToken):
        self._key = token.key
        # Philox's state under this key; a fill writes only the block counter.
        self._philox_state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": (token.key & _MASK64, token.key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.seek(token.counter)

    def seek(self, counter: int):
        """Stand at ``counter`` under the stream's key, any integer type taken as its int."""
        counter = operator.index(counter)
        if not 0 <= counter <= _MASK128:
            raise ValueError(f"counter must lie in [0, 2^128 - 1], got {counter}")
        self._counter = counter

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write standard normals into ``out``, advance the counter.

        ``out`` must be a C-contiguous float64 array, so that it is written in
        place in its memory order, and the counter after the fill must not pass
        2^128 - 1; otherwise ``ValueError`` is raised before ``out`` or the
        counter changes.  The counter advances by ``out.size`` only once every
        draw has been written.
        """
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        if out.size > _MASK128 - self._counter:
            raise ValueError(
                f"a fill of {out.size} draws from counter {self._counter} "
                "would pass the last counter, 2^128 - 1"
            )
        if _ndtri is None:
            _bind_ndtri()
        _fill_kernel(out, self._rng, self._philox_state, self._counter)
        self._counter += out.size
        return out

    def normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        self.fill(out)
        return out


def _seed_token(seed: int, stream: int) -> StateToken:
    """The origin of substream ``stream`` of ``seed``; stream 0 is ``from_seed(seed)``'s.

    Any integer type is taken as its Python int, so an ``np.int64`` seed gives
    the bits of the same ``int`` seed.
    """
    seed, stream = operator.index(seed), operator.index(stream)
    if not (0 <= seed <= _MASK64 and 0 <= stream <= _MASK64):
        raise ValueError("seed and stream must lie in [0, 2^64)")
    lo = _mix64_int((seed + _GOLDEN) ^ _mix64_int(stream + 1))
    hi = _mix64_int((seed + 2 * _GOLDEN) ^ _mix64_int(stream + 1 + _GOLDEN))
    return StateToken(key=(hi << 64) | lo, counter=0)


def _fill_kernel(out, rng, state, counter):
    """Normals for counters ``counter`` .. ``counter + out.size - 1``, into ``out``.

    ``rng`` is the stream's (Philox, Generator, lane scratch) triple and
    ``state`` the Philox state dict its ``set_state`` built for the key.
    numpy and ``ndtri`` release the GIL here, so streams on separate threads
    fill in parallel.
    """
    bitgen, gen, lanes = rng
    # numpy steps the counter before it computes a block, so block c // 4 comes
    # first from counter c // 4 - 1 (2^256 - 1, all words set, for block 0).
    block = (counter >> 2) - 1
    words = state["state"]["counter"]
    if block < 0:
        words[:] = _MASK64, _MASK64, _MASK64, _MASK64
    else:
        words[:] = block & _MASK64, block >> 64, 0, 0
    bitgen.state = state
    if counter & 3:
        gen.random(out=lanes[: counter & 3])  # skip the block's earlier lanes
    gen.random(out=out)
    _uniform_to_normal(out)


def _uniform_to_normal(out):
    """``Generator.random`` output, (x >> 11) * 2^-53, to normals in place.

    Each value moves to the symmetric 52-bit grid point (floor(u * 2^52) + 1/2)
    * 2^-52 = ((x >> 12) + 1/2) * 2^-52, every step exact in float64.  The grid
    lies strictly inside (0, 1), so ``ndtri`` never returns an infinity.
    Needs ``_bind_ndtri`` to have run, as every fill does first.
    """
    np.multiply(out, _TWO52, out=out)
    np.floor(out, out=out)
    np.add(out, _HALF, out=out)
    np.multiply(out, _TWO_M52, out=out)
    _ndtri(out, out=out)
