"""Counter-based Gaussian noise generator with serializable state.

Each draw is a pure function of a 128-bit key and a 128-bit counter, so a
generator "state" is a tiny token: replaying any past stretch of noise is an
O(1) seek rather than a stored buffer.  Gaussian variates come from an
inverse-CDF transform of the counter-indexed uniforms, so regeneration is
bitwise reproducible (no rejection-sampling history to replay).

State tokens serialize to a fixed 32-byte little-endian layout: 16-byte key
followed by 16-byte counter.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TOKEN_BYTES = 32


def _mix64_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _M1) & _MASK64
    x = ((x ^ (x >> 27)) * _M2) & _MASK64
    return x ^ (x >> 31)


@dataclasses.dataclass(frozen=True)
class StateToken:
    """Opaque (key, counter) snapshot of a generator."""

    key: int
    counter: int

    def __post_init__(self):
        if not 0 <= self.key <= _MASK128 or not 0 <= self.counter <= _MASK128:
            raise ValueError("key and counter must be 128-bit unsigned integers")

    def advanced(self, draws: int) -> "StateToken":
        """The token ``draws`` counter values further along the same key."""
        return StateToken(key=self.key, counter=(self.counter + draws) & _MASK128)

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

    ``fill(out)`` consumes ``out.size`` counter values.  Counters within one
    call are vectorized as low-limb offsets; a call that crosses a low-limb
    boundary is split there, so the offsets carry into the high limb and every
    draw depends only on its own 128-bit counter.
    """

    def __init__(self, token: StateToken):
        self._key = token.key
        self._counter = token.counter
        self._klo = np.uint64(token.key & _MASK64)
        self._khi = token.key >> 64
        self._idx: np.ndarray | None = None  # uint64 arange scratch
        self._u: np.ndarray | None = None  # uint64 working scratch
        self._t: np.ndarray | None = None  # uint64 shift scratch

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "GaussianStream":
        lo = _mix64_int((seed + _GOLDEN) ^ _mix64_int(stream + 1))
        hi = _mix64_int((seed + 2 * _GOLDEN) ^ _mix64_int(stream + 1 + _GOLDEN))
        return cls(StateToken(key=(hi << 64) | lo, counter=0))

    def get_state(self) -> StateToken:
        return StateToken(key=self._key, counter=self._counter)

    def set_state(self, token: StateToken):
        if token.key != self._key:
            self._klo = np.uint64(token.key & _MASK64)
            self._khi = token.key >> 64
        self._key = token.key
        self._counter = token.counter

    def _scratch(self, m: int):
        # Grow only: callers that alternate between sizes reuse one allocation.
        if self._idx is None or self._idx.size < m:
            self._idx = np.arange(m, dtype=np.uint64)
            self._u = np.empty(m, dtype=np.uint64)
            self._t = np.empty(m, dtype=np.uint64)
        return self._idx[:m], self._u[:m], self._t[:m]

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write standard normals into ``out`` (flat float64), advance counter."""
        flat = out.reshape(-1)
        head = min(flat.size, (1 << 64) - (self._counter & _MASK64))
        self._fill_run(flat[:head])
        if head < flat.size:
            self._fill_run(flat[head:])
        return out

    def _fill_run(self, flat: np.ndarray):
        """Draws for counters that share one high limb."""
        m = flat.size
        idx, u, t = self._scratch(m)
        clo = self._counter & _MASK64
        chi = (self._counter >> 64) & _MASK64
        with np.errstate(over="ignore"):
            np.add(idx, np.uint64(clo), out=u)
            np.bitwise_xor(u, self._klo, out=u)
            _mix64_inplace(u, t)
            np.bitwise_xor(u, np.uint64(self._khi ^ _mix64_int(chi + _GOLDEN)), out=u)
            _mix64_inplace(u, t)
        np.right_shift(u, np.uint64(11), out=u)
        np.copyto(flat, u, casting="unsafe")
        np.add(flat, 0.5, out=flat)
        np.multiply(flat, 2.0**-53, out=flat)
        ndtri(flat, out=flat)
        self._counter = (self._counter + m) & _MASK128

    def normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        self.fill(out)
        return out


def _mix64_inplace(x: np.ndarray, t: np.ndarray):
    """SplitMix64 finalizer, vectorized and allocation-free."""
    np.right_shift(x, np.uint64(30), out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, np.uint64(_M1), out=x)
    np.right_shift(x, np.uint64(27), out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, np.uint64(_M2), out=x)
    np.right_shift(x, np.uint64(31), out=t)
    np.bitwise_xor(x, t, out=x)
