"""Counter-based Gaussian noise generator with serializable state.

Each draw is a pure function of a 128-bit key and a 128-bit counter, so a
generator "state" is a tiny token: replaying any past stretch of noise is an
O(1) seek rather than a stored buffer.  Gaussian variates come from an
inverse-CDF transform of the counter-indexed uniforms, so regeneration is
bitwise reproducible (no rejection-sampling history to replay).  Because each
draw depends on its own counter only, a large fill is split into contiguous
chunks computed on the process's CPUs, with the same bits for any split.

State tokens serialize to a fixed 32-byte little-endian layout: 16-byte key
followed by 16-byte counter.
"""

from __future__ import annotations

import dataclasses
import os
import threading

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_ONE_BITS = 0x3FF0000000000000  # float64 1.0

TOKEN_BYTES = 32

# Smallest chunk a fill hands to a thread: a run of fewer than twice this many
# draws is computed on the calling thread alone.
_PARALLEL_MIN_DRAWS = 1 << 15

_pool_lock = threading.Lock()
_pool = None  # (pid, threads, ThreadPoolExecutor), created on first split fill


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(threads: int):
    """The process-wide fill pool, with at least ``threads`` worker threads.

    Rebuilt in a forked child, which has none of its parent's threads.  A pool
    that is replaced is dropped, not shut down: a fill still holding it
    finishes, and its idle threads exit once it is collected.
    """
    global _pool
    with _pool_lock:
        pid = os.getpid()
        if _pool is None or _pool[0] != pid or _pool[1] < threads:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (pid, threads, ThreadPoolExecutor(threads, "bifr-fill"))
        return _pool[2]


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
        """Write standard normals into ``out``, advance the counter.

        ``out`` must be a C-contiguous float64 array, so that its flat view is
        written in place.  The counter advances by ``out.size`` only once every
        draw has been written.
        """
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        flat = out.reshape(-1)
        head = min(flat.size, (1 << 64) - (self._counter & _MASK64))
        self._fill_run(flat[:head], self._counter)
        if head < flat.size:
            self._fill_run(flat[head:], self._counter + head)
        self._counter = (self._counter + flat.size) & _MASK128
        return out

    def _fill_run(self, flat: np.ndarray, counter: int):
        """Draws for counters ``counter`` .. that share one high limb."""
        m = flat.size
        idx, u, t = self._scratch(m)
        keys = (
            np.uint64(counter & _MASK64),
            self._klo,
            np.uint64(self._khi ^ _mix64_int(((counter >> 64) & _MASK64) + _GOLDEN)),
        )
        k = 1
        if m >= 2 * _PARALLEL_MIN_DRAWS:
            k = min(_cpu_count(), m // _PARALLEL_MIN_DRAWS)
        if k == 1:
            _fill_kernel(flat, idx, u, t, *keys)
            return
        cuts = [m * j // k for j in range(k + 1)]
        futures = []
        try:
            pool = _executor(k - 1)
            for a, b in zip(cuts[1:-1], cuts[2:]):
                futures.append(
                    pool.submit(_fill_kernel, flat[a:b], idx[a:b], u[a:b], t[a:b], *keys)
                )
            b = cuts[1]
            _fill_kernel(flat[:b], idx[:b], u[:b], t[:b], *keys)
        finally:
            # Wait for every chunk, even when this thread's chunk failed: no
            # worker may still be writing the scratch once fill returns.
            errors = [f.exception() for f in futures]
        for err in errors:
            if err is not None:
                raise err

    def normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        self.fill(out)
        return out


def _fill_kernel(flat, idx, u, t, clo, klo, khi):
    """Normals for counter offsets ``idx`` from ``clo`` under one high limb.

    Works on its own slices of the caller's arrays only, so disjoint slices may
    run on different threads; numpy and ``ndtri`` release the GIL here.
    """
    with np.errstate(over="ignore"):
        np.add(idx, clo, out=u)
        np.bitwise_xor(u, klo, out=u)
        _mix64_inplace(u, t)
        np.bitwise_xor(u, khi, out=u)
        _mix64_inplace(u, t)
    # A symmetric 52-bit grid, (h + 1/2) * 2^-52 for h < 2^52: exact in
    # float64, strictly inside (0, 1), so ndtri never returns an infinity.
    # The top 52 bits become the mantissa of 1 + h * 2^-52; subtracting
    # 1 - 2^-53 (exact) leaves (2h + 1) * 2^-53, which fits in 53 bits.
    np.right_shift(u, np.uint64(12), out=u)
    np.bitwise_or(u, np.uint64(_ONE_BITS), out=u)
    np.subtract(u.view(np.float64), 1.0 - 2.0**-53, out=flat)
    ndtri(flat, out=flat)


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
