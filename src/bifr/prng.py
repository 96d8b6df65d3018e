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
finite and |z| <= 8.2095 (the grid's outermost points; on floating-point
samplers and DP see Mironov, CCS 2012).  Because each draw depends on its own
counter only, a large fill is split into contiguous chunks computed on the
process's CPUs, with the same bits for any split.  ``run_tasks`` is that
split's one hand-off to the fill pool; a caller can use it to run whole jobs
of fills in parallel, and a fill inside such a task stays on its thread.

State tokens serialize to a fixed 32-byte little-endian layout: 16-byte key
followed by 16-byte counter.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TOKEN_BYTES = 32

# Smallest chunk a fill hands to a thread: a run of fewer than twice this many
# draws is computed on the calling thread alone.  A 2-way split beat one thread
# from 2^13 draws on a 2-vCPU host, and lost at 2^11.
_PARALLEL_MIN_DRAWS = 1 << 12

_pool_lock = threading.Lock()
_pool = None  # (pid, threads, ThreadPoolExecutor), created on first split fill


class _TaskFlag(threading.local):
    active = False  # True while this thread runs a run_tasks task


_task = _TaskFlag()


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


def split_ways(draws: int) -> int:
    """Threads a job of ``draws`` independent draws is split over.

    min(CPUs, draws // _PARALLEL_MIN_DRAWS), and 1 below 2 * _PARALLEL_MIN_DRAWS
    draws or inside a ``run_tasks`` task, which has its thread to itself.
    """
    if draws < 2 * _PARALLEL_MIN_DRAWS or _task.active:
        return 1
    return min(_cpu_count(), draws // _PARALLEL_MIN_DRAWS)


def run_tasks(task, k: int):
    """Run ``task(0)`` .. ``task(k - 1)``: task 0 on this thread, the rest on the fill pool.

    Returns once every task has finished, even when one failed, and then
    re-raises the first failure in task order.  Inside a task, which may hold a
    pool thread, nothing is submitted: ``split_ways`` is 1 there, and a nested
    ``run_tasks`` runs all its tasks in order on the current thread.  So no
    task waits on the pool it occupies.
    """
    if _task.active:
        errors = []
        for j in range(k):
            try:
                task(j)
            except BaseException as err:
                errors.append(err)
        if errors:
            raise errors[0]
        return
    futures = []
    try:
        if k > 1:
            pool = _executor(k - 1)
            for j in range(1, k):
                futures.append(pool.submit(_run_task, task, j))
        _run_task(task, 0)
    finally:
        # Wait for every task, even when this thread's failed: no worker may
        # still be writing a caller's buffer once run_tasks returns.
        errors = [f.exception() for f in futures]
    for err in errors:
        if err is not None:
            raise err


def _run_task(task, j: int):
    outer = _task.active
    _task.active = True
    try:
        task(j)
    finally:
        _task.active = outer


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

    ``fill(out)`` consumes ``out.size`` counter values.  A call that crosses
    the counter's wrap at 2^128 is split there, so every draw depends only on
    its own counter mod 2^128.
    """

    def __init__(self, token: StateToken):
        self._key = token.key
        self._counter = token.counter
        # One Philox per chunk of a split fill: a bit generator holds a lock,
        # so threads sharing one would take turns.
        self._rngs: list[tuple] = []

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "GaussianStream":
        if not (0 <= seed <= _MASK64 and 0 <= stream <= _MASK64):
            raise ValueError("seed and stream must lie in [0, 2^64)")
        lo = _mix64_int((seed + _GOLDEN) ^ _mix64_int(stream + 1))
        hi = _mix64_int((seed + 2 * _GOLDEN) ^ _mix64_int(stream + 1 + _GOLDEN))
        return cls(StateToken(key=(hi << 64) | lo, counter=0))

    def get_state(self) -> StateToken:
        return StateToken(key=self._key, counter=self._counter)

    def set_state(self, token: StateToken):
        self._key = token.key
        self._counter = token.counter

    def _generators(self, k: int) -> list[tuple]:
        while len(self._rngs) < k:
            bitgen = np.random.Philox(0)
            self._rngs.append((bitgen, np.random.Generator(bitgen), np.empty(3)))
        return self._rngs

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write standard normals into ``out``, advance the counter.

        ``out`` must be a C-contiguous float64 array, so that its flat view is
        written in place.  The counter advances by ``out.size`` only once every
        draw has been written.
        """
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        flat = out.reshape(-1)
        head = min(flat.size, (1 << 128) - self._counter)
        self._fill_run(flat[:head], self._counter)
        if head < flat.size:
            self._fill_run(flat[head:], 0)
        self._counter = (self._counter + flat.size) & _MASK128
        return out

    def _fill_run(self, flat: np.ndarray, counter: int):
        """Draws for counters ``counter`` .. that stay below 2^128."""
        m = flat.size
        key = [self._key & _MASK64, self._key >> 64]
        k = split_ways(m)
        rngs = self._generators(k)
        if k == 1:
            _fill_kernel(flat, rngs[0], key, counter)
            return
        cuts = [m * j // k for j in range(k + 1)]
        run_tasks(functools.partial(_fill_chunk, flat, cuts, rngs, key, counter), k)

    def normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        self.fill(out)
        return out


def _fill_chunk(flat, cuts, rngs, key, counter, j):
    """Chunk j of a split fill, flat[cuts[j]:cuts[j + 1]], with generator j."""
    a, b = cuts[j], cuts[j + 1]
    _fill_kernel(flat[a:b], rngs[j], key, counter + a)


def _fill_kernel(flat, rng, key, counter):
    """Normals for counters ``counter`` .. ``counter + flat.size - 1``.

    ``rng`` is one (Philox, Generator, lane scratch) triple, used by one thread
    at a time; numpy and ``ndtri`` release the GIL here.
    """
    bitgen, gen, lanes = rng
    # numpy steps the counter before it computes a block, so block c // 4 comes
    # first from counter c // 4 - 1 (2^256 - 1, all words set, for block 0).
    block = (counter >> 2) - 1
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": [(block >> s) & _MASK64 for s in (0, 64, 128, 192)],
            "key": key,
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if counter & 3:
        gen.random(out=lanes[: counter & 3])  # skip the block's earlier lanes
    gen.random(out=flat)
    _uniform_to_normal(flat)


def _uniform_to_normal(flat):
    """``Generator.random`` output, (x >> 11) * 2^-53, to normals in place.

    Each value moves to the symmetric 52-bit grid point (floor(u * 2^52) + 1/2)
    * 2^-52 = ((x >> 12) + 1/2) * 2^-52, every step exact in float64.  The grid
    lies strictly inside (0, 1), so ``ndtri`` never returns an infinity.
    """
    np.multiply(flat, 2.0**52, out=flat)
    np.floor(flat, out=flat)
    np.add(flat, 0.5, out=flat)
    np.multiply(flat, 2.0**-52, out=flat)
    ndtri(flat, out=flat)
