"""Streaming correlated-noise engine with generator-state regeneration.

For banded-inverse factorizations the privatized step output is

    x_hat_i = x_i + s * sum_k w_k * Z_{i-k} + s * Z_i,

where the w_k are the inverse-band coefficients and the Z are i.i.d. Gaussian
vectors.  Instead of buffering the last bandwidth-1 noise vectors, the engine
keeps one generator state token, the origin of Z_0, and regenerates the old
vectors on every step, so memory overhead is O(1) vectors plus that token.

Z_j occupies counters j*dim .. (j+1)*dim - 1 of one stream, so the window of
old vectors and the fresh one is a single contiguous counter range, a pure
function of the origin and the step.  One routine adds it to the output: the
output is cut into k contiguous column slabs, k = 1 for dim < 2^13 and else
min(CPUs, dim // 2^12), slab 0 on the calling thread and the rest on the
engine's slab pool, and each slab draws the window rows oldest first
in pieces of at most 2^13 draws, each scaled in one multiply.  A piece
holds c = min(p, 4096 // dim) whole rows of a full-width slab when c > 1,
summed with a leading row that holds the output, or else part of one row,
added by one ``+=``.  The whole rows are summed by one ``np.add.reduce``
over the rows when dim >= 2, since numpy makes a C-order block's reduced
axis the outer loop and so adds the rows in order; at dim = 1 that axis is
contiguous and numpy would sum it pairwise, so there one in-place
``np.add.accumulate`` adds the rows one by one.  Either way every output
element gets its rows oldest first, and the output is bit-identical to
``engine_dense_reference`` for any k.  A slab of whole-row pieces seeks
once per step, to origin + (i - rows + 1)*dim; any other slab seeks to its
first column at each row.

So the engine state is five values, spec, dim, noise scale, origin and step,
plus scratch derived from them: those five are a complete checkpoint.  No
noise vector is stored, and each slab's draw scratch holds at most 2^13
draws (64 KiB) whatever the dim, so k slabs of part-row pieces hold at most
k * 64 KiB, never more than about one vector; ``CorrelatorState.stats()``
reports its bytes.
The tests hold a vector-buffer reference that keeps the last bandwidth-1 raw
vectors, and the engine matches it bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import secrets
import sys
import threading

import numpy as np

from .calibration import PrivacyBudget, gaussian_sigma
from .catalog import FactorizationSpec, inverse_band, strategy_coeffs
from .prng import (
    _MASK128,
    _NORMAL_BOUND,
    TOKEN_BYTES,
    GaussianStream,
    StateToken,
    _seed_token,
)
from .sensitivity import ParticipationSchema, sens_exact

# Fewest draws per column slab: a row of fewer than twice this many is one
# slab, on the calling thread.  Set when fills split: 2 threads beat one from
# 2^13 draws on a 2-vCPU host, and lost at 2^11.
_SLAB_MIN_DRAWS = 1 << 12
_BLOCK_DRAWS = 4096  # most draws in a piece of several whole rows
# Most draws in a piece of part of one row: 64 KiB of scratch per column
# slab, and never more than about one vector over all k slabs.  On a
# 2-vCPU host, train-wide's step (p = 16, d = 2^17) took 3% longer at its
# fastest than with pieces of 2^16 // k draws on one slab and 6% on two, for
# a quarter of the scratch; 2^12 and 2^11 took 1.33x and 2x as long on two.
_PIECE_DRAWS = 1 << 13
# Rows a Monte Carlo trial draws, filters and reduces per block (at least p + 1).
# Each column's squares are summed pairwise within a block, so the estimate's
# last bits depend on this value once n exceeds it.
_TRIAL_ROWS = 256

_pool_lock = threading.Lock()
_pool = None  # (threads, ThreadPoolExecutor), created on the first slab hand-off
_fork_generation = 0  # bumped in each forked child; a state steps only in the one it was built in


def _after_fork_in_child():
    """Drop what the parent's threads own: the pool, and the lock one may have held."""
    global _fork_generation, _pool, _pool_lock
    _fork_generation += 1
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # every platform that can fork
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(threads: int):
    """The process-wide slab pool, with at least ``threads`` worker threads.

    A forked child has none of its parent's threads, so the at-fork hook
    hands it no pool and a fresh lock: its first slab hand-off builds its own
    pool, and never waits on a lock a parent thread held at the fork.  A
    pool that is replaced is dropped, not shut down: a step still holding it
    finishes, and its idle threads exit once it is collected.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < threads:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (threads, ThreadPoolExecutor(threads, "bifr-task"))
        return _pool[1]


@dataclasses.dataclass(eq=False)
class CorrelatorState:
    """Mutable state of the streaming engine, stepped by one caller at a time.

    The init fields fix every noise bit the engine releases, so they are its
    checkpoint; the rest is scratch derived from them.  A restored state is
    refused unless 0 <= step <= spec.n and the horizon's counters, origin ..
    origin + spec.n*dim, fit in the stream, which ends at 2^128 - 1.  A
    noise scale is refused unless its noise stays finite.  States compare
    by identity, and no repr shows the origin, whose key fixes every noise bit.
    A state is never copied, and a forked child cannot step its parent's
    states: either twin would release the same noise as the other.
    """

    spec: FactorizationSpec
    dim: int
    noise_scale: float
    origin: StateToken = dataclasses.field(repr=False)  # Z_0's state; Z_j starts j*dim draws on
    step: int = 0
    # noise_scale * [w_{p-1} .. w_1, 1]: the scale of each window row, oldest first
    _scales: np.ndarray = dataclasses.field(init=False, repr=False)
    # Scratch stream: every step seeks it, and after a step it stands at the
    # end of that step's window, origin + step*dim.
    gen: GaussianStream = dataclasses.field(init=False, repr=False)
    # Column slabs (lo, hi, stream), k >= 1 of them; the last slab's stream is
    # gen, whose counter so ends each step at the window's end.
    _slabs: tuple[tuple[int, int, GaussianStream], ...] = dataclasses.field(init=False, repr=False)
    # Draw scratch, one (rows, width) piece per slab: c whole rows under a
    # leading row for the output when c = min(p, 4096 // dim) > 1 (then
    # k = 1), else one row of min(ceil(dim / k), 2^13) draws.  At most 2^13
    # draws per slab.
    _zbuf: np.ndarray = dataclasses.field(init=False, repr=False)
    # The scales spread over a piece's c rows (no rows when c = 1).  A ufunc
    # broadcasting a column over a small block allocates an iterator buffer
    # per call; np.copyto into this scratch does not.  Built holding the
    # newest c rows' scales, which are every step's when the p-row window
    # fits one piece; a longer window copies each piece's in.
    _scale_rows: np.ndarray = dataclasses.field(init=False, repr=False)
    # Held by the step in progress: a second caller is refused, not queued.
    _lock: threading.Lock = dataclasses.field(init=False, repr=False)
    _fork_generation: int = dataclasses.field(init=False, repr=False)  # the one it was built in

    def __post_init__(self):
        band = inverse_band(self.spec)  # refuses a method without a banded inverse
        # Python ints, so counter arithmetic never meets a fixed-width integer
        self.dim, self.step = operator.index(self.dim), operator.index(self.step)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        peak = _NORMAL_BOUND * float(np.abs(band).sum())  # no unit noise passes it (prng)
        self.noise_scale = _check_noise_scale(self.noise_scale, peak)
        if not 0 <= self.step <= self.spec.n:
            raise ValueError(f"step {self.step} is outside [0, {self.spec.n}], the spec's horizon")
        if self.origin.counter + self.spec.n * self.dim > _MASK128:
            raise ValueError(
                f"the horizon's {self.spec.n} x {self.dim} draws from origin counter "
                f"{self.origin.counter} would pass the stream's last counter, 2^128 - 1"
            )
        self._scales = self.noise_scale * band[::-1]
        self.gen = GaussianStream(self.origin)
        k = 1 if self.dim < 2 * _SLAB_MIN_DRAWS else min(_cpu_count(), self.dim // _SLAB_MIN_DRAWS)
        cuts = [self.dim * j // k for j in range(k + 1)]
        gens = [GaussianStream(self.origin) for _ in range(k - 1)] + [self.gen]
        self._slabs = tuple(zip(cuts, cuts[1:], gens))
        c = min(self._scales.size, max(1, _BLOCK_DRAWS // self.dim))
        width = min(-(-self.dim // k), _PIECE_DRAWS)
        self._zbuf = np.empty((k, c + (c > 1), width))
        self._scale_rows = np.empty((c if c > 1 else 0, width))
        np.copyto(self._scale_rows, self._scales[self._scales.size - len(self._scale_rows) :, None])
        self._lock = threading.Lock()
        self._fork_generation = _fork_generation

    def __copy__(self):
        raise TypeError("a CorrelatorState cannot be copied: the copy would release the same noise")

    def stats(self) -> dict[str, int]:
        """What the engine has released and what it holds, computed on call.

        ``step`` and ``horizon_left`` (``spec.n - step``); ``fresh_draws`` and
        ``regenerated_draws`` over the steps taken (a step that raised counts
        for nothing); ``state_bytes``, the origin token, the scaled band and
        the draw scratch: every byte the engine keeps between steps.
        """
        p1, step = self._scales.size - 1, self.step
        # step i regenerates min(i, p-1) rows: 0, 1, .., m-1, then p-1 per step
        m = min(step, p1)
        regenerated = m * (m - 1) // 2 + p1 * (step - m)
        scratch = self._zbuf.nbytes + self._scale_rows.nbytes
        return dict(
            step=step,
            horizon_left=self.spec.n - step,
            fresh_draws=self.dim * step,
            regenerated_draws=self.dim * regenerated,
            state_bytes=TOKEN_BYTES + self._scales.nbytes + scratch,
        )


def _check_noise_scale(noise_scale: float, unit_peak: float) -> float:
    """The one way a noise scale enters: as a float, -0.0 as 0.0, and finite times ``unit_peak``.

    A NaN, infinite or negative scale is refused, and so is one whose noise may
    overflow: ``unit_peak`` bounds the largest value computed from unit noise.
    """
    try:
        noise_scale = float(noise_scale)
    except OverflowError:  # an int past the largest float
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}") from None
    if not 0.0 <= noise_scale < math.inf:
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    if not math.isfinite(noise_scale * unit_peak):
        raise ValueError(f"noise_scale {noise_scale} is too large: its noise could overflow")
    return abs(noise_scale)  # -0.0 passes the check above


def engine_init(
    spec: FactorizationSpec, dim: int, noise_scale: float, seed: int | None = None
) -> CorrelatorState:
    """Set up a correlator for a banded-inverse factorization.

    Without a ``seed`` the stream key is 128 fresh bits from ``secrets``, so two
    engines never release the same noise; a seed is an explicit choice made
    for reproducibility.
    """
    if seed is None:
        origin = StateToken(key=secrets.randbits(128), counter=0)
    else:
        origin = _seed_token(seed, 0)
    return CorrelatorState(spec=spec, dim=dim, noise_scale=noise_scale, origin=origin)


def engine_step(
    state: CorrelatorState, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Privatize one aggregated vector; mutates the engine state.

    Raises ``ValueError`` unless 0 <= ``state.step`` < ``spec.n``: the noise
    scale was calibrated for the sensitivity over that horizon only.  A state
    takes one caller at a time: a call made while another is stepping the
    same state raises ``RuntimeError`` and changes nothing, as does a call
    in a process forked after the state was built.  A step
    that raises once drawing began fills ``out`` with NaN, so no column of
    it holds x without its noise, and leaves ``step`` and ``gen`` where they
    were: a retry draws the same window.  With ``out`` supplied, a warm step
    allocates nothing of a row's size (dim floats): only views and, on a
    multi-slab step, its pool futures.  ``out`` must be a float64 array of
    shape (dim,): a narrower dtype would round each added row, and
    differently in whole-row and part-row pieces.
    """
    if state._fork_generation != _fork_generation:
        raise RuntimeError("this state was built before a fork: a forked child cannot step it")
    if not state._lock.acquire(False):  # never waits
        raise RuntimeError("another engine_step is running on this state")
    try:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (state.dim,):
            raise ValueError(f"expected input of shape ({state.dim},), got {x.shape}")
        if not 0 <= state.step < state.spec.n:
            raise ValueError(
                f"step {state.step} is outside the horizon [0, {state.spec.n}) "
                "of the spec"
            )
        if out is None:
            out = x.copy()
        elif out.dtype != np.float64 or out.shape != (state.dim,):
            raise ValueError(f"out must be a float64 array of shape ({state.dim},)")
        else:
            np.copyto(out, x)
        i, p1 = state.step, state._scales.size - 1
        rows = min(i, p1) + 1
        scales = state._scales[p1 + 1 - rows :]
        try:
            _add_slabs(state, out, i + 1 - rows, scales)
        except BaseException:
            # out may hold x in columns no noise reached yet: release nothing of it
            out.fill(np.nan)
            state.gen.seek(state.origin.counter + i * state.dim)
            raise
        state.step += 1
        return out
    finally:
        state._lock.release()


def _add_slabs(state: CorrelatorState, out: np.ndarray, first: int, scales: np.ndarray):
    """Run ``_add_rows`` on every column slab: slab 0 on this thread, the rest on the slab pool.

    Returns once every slab has finished, even when one failed, and then
    re-raises the first failure in slab order.  One slab is a plain call.
    """
    k = len(state._slabs)
    if k == 1:
        _add_rows(state, out, first, scales, 0)
        return
    futures, errors = [], []
    try:
        pool = _executor(k - 1)
        for j in range(1, k):
            futures.append(pool.submit(_add_rows, state, out, first, scales, j))
        try:
            _add_rows(state, out, first, scales, 0)
        except BaseException as err:
            errors.append(err)
    finally:
        # Wait for every slab, even when this thread's failed: no worker may
        # still be writing ``out`` once the step returns.
        errors += filter(None, [f.exception() for f in futures])
    if errors:
        raise errors[0]


def _add_rows(state: CorrelatorState, out: np.ndarray, first: int, scales: np.ndarray, j: int):
    """Add window rows Z_first, Z_first+1, .. times ``scales`` to column slab j of ``out``.

    Oldest row first, one scratch piece at a time.  A piece of m <= c rows
    fills the last m rows of the slab's scratch: with m > 1 they are whole
    rows, the row above them takes ``out``, and the m + 1 rows are summed
    into ``out`` in row order; with m = 1 it is part of one row, added by one
    +=.  The row-order sum is one ``np.add.reduce`` over the rows when
    dim >= 2: numpy makes a C-order block's reduced axis the outer loop, so
    each column adds its rows oldest first.  At dim = 1 that axis is the
    contiguous one, which numpy sums pairwise, so there the rows take an
    in-place ``np.add.accumulate``, which adds them one by one.  Pieces of
    c > 1 rows follow on from one seek; pieces of one row seek to the slab's
    first column.
    """
    lo, hi, gen = state._slabs[j]
    c = len(state._scale_rows) or 1
    for r in range(0, scales.size, c):
        if r == 0 or c == 1:
            gen.seek(state.origin.counter + (first + r) * state.dim + lo)
        m = min(c, scales.size - r)
        for a in range(lo, hi, state._zbuf.shape[2]):
            z = state._zbuf[j, -m:, : hi - a]
            gen.fill(z)
            if m == 1:
                np.multiply(z, scales[r], out=z)
                out[a : a + z.size] += z[0]
            else:  # whole rows of the one slab: z spans all of out
                scale_rows = state._scale_rows[-m:]
                if c < state._scales.size:
                    np.copyto(scale_rows, scales[r : r + m, None])
                np.multiply(z, scale_rows, out=z)
                acc = state._zbuf[j, -m - 1 :]
                np.copyto(acc[0], out)
                if state.dim > 1:  # rows in order: the reduced axis is the outer loop
                    np.add.reduce(acc, axis=0, out=out)
                else:  # a (rows, 1) reduce runs down a contiguous axis, pairwise
                    np.add.accumulate(acc, axis=0, out=acc)
                    np.copyto(out, acc[-1])


def engine_dense_reference(
    spec: FactorizationSpec, dim: int, noise_scale: float, seed: int, n: int
) -> np.ndarray:
    """Oracle: materialize the inverse band, replay the same noise, multiply.

    Returns the n x dim outputs the engine produces on zero inputs.  Uses the
    same generator discipline and the same oldest-first accumulation order as
    the streaming engine, so the result is bit-identical.
    """
    if n > spec.n:
        raise ValueError(f"n={n} exceeds spec horizon {spec.n}")
    scaled_band = noise_scale * inverse_band(spec)
    p = scaled_band.size
    gen = GaussianStream.from_seed(seed)
    Z = gen.normal((n, dim))
    out = np.zeros((n, dim))
    for i in range(n):
        for j in range(max(0, i - p + 1), i + 1):
            out[i] += scaled_band[i - j] * Z[j]
    return out


@dataclasses.dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    stderr: float
    trials: int
    noise_scale: float


def run_prefix_release(
    spec: FactorizationSpec,
    schema: ParticipationSchema | None,
    dim: int,
    budget: PrivacyBudget | None,
    trials: int,
    seed: int,
    noise_scale: float | None = None,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the running-sum noise RMSE on zero inputs.

    Converges to rmse(spec, schema) * sigma as trials grow; the per-dimension
    normalization makes the estimate comparable with the analytic objective.
    Only a method with a banded inverse is taken: the engine's band filters.
    Trials run in order on the calling thread, never on the slab pool, each
    on its own substream of ``seed``.  A trial adds its columns in order, and
    each column's squared running sums by numpy's pairwise sum over blocks of
    R = min(max(256, p + 1), n) rows, the blocks in order.  That is one
    pairwise sum per column when n <= R, and also when n = 2R, where the
    pairwise sum splits at the block boundary.
    Both figures are computed from unit noise and multiplied by the noise
    scale once, so they are exact multiples of it.  The scale comes from
    exactly one of ``budget``, calibrated sigma times the exact sensitivity
    under ``schema``, and ``noise_scale``, which takes no schema: ``schema``
    is given with a budget and is None with a noise_scale.
    """
    band = inverse_band(spec)  # refuses a method without a banded inverse, as the engine does
    dim, trials = operator.index(dim), operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if (budget is None) == (noise_scale is None):
        raise ValueError("give exactly one of a privacy budget and a noise_scale")
    if (budget is None) != (schema is None):
        raise ValueError("give a schema with a privacy budget, and none with a noise_scale")
    if noise_scale is None:
        noise_scale = gaussian_sigma(budget) * sens_exact(strategy_coeffs(spec), schema)
    n = spec.n
    # A cumulative sum of unit noise is at most u >= n in size (see CorrelatorState): a
    # trial adds n * dim squares of those sums, and the mean a value of at most u^2 per
    # trial.  An int compares with a float exactly: counts past the float range are
    # refused before float() could raise OverflowError on them.
    size = max(n * dim, trials)
    fits = n * n * size <= sys.float_info.max
    u = _NORMAL_BOUND * n * float(np.abs(band).sum()) if fits else math.inf
    if not (fits and math.isfinite(u * u * size)):
        raise ValueError(
            f"the spec's unscaled running sums could overflow at {n=}, {dim=}, {trials=}"
        )
    noise_scale = _check_noise_scale(noise_scale, u)
    vals = np.empty(trials)
    _run_trials(band, n, dim, seed, vals)
    mean = float(np.mean(vals))
    unit = math.sqrt(mean)
    if trials > 1 and mean > 0.0:
        vals /= mean  # in place: each value is now at most trials
        unit_se = unit * float(np.std(vals, ddof=1)) / math.sqrt(trials) / 2.0
    else:
        unit_se = 0.0
    return MonteCarloEstimate(noise_scale * unit, noise_scale * unit_se, trials, noise_scale)


def _run_trials(band, n: int, dim: int, seed: int, vals):
    """Each trial t's unit mean square, in order, into ``vals[t]``.

    Trial t draws stream t + 1 of ``seed`` through one stream, re-keyed per
    trial, in blocks of R = min(max(_TRIAL_ROWS, p + 1), n) rows.  One C-order
    window of (h + R) x dim serves every block and trial: h = p - 1 raw rows
    of the block before, then the block's fresh rows in the engine's counter
    layout (Z_j at j * dim).  Each block's filtered values overwrite the rows
    it has used, and their running sums carry to the next block in one row.
    """
    h = band.size - 1
    rows = min(max(_TRIAL_ROWS, h + 2), n)
    W = np.empty((h + rows, dim))
    sums = np.empty(dim)  # each column's running sum at the end of the block before
    gen = GaussianStream(_seed_token(seed, 1))
    for t in range(vals.size):
        gen.set_state(_seed_token(seed, t + 1))
        col_totals = [0.0] * dim
        for a in range(0, n, rows):
            r = min(rows, n - a)
            if a:
                W[:h] = W[rows : rows + h]  # the last p - 1 raw rows of the block before
            gen.fill(W[h : h + r])
            for c in range(dim):
                if a:  # the window first, so it stays np.convolve's long operand
                    W[:r, c] = np.convolve(W[: h + r, c], band, "valid")
                else:  # the band runs off the start: the first p - 1 dots are short
                    W[:r, c] = np.convolve(band, W[h : h + r, c])[:r]
            y = W[:r]
            if a:
                y[0] += sums
            np.add.accumulate(y, axis=0, out=y)  # sequential down each column
            np.copyto(sums, y[-1])
            y *= y
            for c in range(dim):
                col_totals[c] += np.add.reduce(y[:, c])  # pairwise, as np.sum
        total = 0.0
        for s in col_totals:  # in order: sum() compensates from Python 3.12
            total += s
        vals[t] = total / (n * dim)
