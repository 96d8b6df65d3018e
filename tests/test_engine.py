import copy
import dataclasses
import functools
import hashlib
import importlib.util
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bifr import engine, prng
from bifr.calibration import PrivacyBudget, gaussian_sigma
from bifr.catalog import (
    FactorizationSpec,
    Method,
    inverse_band,
    strategy_coeffs,
)
from bifr.engine import (
    CorrelatorState,
    engine_dense_reference,
    engine_init,
    engine_step,
    run_prefix_release,
)
from bifr.metrics import rmse
from bifr.prng import GaussianStream, StateToken
from bifr.sensitivity import ParticipationSchema, sens_exact

from buffered_reference import buffered_noise


def bifr_spec(n=64, gamma=0.5, p=4):
    return FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)


def collect(state, steps, each=None):
    """The next ``steps`` outputs of ``state`` on zero inputs, each step into one reused ``out``.

    Each output is copied as its step returns, so a slab still writing ``out``
    shows; ``each()`` runs after every step.
    """
    x, out = np.zeros(state.dim), np.empty(state.dim)
    outs = np.empty((steps, state.dim))
    for i in range(steps):
        outs[i] = engine_step(state, x, out=out)
        if each is not None:
            each()
    return outs


def slab_pieces(state):
    """Fills per window row of a row-per-fill step.

    Each of the k slabs fills its part of the row in pieces of
    min(ceil(dim / k), engine._PIECE_DRAWS) draws, the last one ragged.
    """
    piece = min(-(-state.dim // len(state._slabs)), engine._PIECE_DRAWS)
    return sum(math.ceil((hi - lo) / piece) for lo, hi, _ in state._slabs)


def refuse_pool(threads):
    """An ``engine._executor`` for runs that must not reach the slab pool."""
    raise AssertionError("a trial went to the pool")


def unpinned_cpu_count():
    raise AssertionError("pin engine._cpu_count: the host's CPU count would pick the slabs")


@pytest.fixture(autouse=True)
def no_host_cpu_count(monkeypatch):
    """A test that builds column slabs pins the CPU count, so it runs alike on every host."""
    monkeypatch.setattr(engine, "_cpu_count", unpinned_cpu_count)


# The path matrix.  Whatever the dim, a step adds its window to the output by
# one of the engine's release paths: a row of d < 2 * _SLAB_MIN_DRAWS draws
# is one slab, whose pieces are c = min(p, _BLOCK_DRAWS // d) whole rows under
# a sum row when c > 1 ("block") or part of one row ("row"), and the CPU
# count is never read; a wider row is min(CPUs, d // _SLAB_MIN_DRAWS) column
# slabs ("slab"), which TestSlabPool's thresholds reach at tens of draws
# ("split").  ``release`` runs a case on each path its width reaches and makes
# every check below; the tests give the cases.


@pytest.fixture
def release(monkeypatch, fills, seeks):
    """``release(spec, dim, scale, seed, start=0, cpus=(1, 2, 3))`` runs one case of the matrix.

    ``seed`` is an int, or the origin token itself.  For each CPU count in
    ``cpus`` the engine is pinned to it, and a state built at step ``start``
    (restored from the origin's bytes unless it is a seed's step 0) is
    stepped to the horizon.  Its outputs must equal the ``references`` bit
    for bit, and each step must meet ``check_step``.  A one-slab width runs
    once, with the CPU count refused.  Returns the last state.
    """

    def run(spec, dim, scale, seed, start=0, cpus=(1, 2, 3)):
        seeded = not isinstance(seed, StateToken)
        origin = GaussianStream.from_seed(seed).get_state() if seeded else seed
        refs = references(spec, dim, scale, seed)
        c = min(inverse_band(spec).size, max(1, engine._BLOCK_DRAWS // dim))
        one_slab = dim < 2 * engine._SLAB_MIN_DRAWS
        for pinned in (None,) if one_slab else cpus:
            cpu_count = (lambda: pinned) if pinned else unpinned_cpu_count
            monkeypatch.setattr(engine, "_cpu_count", cpu_count)
            if seeded and start == 0:
                state = engine_init(spec, dim, scale, seed)
            else:
                token = StateToken.from_bytes(origin.to_bytes())
                state = CorrelatorState(
                    spec=spec, dim=dim, noise_scale=scale, origin=token, step=start
                )
            k = 1 if one_slab else min(pinned, dim // engine._SLAB_MIN_DRAWS)
            width = min(-(-dim // k), engine._PIECE_DRAWS)
            assert len(state._slabs) == k and state._zbuf.shape == (k, c + (c > 1), width)
            fills.clear()
            seeks.clear()
            outs = collect(state, spec.n - start, lambda: check_step(state, c, fills, seeks))
            for ref in refs:
                differ = outs != ref[start:]
                assert not differ.any(), f"{differ.sum()} outputs differ on {pinned} CPUs"
        return state

    return run


@functools.lru_cache(maxsize=1)  # a case's CPU counts are adjacent tests
def references(spec, dim, scale, seed):
    """A case's n x dim outputs by ``buffered_noise`` and, from a seed, ``engine_dense_reference``.

    The buffered outputs meet the whitening bound (``assert_whitens``), and
    so does every output equal to them.
    """
    seeded = not isinstance(seed, StateToken)
    origin = GaussianStream.from_seed(seed).get_state() if seeded else seed
    refs = [buffered_noise(spec, dim, scale, origin, spec.n)]
    assert_whitens(refs[0], spec, scale, origin)
    if seeded:
        refs.append(engine_dense_reference(spec, dim, scale, seed, spec.n))
    return refs


def check_step(state, c, fills, seeks):
    """Step i, just taken, drew its window once, in the expected pieces, and left the state right.

    The window is rows = min(i, p - 1) + 1 rows that end at origin + (i + 1)*d.
    Pieces of c > 1 whole rows follow one seek; each slab of part-row pieces
    seeks to its first column at each row, and fills it in pieces of at most
    ``_PIECE_DRAWS``.  Slab 0 fills on the calling thread and the others on
    the pool.  ``gen`` ends at the window's end, and ``stats()`` counts what
    the steps so far drew.  Clears ``fills`` and ``seeks`` for the next step.
    """
    i, d, p = state.step - 1, state.dim, state._scales.size
    rows = min(i, p - 1) + 1
    end = state.origin.counter + (i + 1) * d
    assert_covers_once([fill[:2] for fill in fills], end - rows * d, end)
    assert max(m for _, m, _ in fills) <= engine._PIECE_DRAWS
    if c > 1:
        assert (len(fills), len(seeks)) == (math.ceil(rows / c), 1)
    else:
        assert (len(fills), len(seeks)) == (rows * slab_pieces(state), rows * len(state._slabs))
    caller, first_cut = threading.get_ident(), state._slabs[0][1]
    for a, _, thread in fills:
        assert (thread == caller) == ((a - state.origin.counter) % d < first_cut)
    assert state.gen.get_state() == StateToken(key=state.origin.key, counter=end)
    stats = state.stats()
    assert (stats["step"], stats["horizon_left"]) == (i + 1, state.spec.n - i - 1)
    assert stats["fresh_draws"] == d * (i + 1)
    assert stats["regenerated_draws"] == d * sum(min(j, p - 1) for j in range(i + 1))
    fills.clear()
    seeks.clear()


def assert_covers_once(fills, lo, hi):
    """The fills draw every counter of [lo, hi) once and none outside it."""
    ranges = sorted(fills)
    assert ranges[0][0] == lo
    for (a, m), (b, _) in zip(ranges, ranges[1:]):
        assert a + m == b
    assert ranges[-1][0] + ranges[-1][1] == hi


def assert_whitens(outs, spec, scale, origin):
    """The outputs are s * C^{-1} Z: C times them, over s, gives back Z.

    max |C * out / s - Z| <= 8.21 ((n + 2p + 2) u ||C||_1 ||band||_1 + ||r||_1).

    u = 2^-53 and |Z| <= 8.21.  The engine adds p rounded products
    fl(s w_k) Z, so each output is off s C^{-1} Z by at most
    (p + 1) u s 8.21 ||band||_1, and C carries that to Z-hat times
    ||C||_1.  Z-hat's n-term product and its division by s add
    (n + 1) u 8.21 ||C||_1 ||band||_1.  C is itself a computed reciprocal
    of the band: its residual r = C * band - e_0, computed here with p more
    roundings, adds ||r||_1 8.21.  One weight moved by 1e-9 relative, in
    ``_scales`` or in ``_scale_rows``, misses by 3e-11 to 5e-9, 30x or more.
    """
    n = spec.n
    c, band = strategy_coeffs(spec).coeffs, inverse_band(spec)
    C = np.tril(c[np.subtract.outer(np.arange(n), np.arange(n))])
    r = np.convolve(c, band)[:n] - np.eye(n)[0]
    unit = 2.0**-53 * np.abs(c).sum() * np.abs(band).sum()
    tol = 8.21 * ((n + 2 * band.size + 2) * unit + np.abs(r).sum())
    Z = GaussianStream(origin).normal((n, outs.shape[1]))
    assert np.abs(C @ outs / scale - Z).max() <= tol


class TestInit:
    def test_rejects_unbanded_inverse(self, monkeypatch):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        for kw in (
            dict(method=Method.GAMMA_BFR, n=8, gamma=0.5, bandwidth=2),
            dict(method=Method.INV_DECAY, n=8, c=0.0, bandwidth=3),
        ):
            for dim in (2, 8193):  # one block, and two column slabs
                name = kw["method"].value
                with pytest.raises(ValueError, match=f"{name} does not have a banded inverse"):
                    engine_init(FactorizationSpec(**kw), dim=dim, noise_scale=1.0, seed=0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            engine_init(bifr_spec(), dim=0, noise_scale=1.0, seed=0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_scale_that_releases_no_privacy(self, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            engine_init(bifr_spec(), dim=2, noise_scale=scale, seed=0)

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_refuses_a_finite_scale_whose_noise_could_overflow(self, monkeypatch, dim):
        """|noise| <= scale * 8.2096 * ||band||_1 = 2.3e309 here: not a float."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=4)
        assert np.abs(inverse_band(spec)).sum() == 1.6875
        with pytest.raises(ValueError, match="overflow"):
            engine_init(spec, dim, 1.7e308, seed=1)

    def test_refuses_a_scale_too_large_for_a_float(self):
        # float() raises OverflowError on both
        with pytest.raises(ValueError, match="noise_scale must be finite and >= 0"):
            engine_init(bifr_spec(), 2, 10**400, 0)
        with pytest.raises(ValueError, match="noise_scale must be finite and >= 0"):
            engine_init(bifr_spec(), 2, -(10**400), 0)

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_largest_scale_inside_the_bound_releases_finite_noise(self, monkeypatch, dim):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=4)
        scale = sys.float_info.max / (8.21 * 1.6875) * (1 - 2**-40)
        outs = collect(engine_init(spec, dim, scale, seed=1), spec.n)
        assert np.isfinite(outs).all()
        assert np.abs(outs).max() > 1e306

    def test_negative_zero_scale_is_stored_as_zero(self):
        state = engine_init(bifr_spec(), dim=2, noise_scale=-0.0, seed=0)
        assert math.copysign(1.0, state.noise_scale) == 1.0
        assert type(state.noise_scale) is float

    def test_direct_construction_is_checked(self):
        origin = GaussianStream.from_seed(0).get_state()
        kw = dict(spec=bifr_spec(), dim=2, noise_scale=1.0, origin=origin)
        unbanded = FactorizationSpec(method=Method.GAMMA_BFR, n=8, gamma=0.5, bandwidth=2)
        with pytest.raises(ValueError, match="gamma-bfr does not have a banded inverse"):
            CorrelatorState(**{**kw, "spec": unbanded})
        for bad in (dict(dim=0), dict(noise_scale=math.nan)):
            with pytest.raises(ValueError):
                CorrelatorState(**{**kw, **bad})

    @pytest.mark.parametrize("step", [-3, -1, 9, 12])
    def test_refuses_a_step_outside_the_horizon(self, step):
        """A restored step outside [0, n] would report negative draws or horizon left."""
        origin = GaussianStream.from_seed(0).get_state()
        kw = dict(spec=bifr_spec(n=8), dim=2, noise_scale=1.0, origin=origin)
        with pytest.raises(ValueError, match="outside \\[0, 8\\]"):
            CorrelatorState(**kw, step=step)
        for ok in (0, 8):
            assert CorrelatorState(**kw, step=ok).stats()["horizon_left"] == 8 - ok

    @pytest.mark.parametrize("step", [0, 7])
    def test_refuses_an_origin_whose_horizon_does_not_fit(self, step):
        """n*d counters from the origin must end at or before 2^128 - 1, the stream's end."""
        spec, dim = bifr_spec(n=8), 3
        origin = StateToken(key=5, counter=(1 << 128) - spec.n * dim)
        with pytest.raises(ValueError, match="2\\^128 - 1"):
            CorrelatorState(spec=spec, dim=dim, noise_scale=1.0, origin=origin, step=step)

    def test_numpy_integer_horizon_meets_the_horizon_check(self):
        """The horizon check must multiply n*d in Python ints: in int64 it overflows."""
        spec = FactorizationSpec(method=Method.IDENTITY, n=np.int64(2**40))
        origin = StateToken(key=5, counter=(1 << 128) - (1 << 60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2\\^128 - 1"):
                CorrelatorState(spec=spec, dim=2**30, noise_scale=1.0, origin=origin)

    @pytest.mark.parametrize("dim", [3, 8197], ids=["block", "slab"])
    def test_origin_that_fits_exactly_runs_to_its_horizon(self, release, dim):
        spec = bifr_spec(n=8, gamma=0.6, p=4)
        origin = StateToken(key=5, counter=(1 << 128) - 1 - spec.n * dim)
        state = release(spec, dim, 1.3, origin)
        assert state.gen.get_state() == StateToken(key=5, counter=(1 << 128) - 1)
        with pytest.raises(ValueError, match="horizon"):
            engine_step(state, np.zeros(dim))

    @pytest.mark.parametrize("dim", [3, 8197], ids=["block", "slab"])
    def test_numpy_integer_dim_and_seed_give_the_int_bits(self, monkeypatch, dim):
        """np.prod(shape) is an np.int64: its counters must still be Python ints."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = bifr_spec(n=8, p=3)
        state = engine_init(spec, np.prod((dim,)), 1.0, np.int64(5))
        assert type(state.dim) is int
        np.testing.assert_array_equal(
            collect(state, 8), collect(engine_init(spec, dim, 1.0, 5), 8)
        )

    def test_refuses_a_float_dim_or_step_when_built(self):
        origin = GaussianStream.from_seed(0).get_state()
        kw = dict(spec=bifr_spec(n=8), dim=2, noise_scale=1.0, origin=origin)
        for bad in (dict(dim=2.0), dict(step=1.0)):
            with pytest.raises(TypeError):
                CorrelatorState(**{**kw, **bad})

    def test_origin_is_the_seed_state(self):
        state = engine_init(bifr_spec(p=5), dim=2, noise_scale=1.0, seed=0)
        assert state.origin == GaussianStream.from_seed(0).get_state()
        assert state.step == 0

    def test_unseeded_engines_release_different_noise(self):
        spec = bifr_spec(n=8, p=3)
        a, b = (engine_init(spec, 4, 1.0) for _ in range(2))
        assert a.origin.key != b.origin.key
        assert a.origin.counter == b.origin.counter == 0
        assert not np.any(collect(a, 8) == collect(b, 8))
        # a fixed seed is still the reproducible choice
        fixed = collect(engine_init(spec, 4, 1.0, seed=3), 8)
        np.testing.assert_array_equal(fixed, engine_dense_reference(spec, 4, 1.0, 3, 8))

    def test_no_repr_shows_the_key_and_states_compare_by_identity(self):
        """The key fixes every noise bit; comparing two states must not raise."""
        spec = bifr_spec(n=8, p=3)
        state, twin = (engine_init(spec, 4, 1.0, seed=3) for _ in range(2))
        engine_step(state, np.zeros(4))
        key = state.origin.key
        for text in (repr(state), repr(state.origin), repr(state.gen.get_state())):
            assert str(key) not in text
            assert format(key, "x") not in text.lower()
        assert (state == state) is True
        assert (state == twin) is False
        assert state.origin == twin.origin and hash(state.origin) == hash(twin.origin)


class TestStep:
    def test_identity_is_fresh_noise(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=8)
        state = engine_init(spec, dim=3, noise_scale=2.0, seed=5)
        outs = collect(state, 8)
        Z = GaussianStream.from_seed(5).normal((8, 3))
        np.testing.assert_array_equal(outs, 2.0 * Z)

    def test_one_step_correlation(self):
        lam = 0.7
        spec = FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=8, lam=lam)
        state = engine_init(spec, dim=2, noise_scale=1.5, seed=9)
        outs = collect(state, 8)
        Z = GaussianStream.from_seed(9).normal((8, 2))
        expected = 1.5 * Z.copy()
        expected[1:] += 1.5 * (-lam) * Z[:-1]
        np.testing.assert_allclose(outs, expected, atol=1e-12)

    def test_adds_input(self):
        spec = bifr_spec(n=16)
        noise = collect(engine_init(spec, dim=3, noise_scale=1.0, seed=1), 16)
        state = engine_init(spec, dim=3, noise_scale=1.0, seed=1)
        xs = np.arange(48, dtype=np.float64).reshape(16, 3)
        outs = np.array([engine_step(state, x) for x in xs])
        np.testing.assert_allclose(outs, xs + noise, atol=1e-12)

    def test_dim_mismatch(self):
        state = engine_init(bifr_spec(), dim=3, noise_scale=1.0, seed=0)
        with pytest.raises(ValueError):
            engine_step(state, np.zeros(4))

    def test_refuses_to_step_past_horizon(self):
        state = engine_init(bifr_spec(n=4), 2, 1.0, 0)
        collect(state, 4)
        with pytest.raises(ValueError, match="horizon"):
            engine_step(state, np.zeros(2))
        assert state.step == 4

    def test_refuses_negative_step(self):
        # rows = min(-1, p-1) + 1 = 0: such a step would release x with no noise
        state = engine_init(bifr_spec(n=4), 3, 1.0, 0)
        state.step = -1
        out = np.full(3, 7.0)
        with pytest.raises(ValueError, match="horizon"):
            engine_step(state, np.array([1.0, 2.0, 3.0]), out=out)
        np.testing.assert_array_equal(out, 7.0)
        assert state.step == -1

    def test_out_buffer_reused(self):
        state = engine_init(bifr_spec(), dim=3, noise_scale=1.0, seed=0)
        out = np.empty(3)
        ret = engine_step(state, np.zeros(3), out=out)
        assert ret is out

    @pytest.mark.parametrize("dim", [16, 8197], ids=["block", "slab"])
    @pytest.mark.parametrize(
        "make_out",
        [
            lambda d: np.zeros(d, dtype=np.float32),
            lambda d: np.zeros(d + 1),
            lambda d: np.zeros((1, d)),
        ],
        ids=["float32", "longer", "2d"],
    )
    def test_refuses_out_that_is_not_float64_of_shape_dim(self, monkeypatch, dim, make_out):
        """A float32 out would round each added row, on each path its own way."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = bifr_spec(n=8, p=4)
        state = engine_init(spec, dim, 1.0, 2)
        engine_step(state, np.zeros(dim))
        out = make_out(dim)
        with pytest.raises(ValueError, match="float64"):
            engine_step(state, np.ones(dim), out=out)
        assert state.step == 1
        assert not out.any()
        full = collect(engine_init(spec, dim, 1.0, 2), spec.n)
        np.testing.assert_array_equal(collect(state, spec.n - 1), full[1:])


class TestOneCaller:
    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_second_caller_is_refused_while_a_step_runs(self, monkeypatch, dim):
        """A caller paused in its first fills holds the state; a second one changes nothing.

        Unguarded, the second caller would release Z_0, and the paused one
        would resume from the shared stream and release Z_1 raw as its
        step-0 noise.
        """
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = bifr_spec(n=4, p=2)
        expected = collect(engine_init(spec, dim, 0.7, 3), 2)
        state = engine_init(spec, dim, 0.7, 3)
        k = len(state._slabs)
        assert k == (1 if dim == 16 else 2)
        entered = threading.Barrier(k + 1)  # the k slabs' first fills, and this thread
        resume = threading.Event()
        fill = GaussianStream.fill
        calls = []

        def pausing_fill(gen, out):
            calls.append(None)
            if len(calls) <= k:
                entered.wait(60)
                assert resume.wait(60)
            return fill(gen, out)

        monkeypatch.setattr(GaussianStream, "fill", pausing_fill)
        first = np.empty(dim)
        with ThreadPoolExecutor(1) as pool:
            try:
                stepped = pool.submit(engine_step, state, np.zeros(dim), first)
                entered.wait(60)
                gen = state.gen.get_state()
                second = np.full(dim, 5.0)
                with pytest.raises(RuntimeError, match="another engine_step"):
                    engine_step(state, np.zeros(dim), out=second)
                assert (second == 5.0).all()
                assert state.step == 0 and state.gen.get_state() == gen
            finally:
                resume.set()
            stepped.result(60)
        np.testing.assert_array_equal([first, engine_step(state, np.zeros(dim))], expected)

    def test_racing_callers_release_each_step_once(self, fast_switching):
        """Four threads step one state to its horizon, switching often: no noise twice."""
        spec, dim = bifr_spec(n=300, p=4), 8
        expected = collect(engine_init(spec, dim, 0.7, 3), spec.n)
        state = engine_init(spec, dim, 0.7, 3)
        released = []

        def caller():
            while state.step < spec.n:
                try:
                    released.append(engine_step(state, np.zeros(dim)))
                except RuntimeError:
                    pass  # another caller holds the state
                except ValueError:
                    return  # another caller took the last step after the check above

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert state.step == len(released) == spec.n
        assert sorted(out.tobytes() for out in released) == sorted(r.tobytes() for r in expected)

    # other tests may have left the slab pool's threads running at the fork
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_forked_child_cannot_step_its_parents_state(self):
        """Stepped, the child would release the parent's next window on other data."""
        state = engine_init(bifr_spec(), 16, 0.7, 3)
        engine_step(state, np.zeros(16))
        assert _forked_exit_code(_child_step_refused, state) == 0
        expected = collect(engine_init(bifr_spec(), 16, 0.7, 3), 2)[1]
        np.testing.assert_array_equal(engine_step(state, np.zeros(16)), expected)

    def test_copy_is_refused(self):
        """A copy shares the origin and step, so it and the state would release the same noise."""
        state = engine_init(bifr_spec(), 16, 0.7, 3)
        # every copy path, each refused by design rather than by the lock failing to pickle
        for copy_path in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="cannot be copied"):
                copy_path(state)

    def test_replace_is_refused(self):
        """A replaced state is a twin: it would release the next output again."""
        state = engine_init(bifr_spec(), 16, 0.7, 3)
        engine_step(state, np.zeros(16))
        assert not dataclasses.is_dataclass(state)
        with pytest.raises(TypeError):
            dataclasses.replace(state)


def _forked_exit_code(target, *args) -> int:
    """Run ``target(*args)`` in a forked child and return its exit code."""
    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive
    return child.exitcode


def _child_step_refused(state):
    """Exit 0 only if this child's step on the parent's state raises and changes nothing."""
    gen, out = state.gen.get_state(), np.full(state.dim, 5.0)
    try:
        engine_step(state, np.zeros(state.dim), out)
    except RuntimeError:
        if state.step == 1 and state.gen.get_state() == gen and (out == 5.0).all():
            return
    raise SystemExit(1)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "spec_kw",
        [
            dict(method=Method.GAMMA_BIFR, n=96, gamma=0.3, bandwidth=4),
            dict(method=Method.GAMMA_BIFR, n=64, gamma=0.5, bandwidth=16),
            dict(method=Method.BISR, n=64, bandwidth=2),
            dict(method=Method.DP_LAMBDA_CGD, n=64, lam=0.5),
            dict(method=Method.IDENTITY, n=32),
        ],
    )
    def test_streaming_equals_dense_and_buffered(self, release, seed, spec_kw):
        release(FactorizationSpec(**spec_kw), 8, 1.7, seed)

    @pytest.mark.parametrize(
        "spec_kw, dim",
        [
            # window of 15 rows drawn 4 rows per fill: chunks of 4, 4, 4 and 3
            (dict(method=Method.GAMMA_BIFR, n=40, gamma=0.55, bandwidth=15), 1000),
            # one row per fill
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=4), 4096),
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=4), 4097),
            # no window: fresh noise only
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=1), 1000),
            (dict(method=Method.IDENTITY, n=12), 4097),
            # 64 narrow rows in one piece, summed in row order: pairwise sums change bits
            (dict(method=Method.GAMMA_BIFR, n=160, gamma=0.55, bandwidth=64), 1),
            (dict(method=Method.GAMMA_BIFR, n=160, gamma=0.55, bandwidth=64), 2),
            # rows drawn in 2^13-draw pieces, the last one ragged or full
            (dict(method=Method.GAMMA_BIFR, n=6, gamma=0.55, bandwidth=4), (1 << 16) + 3),
            (dict(method=Method.GAMMA_BIFR, n=6, gamma=0.55, bandwidth=4), 3 << 16),
            (dict(method=Method.DP_LAMBDA_CGD, n=6, lam=0.6), (1 << 16) + 3),
            (dict(method=Method.DP_LAMBDA_CGD, n=6, lam=0.6), 3 << 16),
            (dict(method=Method.IDENTITY, n=6), (1 << 16) + 3),
            (dict(method=Method.IDENTITY, n=6), 3 << 16),
            # 40 rows drawn 16 per fill: each piece long enough that a pairwise sum changes bits
            (dict(method=Method.GAMMA_BIFR, n=48, gamma=0.55, bandwidth=40), 256),
        ],
    )
    def test_wide_window_equals_dense_and_buffered(self, release, spec_kw, dim):
        release(FactorizationSpec(**spec_kw), dim, 0.9, 5)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("dim", [2048, 2049, 4096, 8191, 8192, 8193])
    def test_piece_seam_equals_dense_and_buffered(self, release, dim, p, cpus):
        """Where pieces go from two whole rows to part of one, and k from 1 to 2."""
        release(bifr_spec(n=2 * p + 1, gamma=0.55, p=p), dim, 0.9, 5, cpus=(cpus,))

    @pytest.mark.parametrize(
        "p, dim",
        [(16, 8), (64, 64), (15, 1000), (4, 4097), (4, (1 << 16) + 3), (3, 3 << 16)],
    )
    def test_window_fill_calls_and_draws(self, release, p, dim):
        """Each step fills its window by blocks of rows after one seek, or by column slabs."""
        release(bifr_spec(n=2 * p, p=p), dim, 1.0, 0)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "p, dim", [(1, 5), (4, 4097), (2, 3 << 13), (3, (1 << 16) + 3), (2, 3 << 16)]
    )
    def test_slab_fills_cover_the_window_once(self, release, cpus, p, dim):
        """Step i's slabs draw [origin+(i-rows+1)*d, origin+(i+1)*d), each counter once."""
        release(bifr_spec(n=2 * p, p=p), dim, 1.0, 0, cpus=(cpus,))

    def test_more_slabs_than_cores_equal_dense(self, release, fast_switching):
        """Eight slabs on a pool larger than the host, three times, switching threads often."""
        spec, dim = bifr_spec(n=6, gamma=0.6, p=3), 8 * engine._SLAB_MIN_DRAWS + 5
        t0 = time.perf_counter()
        release(spec, dim, 1.1, 4, cpus=(8, 8, 8))
        assert time.perf_counter() - t0 < 60

    @pytest.mark.parametrize(
        "release, cpus", [("step", 2), ("step", 3), ("step", 4), ("trials", 4)],
        ids=["2", "3", "4", "trials-4"],
    )  # fmt: skip
    def test_wide_step_hands_off_once_per_slab(self, monkeypatch, release, cpus):
        """A wide step submits its k-1 pool tasks, never from a task; Monte Carlo trials, none."""
        executor = engine._executor
        submits = []

        class CountingPool:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, fn, *args):
                # refuse a submit from inside a task: it could wait on its own pool
                thread = threading.current_thread()
                submits.append(thread)
                if thread is not threading.main_thread() or len(submits) >= cpus:
                    raise AssertionError("a task submitted to the pool")
                return self.pool.submit(fn, *args)

        monkeypatch.setattr(engine, "_executor", lambda threads: CountingPool(executor(threads)))
        if release == "trials":
            # n * dim = 4 * 2^12 draws per trial, enough for four slabs: still this thread,
            # and the CPU count is never read
            kw = dict(dim=2048, budget=None, trials=8, seed=0, noise_scale=1.0)
            run_prefix_release(bifr_spec(n=8, p=4), None, **kw)
            assert submits == []
            return
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        dim = (1 << 16) + 3
        state = engine_init(bifr_spec(n=8, p=4), dim, 1.0, 0)
        for _ in range(8):
            submits.clear()
            engine_step(state, np.zeros(dim))
            assert submits == [threading.main_thread()] * (cpus - 1)

    def test_engines_stepped_from_two_threads_share_the_pool(self, monkeypatch):
        """Two wide engines stepped from two plain threads, on a pool of one thread."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec = bifr_spec(n=6, gamma=0.6, p=3)
        dim = (1 << 16) + 3
        seeds = (4, 9)
        pool = ThreadPoolExecutor(1, "one-thread")
        submits = []

        class OneThreadPool:
            def submit(self, fn, *args):
                # a task's submit could wait on the one thread that task holds
                thread = threading.current_thread()
                submits.append(thread.name)
                if thread.name.startswith("one-thread"):
                    raise AssertionError("a task submitted to the pool it may occupy")
                return pool.submit(fn, *args)

        monkeypatch.setattr(engine, "_executor", lambda threads: OneThreadPool())
        states = [engine_init(spec, dim, 1.1, seed) for seed in seeds]
        assert [len(state._slabs) for state in states] == [2, 2]
        outs = np.empty((2, spec.n, dim))
        errors = []

        def steps(j):
            try:
                for i in range(spec.n):
                    engine_step(states[j], np.zeros(dim), out=outs[j, i])
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=steps, args=(j,), name=f"steps-{j}") for j in (0, 1)]
        try:
            expected = [collect(engine_init(spec, dim, 1.1, seed), spec.n) for seed in seeds]
            submits.clear()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            pool.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(submits) == ["steps-0"] * spec.n + ["steps-1"] * spec.n
        np.testing.assert_array_equal(outs, expected)

    @pytest.mark.parametrize(
        "spec",
        [bifr_spec(n=32, p=5), FactorizationSpec(method=Method.IDENTITY, n=32)],
        ids=["gamma-bifr-p5", "identity"],
    )
    def test_resume_from_serialized_origin(self, release, spec):
        """An engine rebuilt from the origin's bytes and step 20 continues identically."""
        release(spec, 4, 1.0, 3, start=20)

    def test_failed_step_can_be_retried(self, monkeypatch):
        """A step whose fill raises leaves the state as it was, so a retry matches."""
        spec = bifr_spec(n=32, gamma=0.5, p=4)
        dim = 3
        calls = 0
        fill = GaussianStream.fill

        def failing_fill(gen, out):
            nonlocal calls
            calls += 1
            if calls == 11:
                raise RuntimeError("injected fill failure")
            return fill(gen, out)

        monkeypatch.setattr(GaussianStream, "fill", failing_fill)
        state = engine_init(spec, dim, 1.3, 6)
        outs = []
        failures = 0
        while state.step < spec.n:
            step = state.step
            try:
                outs.append(engine_step(state, np.zeros(dim)))
            except RuntimeError:
                failures += 1
                assert state.step == step
        assert failures == 1
        dense = engine_dense_reference(spec, dim, 1.3, 6, spec.n)
        np.testing.assert_array_equal(np.array(outs), dense)

    def test_failed_piece_inside_a_row_can_be_retried(self, monkeypatch):
        """A fill that raises inside a row, on this thread or a pool thread, can be retried."""
        spec = bifr_spec(n=6, gamma=0.5, p=4)
        dim = 3 * engine._PIECE_DRAWS  # each row is three pieces on one slab
        refs = references(spec, dim, 1.3, 6)
        fill = GaussianStream.fill
        calls = 0

        def middle_piece(state):
            # one slab: step 2 fills calls 10..18, three rows of three pieces;
            # call 14 is the middle piece of its middle row
            nonlocal calls
            calls += 1
            return calls == 14

        def pool_slab(state):
            # two slabs: the pool thread's first fill of step 2
            return state.step == 2 and threading.current_thread() is not threading.main_thread()

        for cpus, fails in ((1, middle_piece), (2, pool_slab)):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            state = engine_init(spec, dim, 1.3, 6)
            assert len(state._slabs) == cpus
            failed = []

            def failing_fill(gen, out):
                if not failed and fails(state):
                    failed.append(threading.current_thread())
                    raise RuntimeError("injected fill failure")
                return fill(gen, out)

            monkeypatch.setattr(GaussianStream, "fill", failing_fill)
            x = np.zeros(dim)
            out = np.empty(dim)
            outs = []
            failures = 0
            while state.step < spec.n:
                step = state.step
                try:
                    outs.append(engine_step(state, x, out=out).copy())
                except RuntimeError:
                    failures += 1
                    assert state.step == step == 2
            assert failures == 1
            assert (failed[0] is threading.main_thread()) == (cpus == 1)
            for ref in refs:
                np.testing.assert_array_equal(np.array(outs), ref)
            monkeypatch.setattr(GaussianStream, "fill", fill)

    def test_failed_slab_step_releases_nan_and_keeps_gen(self, monkeypatch):
        """A wide step whose pool slab raises leaves ``out`` all NaN, no column raw x.

        ``gen`` is seeked back to origin + step*d, where its last step left it.
        """
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        spec, dim = bifr_spec(n=4, p=4), 8197
        fresh = collect(engine_init(spec, dim, 0.7, 3), spec.n)
        state = engine_init(spec, dim, 0.7, 3)
        assert len(state._slabs) == 2
        fill = GaussianStream.fill

        def failing_fill(gen, out):
            if state.step == 1 and threading.current_thread() is not threading.main_thread():
                raise RuntimeError("injected fill failure")
            return fill(gen, out)

        x = np.arange(dim, dtype=np.float64)
        out = np.empty(dim)
        outs = [engine_step(state, np.zeros(dim)).copy()]
        monkeypatch.setattr(GaussianStream, "fill", failing_fill)
        with pytest.raises(RuntimeError, match="injected"):
            engine_step(state, x, out=out)
        assert np.isnan(out).all()
        assert state.step == 1
        assert state.gen.get_state().counter == state.origin.counter + dim
        monkeypatch.setattr(GaussianStream, "fill", fill)
        while state.step < spec.n:
            outs.append(engine_step(state, np.zeros(dim), out=out).copy())
        np.testing.assert_array_equal(np.array(outs), fresh)

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_steps_build_no_token(self, monkeypatch, dim):
        """Steps seek by integer counter: a token is built at init and at checkpoints only."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        p = 4
        state = engine_init(bifr_spec(n=2 * p, p=p), dim, 1.0, 0)
        built = []
        post_init = StateToken.__post_init__

        def counting_post_init(token):
            built.append(token)
            post_init(token)

        monkeypatch.setattr(StateToken, "__post_init__", counting_post_init)
        collect(state, 2 * p)
        assert built == []

    def test_first_fills_race_on_the_slab_threads(self, monkeypatch):
        """The first step's two slabs both bind ndtri at once, and draw the same bits.

        Run in a fresh interpreter, which has not imported scipy.special yet.
        """
        code = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from bifr import engine\n"
            "from bifr.catalog import FactorizationSpec, Method\n"
            "from bifr.engine import engine_init, engine_step\n"
            "engine._cpu_count = lambda: 2\n"
            "sys.setswitchinterval(1e-6)\n"
            "spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=4)\n"
            "state = engine_init(spec, 8197, 0.7, 3)\n"
            "print(len(state._slabs), 'scipy.special' in sys.modules)\n"
            "outs = [engine_step(state, np.zeros(8197)) for _ in range(3)]\n"
            "print(hashlib.sha256(np.array(outs).tobytes()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        state = engine_init(bifr_spec(n=8, p=4), 8197, 0.7, 3)
        here = hashlib.sha256(collect(state, 3).tobytes()).hexdigest()
        assert proc.stdout.splitlines() == ["2 False", here]

    def test_failed_ndtri_import_draws_nothing(self):
        """A fill or step whose ndtri import fails changes no state; the retry is step 0.

        Run in a fresh interpreter, where the import has not happened; a None
        entry in sys.modules makes it raise.  The step's ``out`` starts equal
        to x; the failed step leaves it all NaN.
        """
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from bifr.catalog import FactorizationSpec, Method\n"
            "from bifr.engine import engine_init, engine_step\n"
            "from bifr.prng import GaussianStream\n"
            "sys.modules['scipy.special'] = None\n"
            "g = GaussianStream.from_seed(3)\n"
            "z = np.full(8, 7.0)\n"
            "try:\n"
            "    g.fill(z)\n"
            "except ImportError:\n"
            "    print(g.get_state().counter, (z == 7.0).all())\n"
            "spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=4)\n"
            "state = engine_init(spec, 16, 0.7, 3)\n"
            "gen = state.gen.get_state()\n"
            "x = np.arange(16.0)\n"
            "out = x.copy()\n"
            "try:\n"
            "    engine_step(state, x, out)\n"
            "except ImportError:\n"
            "    print(state.step, state.gen.get_state() == gen, np.isnan(out).all())\n"
            "del sys.modules['scipy.special']\n"
            "retry = engine_step(state, x, out).tobytes()\n"
            "fresh = engine_step(engine_init(spec, 16, 0.7, 3), x).tobytes()\n"
            "print(state.step, retry == fresh)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == ["0 True", "0 True True", "1 True"]


class TestSlabPool:
    """Column slabs on the engine's slab pool draw one thread's bits."""

    @pytest.fixture
    def split(self, monkeypatch):
        # slabs of >= 16 draws on up to 8 threads, more than this host has cores
        monkeypatch.setattr(engine, "_SLAB_MIN_DRAWS", 16)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 8)
        # one row per fill, so a step of 32 draws or more splits into column slabs
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", 16)

    def test_split_steps_equal_one_thread(self, release, split, fast_switching):
        """24 steps on 1, 2 and 8 CPUs, with fewer and more slabs than this host has cores."""
        t0 = time.perf_counter()
        for dim in (40, 50, 200):
            release(_SLAB_SPEC, dim, 1.3, 5, cpus=(1, 2, 8))
        assert time.perf_counter() - t0 < 60

    def test_split_engine_equals_dense_reference(self, release, split, fast_switching):
        # each step splits into three column slabs
        release(_SLAB_SPEC, 50, 0.7, 3, cpus=(8,))

    @pytest.mark.parametrize("failing", ["calling-thread", "pool-thread"])
    def test_failed_slab_raises_after_every_worker_stopped(self, monkeypatch, split, failing):
        """A two-row step in 4 slabs: one slab's first fill raises, the others fill both rows."""
        monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
        dim = 64
        state = engine_init(_SLAB_SPEC, dim, 0.7, 3)
        assert len(state._slabs) == 4
        engine_step(state, np.zeros(dim))  # step 1's window holds two rows
        fill = GaussianStream.fill
        lock = threading.Lock()
        failed, finished = [], []

        def slow_or_failing(gen, out):
            on_pool = threading.current_thread() is not threading.main_thread()
            with lock:
                fail = not failed and on_pool == (failing == "pool-thread")
                if fail:
                    failed.append(gen.get_state())
            if fail:
                raise RuntimeError("slab failed")
            time.sleep(0.02)
            fill(gen, out)
            finished.append(gen.get_state())

        monkeypatch.setattr(GaussianStream, "fill", slow_or_failing)
        out = np.empty(dim)
        with pytest.raises(RuntimeError, match="slab failed"):
            engine_step(state, np.arange(dim, dtype=np.float64), out=out)
        # the failing slab skips its second row; the three others filled both
        assert len(failed) == 1
        assert len(finished) == 6
        assert np.isnan(out).all()
        assert state.step == 1

    def test_pool_grows_for_more_slabs(self, monkeypatch, split):
        """A 2-slab step builds a one-thread pool; a 4-slab step's three pool slabs then meet."""
        monkeypatch.setattr(engine, "_pool", None)
        engine_step(engine_init(_SLAB_SPEC, 32, 0.7, 3), np.zeros(32))
        assert engine._pool[0] == 1
        dim = 64
        dense = engine_dense_reference(_SLAB_SPEC, dim, 0.7, 3, _SLAB_SPEC.n)
        state = engine_init(_SLAB_SPEC, dim, 0.7, 3)
        assert len(state._slabs) == 4
        # every pool-thread fill waits for the other two slabs: fewer than three
        # pool threads break the barrier
        barrier = threading.Barrier(3, timeout=10)
        fill = GaussianStream.fill

        def meeting_fill(gen, out):
            if threading.current_thread() is not threading.main_thread():
                barrier.wait()
            return fill(gen, out)

        monkeypatch.setattr(GaussianStream, "fill", meeting_fill)
        np.testing.assert_array_equal(collect(state, _SLAB_SPEC.n), dense)

    # forking after the pool's threads exist is the case under test
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_forked_child_draws_the_parents_bits(self, split):
        """A forked child builds its own pool and steps a split engine to the parent's bits."""
        expected = _split_steps()
        assert engine._pool is not None
        assert _forked_exit_code(_child_steps_check, expected) == 0

    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_child_forked_while_the_pool_lock_is_held_steps(self, split):
        """The child gets a fresh lock: the thread holding the parent's is not in it."""
        held, done = threading.Event(), threading.Event()

        def hold_the_lock():
            with engine._pool_lock:
                held.set()
                done.wait(60)

        holder = threading.Thread(target=hold_the_lock)
        holder.start()
        try:
            assert held.wait(10)
            code = _forked_exit_code(_child_steps_two_slabs_within, 10.0)
        finally:
            done.set()
            holder.join(10)
        assert not holder.is_alive() and code == 0


_SLAB_SPEC = FactorizationSpec(method=Method.GAMMA_BIFR, n=24, gamma=0.55, bandwidth=6)


def _split_steps():
    """The 24 outputs of an engine of three split slabs stepped on zeros."""
    state = engine_init(_SLAB_SPEC, 50, 1.3, 5)
    assert len(state._slabs) == 3
    return collect(state, _SLAB_SPEC.n)


def _child_steps_check(expected):
    assert engine._pool is None  # the parent's pool threads are not in this process
    got = _split_steps()
    assert engine._pool is not None
    if not np.array_equal(got, expected):
        raise SystemExit(1)


def _child_steps_two_slabs_within(seconds):
    """Step a 2-slab engine, or exit 3 once ``seconds`` pass: a hung step fails fast."""
    stepped = threading.Event()

    def watchdog():
        if not stepped.wait(seconds):
            os._exit(3)

    threading.Thread(target=watchdog, daemon=True).start()
    state = engine_init(_SLAB_SPEC, 32, 0.7, 3)
    assert len(state._slabs) == 2
    engine_step(state, np.zeros(32))
    stepped.set()


class TestReleasedNoise:
    """The release is s * C^{-1} Z: C times the noise of zero inputs, over s, gives back Z."""

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    @pytest.mark.parametrize(
        "spec",
        [
            bifr_spec(n=40, gamma=0.55, p=16),
            FactorizationSpec(method=Method.BISR, n=40, bandwidth=6),
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=40, lam=0.7),
            FactorizationSpec(method=Method.IDENTITY, n=40),
        ],
        ids=["gamma-bifr", "bisr", "lambda-cgd", "identity"],
    )
    def test_strategy_whitens_the_release(self, release, spec, dim):
        release(spec, dim, 1.3, 7, cpus=(2,))  # d = 8193 in two slabs


class TestDenseReference:
    def test_refuses_rows_past_the_horizon(self):
        with pytest.raises(ValueError, match="exceeds spec horizon"):
            engine_dense_reference(bifr_spec(n=16), 2, 1.0, 0, 17)

    def test_degenerate_band_rows_are_fresh_noise(self):
        spec = bifr_spec(n=8, p=1, gamma=0.5)
        ref = engine_dense_reference(spec, 3, 2.5, 4, 8)
        Z = GaussianStream.from_seed(4).normal((8, 3))
        np.testing.assert_array_equal(ref, 2.5 * Z)


def traced_peak(run, warm_up):
    """Peak bytes tracemalloc sees while ``run()`` runs, after an untraced ``warm_up()``."""
    warm_up()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_steps(dim):
    """``steps(state, m)`` steps ``state`` m times on zeros into one ``out``, both made here."""
    x, out = np.zeros(dim), np.empty(dim)

    def steps(state, m):
        for _ in range(m):
            engine_step(state, x, out=out)

    return steps


class TestMemoryContract:
    def test_steady_state_step_allocates_no_vectors(self):
        dim = 4096
        state, steps = engine_init(bifr_spec(n=256, p=8), dim, 1.0, 0), zero_steps(dim)
        # after warming up scratch, token bookkeeping only: far below one
        # extra dim-sized vector per step
        assert traced_peak(lambda: steps(state, 8), lambda: steps(state, 16)) < 8 * dim

    def test_uneven_window_chunks_allocate_no_vectors(self):
        # p=15 rows of 1000 draws are filled 4 rows at a time: 4, 4, 4, then 3
        dim = 1000
        state, steps = engine_init(bifr_spec(n=64, p=15), dim, 1.0, 0), zero_steps(dim)
        assert traced_peak(lambda: steps(state, 8), lambda: steps(state, 20)) < 8 * dim

    def test_narrow_window_step_allocates_no_block(self):
        # release-narrow's shape: 64 rows of 16 draws, one fill and one reduce
        p, dim = 64, 16
        state, steps = engine_init(bifr_spec(n=256, p=p), dim, 1.0, 0), zero_steps(dim)
        # token and seek bookkeeping only: half of one copy of the 8 KiB block
        assert traced_peak(lambda: steps(state, 8), lambda: steps(state, p + 8)) < 4 * p * dim

    def test_init_holds_only_the_band(self):
        # release-narrow's shape: two n-long arrays would take 1 MiB; the
        # untraced init warms up imports and caches
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=65536, gamma=0.5, bandwidth=64)
        init = functools.partial(engine_init, spec, 16, 1.0, 0)
        assert traced_peak(init, init) < 64 * 1024

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_slab_pieces_allocate_no_vectors(self, monkeypatch, cpus):
        # each slab draws each row in two or more pieces, some ragged
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        dim = 3 * engine._PIECE_DRAWS + 5
        state, steps = engine_init(bifr_spec(n=32, p=4), dim, 1.0, 0), zero_steps(dim)
        assert len(state._slabs) == cpus and slab_pieces(state) >= 2 * cpus
        # warm up scratch and pool threads
        assert traced_peak(lambda: steps(state, 4), lambda: steps(state, 6)) < 8 * dim

    def test_split_fills_share_the_stream_scratch(self, monkeypatch):
        # each step is four column slabs, three of them on pool threads, on any host
        monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
        dim = 4 * engine._SLAB_MIN_DRAWS
        state, steps = engine_init(bifr_spec(n=32, p=4), dim, 1.0, 0), zero_steps(dim)
        assert traced_peak(lambda: steps(state, 4), lambda: steps(state, 6)) < 8 * dim

    def test_small_trials_hold_one_scratch_pair(self, monkeypatch):
        monkeypatch.setattr(engine, "_executor", refuse_pool)
        # design-session's shape, 512 x 8 = 4096 draws per trial, and wide
        # trials of 2^17 and 2^20 draws, all on this thread, the CPU count unread
        p = 16
        for n, dim, trials in [(512, 8, 20), (2048, 64, 20), (16384, 64, 2)]:
            kw = dict(dim=dim, budget=None, trials=trials, seed=3, noise_scale=1.0)
            run = functools.partial(run_prefix_release, bifr_spec(n=n, p=p), None, **kw)
            # the one window of p - 1 carried rows and one block of
            # R = min(max(256, p + 1), n) rows, whatever the horizon, and 16 KiB
            # for the band, one column's filter output and the stream: no
            # n x dim noise array and no n-long series
            rows = min(max(256, p + 1), n)
            assert traced_peak(run, run) < (p - 1 + rows) * dim * 8 + 16 * 1024, (n, dim)

    def test_trial_memory_does_not_grow_with_the_horizon(self):
        # one n-long inverse series would take 2 MiB at n = 2^18; a trial holds
        # its (p - 1 + R) x d window and the band
        spec, short = bifr_spec(n=2**18, gamma=0.55, p=32), bifr_spec(n=512, gamma=0.55, p=32)
        kw = dict(dim=1, budget=None, trials=1, seed=0, noise_scale=1.0)
        peak = traced_peak(
            lambda: run_prefix_release(spec, None, **kw),
            lambda: run_prefix_release(short, None, **kw),  # warm up
        )
        assert peak < 64 * 1024

    def test_scratch_does_not_grow_with_dim(self, monkeypatch):
        # a row of 2^18 draws would take 2 MiB; the scratch holds one 64 KiB
        # piece per slab, on the two slabs pinned here
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        p, dim = 4, 1 << 18
        spec, steps = bifr_spec(n=32, p=p), zero_steps(dim)
        # the untraced first slab step imports and starts the slab pool
        peak = traced_peak(
            lambda: steps(engine_init(spec, dim, 1.0, 0), p + 1),
            lambda: steps(engine_init(spec, dim, 1.0, 1), 1),
        )
        assert peak < 2 * engine._PIECE_DRAWS * 8 + 64 * 1024


class TestStats:
    @pytest.mark.parametrize(
        "p, dim", [(1, 5), (2, 3), (16, 8), (64, 16), (4, 4097), (3, (1 << 16) + 3)]
    )
    def test_counts_match_the_draws(self, release, p, dim):
        """Fresh and regenerated draws add up to what the fill calls drew."""
        release(bifr_spec(n=2 * p + 3, p=p), dim, 1.0, 0)

    def test_fresh_engine(self):
        stats = engine_init(bifr_spec(n=16, p=4), 8, 1.0, 0).stats()
        # token, 4 scales, and 4 rows of 8 draws under a sum row plus their scales
        assert stats == dict(
            step=0, horizon_left=16, fresh_draws=0, regenerated_draws=0,
            state_bytes=prng.TOKEN_BYTES + 4 * 8 + 5 * 8 * 8 + 4 * 8 * 8,
        )

    def test_state_bytes_do_not_grow_with_dim(self, monkeypatch):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            state = engine_init(bifr_spec(n=64, p=16), 1 << 20, 1.0, 0)
            assert state.stats()["state_bytes"] < cpus * engine._PIECE_DRAWS * 8 + 4096

    @pytest.mark.parametrize("cpus, piece", [(1, 1 << 13), (2, 1 << 13), (3, 5463), (4, 4097)])
    def test_state_bytes_count_every_slab(self, monkeypatch, cpus, piece):
        # d = 2^14 + 3 in k slabs, each with a piece of min(ceil(d / k), 2^13)
        # draws: at most 2^13 per slab, and about one vector over all of them
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        dim = (1 << 14) + 3
        state = engine_init(bifr_spec(n=8, p=4), dim, 1.0, 0)
        assert len(state._slabs) == cpus
        scratch = cpus * piece * 8
        assert scratch <= min(cpus * engine._PIECE_DRAWS, dim + cpus) * 8
        assert state.stats()["state_bytes"] == prng.TOKEN_BYTES + 4 * 8 + scratch

    @pytest.mark.parametrize(
        "p, dim, n, cpus, state_bytes",
        [
            # train-wide: a 64 KiB piece per slab, the token and 16 scales
            (16, 1 << 17, 16384, 1, 65_696),
            (16, 1 << 17, 16384, 2, 131_232),
            (16, 1 << 17, 16384, 4, 262_304),
            # release-narrow: one slab of 64 whole rows under a sum row, on any host
            (64, 16, 65536, 1, 17_056),
            (64, 16, 65536, 4, 17_056),
        ],
        ids=["train-wide-1", "train-wide-2", "train-wide-4", "release-narrow-1", "release-narrow-4"],
    )
    def test_bench_shape_state_bytes(self, monkeypatch, p, dim, n, cpus, state_bytes):
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=0.55, bandwidth=p)
        assert engine_init(spec, dim, 1.0, 0).stats()["state_bytes"] == state_bytes

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("p, dim", [(16, 8), (4, 4097), (3, (1 << 15) + 5)])
    def test_stream_ends_each_step_at_its_window_end(self, release, cpus, p, dim):
        """After step i, state.gen stands at origin + (i+1)*d: the next fresh counter."""
        release(bifr_spec(n=2 * p, p=p), dim, 1.0, 0, cpus=(cpus,))


def _bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTracer:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_traced_slab_steps_account_for_every_draw(self, monkeypatch, cpus):
        """The bench's trace self-check holds when slabs fill on pool threads."""
        import bifr

        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        p, dim, first, last = 4, (1 << 15) + 3, 2, 9
        state = bifr.engine_init(bifr_spec(n=last, p=p), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(first):
            bifr.engine_step(state, x, out=out)
        tracer = _bench_tracing().Tracer()
        tracer.seen(state.gen.get_state())
        tracer.install()
        try:
            for _ in range(first, last):
                bifr.engine_step(state, x, out=out)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        # bench/workloads.py check_fill_draws: step i draws min(i, p-1) + 1 rows
        expected = dim * sum(min(i, p - 1) + 1 for i in range(first, last))
        assert totals["prng.fill"]["draws"] == expected
        assert totals["engine.engine_step"]["calls"] == last - first


class TestMonteCarlo:
    def schema(self, n, k=1):
        return ParticipationSchema(n=n, b=n // k, k=k)

    def test_zero_scale(self):
        est = run_prefix_release(
            bifr_spec(n=16), None, dim=2, budget=None, trials=5, seed=0,
            noise_scale=0.0,
        )
        assert est.estimate == 0.0

    def test_requires_budget_or_scale(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_prefix_release(
                bifr_spec(n=16), self.schema(16), dim=2, budget=None, trials=5, seed=0
            )

    def test_refuses_budget_and_scale_together(self):
        # The budget would be silently dropped for the explicit scale.
        with pytest.raises(ValueError, match="exactly one"):
            run_prefix_release(
                bifr_spec(n=16), self.schema(16), dim=2, budget=PrivacyBudget(1.0, 1e-5),
                trials=5, seed=0, noise_scale=2.0,
            )

    @pytest.mark.parametrize(
        "schema_n, budget, scale",
        [(16, None, 1.0), (1000, None, 1.0), (None, PrivacyBudget(1.0, 1e-5), None)],
        ids=["schema-beside-scale", "other-n-schema-beside-scale", "budget-without-schema"],
    )
    def test_takes_a_schema_exactly_with_a_budget(self, schema_n, budget, scale):
        """A bare scale is calibrated for no schema; a budget for the sensitivity under one."""
        schema = None if schema_n is None else self.schema(schema_n)
        with pytest.raises(ValueError, match="give a schema with a privacy budget"):
            run_prefix_release(
                bifr_spec(n=16), schema, dim=2, budget=budget, trials=5, seed=0,
                noise_scale=scale,
            )

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_scale_that_releases_no_privacy(self, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            run_prefix_release(
                bifr_spec(n=16), None, dim=2, budget=None, trials=5, seed=0,
                noise_scale=scale,
            )

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_refuses_a_scale_whose_squares_could_overflow(self, dim):
        """Refused once scale * u is not finite, u = 8.21 * n * ||band||_1; 1e300 is a scale.

        The squares are of unit noise, so no scale makes them overflow: at
        1e300 the estimate is 1e300 times the unit estimate.
        """
        kw = dict(dim=dim, budget=None, trials=2, seed=0)
        spec = bifr_spec(n=8)
        u = 8.21 * spec.n * np.abs(inverse_band(spec)).sum()
        with pytest.raises(ValueError, match="overflow"):
            run_prefix_release(spec, None, **kw, noise_scale=sys.float_info.max / u * 1.01)
        est = run_prefix_release(spec, None, **kw, noise_scale=1e300)
        assert est.estimate == 1e300 * run_prefix_release(spec, None, **kw, noise_scale=1.0).estimate
        assert 1e300 < est.estimate < math.inf and math.isfinite(est.stderr)

    @pytest.mark.parametrize("dim", [16, 8193], ids=["block", "slab"])
    def test_largest_scale_inside_the_bound_gives_finite_figures(self, dim):
        n, trials, spec = 8, 2, bifr_spec(n=8)
        # u = 8.21 * n * ||band||_1 bounds a cumulative sum of unit noise, and so the
        # unit estimate and twice its stderr: scale * u must be finite
        u = 8.21 * n * np.abs(inverse_band(spec)).sum()
        scale = sys.float_info.max / u * (1 - 2**-40)
        est = run_prefix_release(
            spec, None, dim=dim, budget=None, trials=trials, seed=0, noise_scale=scale
        )
        assert math.isfinite(est.estimate) and math.isfinite(est.stderr)
        assert est.estimate > scale

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_prefix_release(
                bifr_spec(n=16), None, dim=2, budget=None, trials=0,
                seed=0, noise_scale=1.0,
            )

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_validation(self, dim):
        # dim = 0 would average over no coordinates: a NaN estimate.
        with pytest.raises(ValueError, match="dim"):
            run_prefix_release(
                bifr_spec(n=16), None, dim=dim, budget=None, trials=5,
                seed=0, noise_scale=1.0,
            )

    def test_numpy_integer_arguments_give_the_int_estimate(self):
        spec = bifr_spec(n=16)
        est = run_prefix_release(
            spec, None, dim=np.int64(2), budget=None, trials=np.int64(5),
            seed=np.int64(1), noise_scale=1.0,
        )
        assert est == run_prefix_release(
            spec, None, dim=2, budget=None, trials=5, seed=1, noise_scale=1.0
        )
        assert type(est.trials) is int

    def test_identity_matches_analytic(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=16)
        schema = self.schema(16)
        budget = PrivacyBudget(1.0, 1e-5)
        est = run_prefix_release(spec, schema, dim=4, budget=budget, trials=3000, seed=1)
        analytic = rmse(spec, schema, budget).scaled_rmse
        assert abs(est.estimate - analytic) < 3.0 * est.stderr + 1e-12

    @pytest.mark.parametrize("dim", [1, 8])
    @pytest.mark.parametrize(
        "spec, p",
        [
            (bifr_spec(n=96, gamma=0.55, p=16), 16),
            (FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=96, lam=0.7), 2),
            (FactorizationSpec(method=Method.IDENTITY, n=96), 1),
            (bifr_spec(n=512, gamma=0.55, p=16), 16),
            (bifr_spec(n=700, gamma=0.55, p=16), 16),
            (bifr_spec(n=1024, gamma=0.55, p=300), 300),
        ],
        ids=[
            "gamma-bifr-p16", "lambda-cgd", "identity", "two-blocks", "ragged-blocks",
            "blocks-of-p-plus-1",
        ],
    )
    def test_equals_lfilter_formulation(self, spec, p, dim):
        """Bit for bit the estimate of filtering each trial's noise with lfilter.

        Each trial adds its columns in order.  Each column's squares are summed
        by np.sum over blocks of R = min(max(_TRIAL_ROWS, p + 1), n) rows, the
        blocks in order.  At n = 2R = 512 numpy's pairwise sum splits at the
        block boundary, so one np.sum per column pins the bits the estimate
        had before trials were drawn in blocks.
        """
        from scipy.signal import lfilter

        n, trials, seed, scale = spec.n, 4, 11, 1.7
        band = inverse_band(spec)
        assert band.size == p
        rows = min(max(engine._TRIAL_ROWS, p + 1), n)
        if n == 2 * rows:
            rows = n
        vals = np.empty(trials)
        for t in range(trials):
            Z = GaussianStream(prng._seed_token(seed, t + 1)).normal((n, dim))
            sums = np.cumsum(lfilter(band, [1.0], Z, axis=0), axis=0)
            total = 0.0
            for c in range(dim):
                column = 0.0
                for a in range(0, n, rows):
                    column += np.sum(sums[a : a + rows, c] * sums[a : a + rows, c])
                total += column
            vals[t] = total / (n * dim)
        mean = float(np.mean(vals))
        unit = math.sqrt(mean)
        unit_se = unit * float(np.std(vals / mean, ddof=1)) / math.sqrt(trials) / 2.0
        estimate, stderr = scale * unit, scale * unit_se  # the scale enters once
        got = run_prefix_release(
            spec, None, dim=dim, budget=None, trials=trials, seed=seed,
            noise_scale=scale,
        )
        assert (got.estimate, got.stderr) == (estimate, stderr)

    def test_deterministic(self):
        kw = dict(dim=3, budget=None, trials=50, seed=6, noise_scale=1.0)
        a = run_prefix_release(bifr_spec(n=32), None, **kw)
        b = run_prefix_release(bifr_spec(n=32), None, **kw)
        assert a == b

    def test_split_trials_give_the_same_bits(self, monkeypatch):
        """Three blocks per trial, 600 x 24 draws: no slab pool, CPU count unread, same bits."""
        monkeypatch.setattr(engine, "_executor", refuse_pool)
        kw = dict(dim=24, budget=None, trials=7, seed=5, noise_scale=1.0)
        run = functools.partial(run_prefix_release, bifr_spec(n=600, gamma=0.55, p=16), None, **kw)
        first = run()
        assert run() == first

    @pytest.mark.parametrize("scale", [1e-170, 1e-90, 2.5, 1e100, 1e300])
    def test_figures_are_exact_multiples_of_the_scale(self, scale):
        """The unit figures times the scale, bit for bit: none underflows or overflows.

        Scaling each trial's mean square by scale^2 read 0 for both figures
        at 1e-170, lost stderr digits from about 1e-78, and refused 1e300.
        """
        kw = dict(dim=1, budget=None, trials=3, seed=0)
        spec = FactorizationSpec(method=Method.IDENTITY, n=16)
        unit = run_prefix_release(spec, None, **kw, noise_scale=1.0)
        est = run_prefix_release(spec, None, **kw, noise_scale=scale)
        assert (est.estimate, est.stderr) == (scale * unit.estimate, scale * unit.stderr)
        assert est.estimate > 0.0 and est.stderr > 0.0

    @pytest.mark.parametrize(
        "scale", [np.float32(1.7), np.float16(2.5), 3, np.int64(3)],
        ids=["float32", "float16", "int", "int64"],
    )
    def test_a_scale_enters_as_a_python_float(self, scale):
        """No figure is computed in the caller's type: float32 gives its float value's estimate."""
        kw = dict(dim=2, budget=None, trials=4, seed=2)
        est = run_prefix_release(bifr_spec(n=16), None, **kw, noise_scale=scale)
        assert est == run_prefix_release(bifr_spec(n=16), None, **kw, noise_scale=float(scale))
        assert type(est.noise_scale) is float

    def test_negative_zero_scale_is_stored_as_zero(self):
        est = run_prefix_release(
            bifr_spec(n=16), None, dim=2, budget=None, trials=3, seed=0, noise_scale=-0.0
        )
        assert not np.signbit([est.estimate, est.stderr, est.noise_scale]).any()

    def test_refuses_unscaled_sums_that_could_overflow(self):
        """Noise scaled by 1e-250 fits, but u^2 * n, u = 8.21 * n * ||band||_1, is no float.

        n = 10^102 passes the exact integer bound n^3 <= 1.8e308 and fails the
        float one; 10^103 fails the integer bound, and 10^400, no float at
        all, raised OverflowError.  No horizon of these is allocated.
        """
        for n in (10**102, 10**103, 10**400):
            with pytest.raises(ValueError, match="unscaled running sums could overflow"):
                run_prefix_release(
                    bifr_spec(n=n), None, dim=1, budget=None, trials=3, seed=0,
                    noise_scale=1e-250,
                )

    def test_refuses_unscaled_sums_whose_mean_could_overflow(self):
        """At n = 16, u^2 * n is finite, u^2 summed over 10^305 trials is not.

        Those trials' values would not fit any memory, so a missing refusal
        fails the allocation instead; 10^400 trials, no float at all, raised
        OverflowError.
        """
        kw = dict(dim=1, budget=None, seed=0, noise_scale=1e-250)
        assert run_prefix_release(bifr_spec(n=16), None, trials=3, **kw).estimate > 0.0
        for trials in (10**305, 10**400):
            with pytest.raises(ValueError, match="unscaled running sums could overflow"):
                run_prefix_release(bifr_spec(n=16), None, trials=trials, **kw)

    @pytest.mark.parametrize(
        "spec",
        [
            bifr_spec(n=16, gamma=0.55, p=4),
            FactorizationSpec(method=Method.BISR, n=16, bandwidth=4),
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=16, lam=0.7),
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=16, lam=0.0),
            FactorizationSpec(method=Method.IDENTITY, n=16),
            FactorizationSpec(method=Method.GAMMA_BFR, n=16, gamma=0.5, bandwidth=4),
            FactorizationSpec(method=Method.INV_DECAY, n=16, c=0.0, bandwidth=4),
        ],
        ids=["gamma-bifr", "bisr", "lambda-cgd", "lambda-cgd-0", "identity", "gamma-bfr",
             "inv-decay"],
    )
    def test_takes_the_engines_methods(self, spec):
        """The engine and the harness take one band: both accept a spec, or both refuse it alike."""

        def refusal(call):
            try:
                call()
            except ValueError as exc:
                return str(exc)
            return None

        kw = dict(budget=None, trials=2, seed=0, noise_scale=1.0)
        engine_refusal = refusal(lambda: engine_init(spec, 2, 1.0, seed=0))
        harness_refusal = refusal(lambda: run_prefix_release(spec, None, dim=2, **kw))
        assert harness_refusal == engine_refusal
        if spec.method in (Method.GAMMA_BFR, Method.INV_DECAY):
            assert engine_refusal == f"{spec.method.value} does not have a banded inverse"
        else:
            assert engine_refusal is None


class TestFloatingPointLeak:
    """A single-row step releases y = fl(x + fl(s*z)); its low bits must not show x.

    At x = 1 and |y| < 0.5, Sterbenz's lemma makes y = 1 + fl(s*z) exact, so y
    is a multiple of 2^-53; at x = 0, y = fl(s*z) mostly is not (Mironov, CCS 2012).
    """

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP item 2: single-row steps leak x through the low bits of y",
    )
    @pytest.mark.parametrize(
        "dim, seeds", [(1 << 16, (0,)), (2048, (0, 1, 2))], ids=["slab", "block"]
    )
    def test_step_zero_hides_the_input_in_its_low_bits(self, monkeypatch, dim, seeds):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)  # d = 2^16 in two slabs on any host
        spec = bifr_spec(n=64, gamma=0.55, p=4)
        sens = sens_exact(strategy_coeffs(spec), ParticipationSchema(n=64, b=64, k=1))
        scale = gaussian_sigma(PrivacyBudget(1.0, 1e-5)) * sens
        freq = []
        for x in (0.0, 1.0):
            y = np.concatenate(
                [engine_step(engine_init(spec, dim, scale, s), np.full(dim, x)) for s in seeds]
            )
            off_grid = np.modf(y * 2.0**53)[0] != 0.0
            freq.append(np.mean((np.abs(y) < 0.5) & off_grid))
        assert freq[0] == freq[1]
