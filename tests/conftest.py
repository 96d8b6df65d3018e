"""Fixtures shared by the stream and engine tests."""

import sys
import threading

import pytest

from bifr import prng
from bifr.prng import GaussianStream


@pytest.fixture
def fills(monkeypatch):
    """Every kernel run a fill computes, from any thread: (first counter, draws, thread id)."""
    calls = []
    kernel = prng._fill_kernel

    def recording(out, rng, state, counter):
        calls.append((counter, out.size, threading.get_ident()))
        kernel(out, rng, state, counter)

    monkeypatch.setattr(prng, "_fill_kernel", recording)
    return calls


@pytest.fixture
def seeks(monkeypatch):
    """The counter of every ``GaussianStream.seek`` call, from any thread."""
    counters = []
    seek = GaussianStream.seek

    def recording(gen, counter):
        counters.append(counter)
        return seek(gen, counter)

    monkeypatch.setattr(GaussianStream, "seek", recording)
    return counters


@pytest.fixture
def fast_switching():
    """Hand the interpreter lock between threads as often as it allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
