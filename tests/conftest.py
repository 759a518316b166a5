"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from idemsync import Dfa


@pytest.fixture
def built_sizes(monkeypatch):
    """The state count of every ``Dfa`` constructed while the test runs,
    in construction order, through ``Dfa(...)`` or the private constructor
    for rows already checked."""
    sizes = []
    validate = Dfa.__post_init__
    from_checked = Dfa._from_checked.__func__

    def recording(self):
        sizes.append(self.n)
        validate(self)

    def recording_checked(cls, n, letters, delta):
        sizes.append(n)
        return from_checked(cls, n, letters, delta)

    monkeypatch.setattr(Dfa, "__post_init__", recording)
    monkeypatch.setattr(Dfa, "_from_checked", classmethod(recording_checked))
    return sizes


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the most memory, in bytes, that one call
    ``fn()`` held at once beyond what was held before it, its result
    included, as ``tracemalloc`` counts it; for tests that pin a layer's
    memory."""

    def measure(fn) -> int:
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure
