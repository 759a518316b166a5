"""Fixtures shared by the test modules."""

import pytest

from idemsync import Dfa


@pytest.fixture
def built_sizes(monkeypatch):
    """The state count of every ``Dfa`` constructed while the test runs,
    in construction order."""
    sizes = []
    validate = Dfa.__post_init__

    def recording(self):
        sizes.append(self.n)
        validate(self)

    monkeypatch.setattr(Dfa, "__post_init__", recording)
    return sizes
