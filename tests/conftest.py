"""Shared test fixtures."""

import pytest

from entrobound import norms


@pytest.fixture
def stacks(monkeypatch):
    """Every ascent stack the test runs, as ``(matrix stack, [(r, s), ...])`` in order.

    Recording starts with the test; clear the list to drop the stacks of
    reference solves.
    """
    seen = []
    ascent = norms._stacked_ascent

    def counting(m, exps, opts):
        seen.append((m, list(exps)))
        return ascent(m, exps, opts)

    monkeypatch.setattr(norms, "_stacked_ascent", counting)
    return seen
