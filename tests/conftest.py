"""Shared test fixtures."""

import pytest

from entrobound import experiments, norms


class Admissions(list):
    """Admissions to the ascent stack, in order, and the stack's largest live count."""

    peak = 0

    def clear(self):
        super().clear()
        self.peak = 0


@pytest.fixture
def stacks(monkeypatch):
    """Every admission to the ascent stack the test runs, as ``(matrices, [(r, s), ...])``.

    ``matrices`` are the admitted problems' matrices, padded to the stack's
    shape, and ``stacks.peak`` is the most problems the stack held at once.
    Recording starts with the test; ``clear()`` drops the admissions of
    reference solves.
    """
    seen = Admissions()
    admit = norms._admit
    # Forked shares of fig-compare --random admit in other processes, out of sight.
    monkeypatch.setattr(experiments, "_workers", lambda samples: 1)

    def counting(st, batch, *args):
        st = admit(st, batch, *args)
        seen.append((st["m"][-len(batch):], [(r, s) for _, _, r, s in batch]))
        seen.peak = max(seen.peak, len(st["keys"]))
        return st

    monkeypatch.setattr(norms, "_admit", counting)
    return seen


class Turns:
    """The ``norms._stacked_ascent`` stacks started (``passes``) and their turns (``count``)."""

    count = 0
    passes = 0


@pytest.fixture
def turns(monkeypatch):
    """Counts the ascent stacks the test starts and their turns: one per step or empty turn.

    A stack counts once its generator starts, when a solve pass first asks it for a turn.
    """
    seen = Turns()
    ascent = norms._stacked_ascent
    # Forked shares of fig-compare --random take their turns in other processes, out of sight.
    monkeypatch.setattr(experiments, "_workers", lambda samples: 1)

    def counting(feed, opts):
        seen.passes += 1
        for out in ascent(feed, opts):
            seen.count += 1
            yield out

    monkeypatch.setattr(norms, "_stacked_ascent", counting)
    return seen
