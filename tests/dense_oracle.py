"""Obvious per-pulse and per-click references for the fast pipeline.

DenseTable keeps one PulseState code per pulse and per detector and
counts the 3x3 cells with bincount, the obvious way. It is the
differential oracle for PulseEventTable, and it holds the hand-made
state fixtures of the rate tests, some of which (a dead row with no
click before it) have no sparse form. compute_rates reads only
n_pulses and cell_counts(), so it accepts either table.

greedy_dead_time is the scalar walk that pipeline.apply_dead_time
vectorises: the differential oracle for the shared dead-time thinning.
"""

import numpy as np

from zeroherald.pipeline import PulseState


class DenseTable:
    def __init__(self, d1, d2):
        self.d1 = np.asarray(d1, dtype=np.uint8)
        self.d2 = np.asarray(d2, dtype=np.uint8)
        if self.d1.shape != self.d2.shape or self.d1.ndim != 1:
            raise ValueError("detector state arrays must be 1-d and equal length")

    @classmethod
    def from_clicks(cls, n_pulses, clicks1, dead1, clicks2, dead2):
        return cls(dense_states(n_pulses, clicks1, dead1),
                   dense_states(n_pulses, clicks2, dead2))

    @property
    def n_pulses(self) -> int:
        return self.d1.size

    def cell_counts(self) -> np.ndarray:
        combined = self.d1.astype(np.int64) * 3 + self.d2
        return np.bincount(combined, minlength=9).reshape(3, 3)


def dense_states(n_pulses, clicks, dead):
    """Walk the pulses: each accepted click, then its dead pulses."""
    state = [PulseState.NOCLICK] * n_pulses
    for k in clicks:
        state[k] = PulseState.CLICK
        for j in range(k + 1, min(k + dead, n_pulses - 1) + 1):
            state[j] = PulseState.DEAD
    return np.array(state, dtype=np.uint8)


def greedy_dead_time(click_pulses, dead):
    """Walk the distinct clicks in order, keeping each one that is live."""
    accepted = []
    next_live = None
    for k in sorted(set(int(c) for c in click_pulses)):
        if next_live is None or k >= next_live:
            accepted.append(k)
            next_live = k + dead + 1
    return np.array(accepted, dtype=np.int64)
