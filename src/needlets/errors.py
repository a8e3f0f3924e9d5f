"""Exception types shared across the package.

InvariantError marks violated mathematical contracts (the CLI maps it to
exit code 2); plain ValueError keeps signalling bad arguments/config, and
require_entries raises it for the first array entry that breaks a condition.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InvariantError",
    "NodeSolveError",
    "NormResolutionError",
    "UnresolvedIntegrandError",
    "ProfileError",
    "require_entries",
    "entry_error",
]


class InvariantError(RuntimeError):
    """A mathematical invariant failed to hold at the stated tolerance."""


class NodeSolveError(InvariantError):
    """Quadrature nodes could not be certified to full accuracy."""


class NormResolutionError(RuntimeError):
    """A norm integral did not stabilize under quadrature-order doubling."""


class UnresolvedIntegrandError(RuntimeError):
    """A coefficient integral did not stabilize under order doubling."""


class ProfileError(ValueError):
    """A cutoff profile is unusable (bad kind or broken monotonicity)."""


def require_entries(values: np.ndarray, ok: np.ndarray, label: str, requirement: str) -> None:
    """Raise ValueError naming the first entry of values where the mask ok is False.

    The entry is shown by its full index, label[i] for a vector (a scalar
    is label[0]) and label[r, i] for a stack of runs, with its value and the
    bad count: "observation y[3] = nan is not finite (1 of 8 entries are not)".
    """
    if ok.all():
        return
    values, ok = np.atleast_1d(values, ok)
    bad = np.argwhere(~ok)
    idx = tuple(int(i) for i in bad[0])
    raise entry_error(label, idx, values[idx], requirement, len(bad), values.size)


def entry_error(label: str, idx: tuple, value, requirement: str, n_bad: int, size: int) -> ValueError:
    """require_entries's error for an array read in pieces: its first bad entry and the bad count."""
    return ValueError(
        f"{label}[{', '.join(map(str, idx))}] = {value} is not {requirement} "
        f"({n_bad} of {size} entries are not)"
    )
