"""Time meshes on [0, 1] and the boundary-graded spatial mesh.

Both geometric meshes share one dyadic layout at depth L: the leading
interval [0, 2**-L] and then [2**(i-1-L), 2**(i-L)] for i = 1..L, each split
into N equal steps.  The geometric time mesh is that layout; it resolves the
t -> 0 singularity of the evolution being stepped.  The uniform mesh is the
plain N-step grid.  The graded spatial mesh is the layout at depth L - 1
scaled into [0, 1/2] and mirrored, to concentrate elements at the domain
endpoints.  A time mesh is nothing but its breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MIN_STEP = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True, eq=False)
class TimeMesh:
    """Ordered breakpoints of a stepping grid on [0, 1].

    At least two points of [0, 1], each step at least the smallest normal
    double long (a shorter k underflows in the step's weights); the first
    point need not be 0 nor the last 1.  Every step thus has
    0 <= t < t + k <= 1, which keeps its shifted systems SPD (see
    ``stepping``).  ``t_left`` and ``k`` hold, per step, the left endpoint
    and the step size actually used by the recurrences.
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        pts = np.array(self.breakpoints, dtype=np.float64)
        # NaN fails every comparison, so it is refused with the rest
        if not (pts.ndim == 1 and len(pts) >= 2 and pts[0] >= 0.0 and pts[-1] <= 1.0
                and np.all(np.diff(pts) >= _MIN_STEP)):
            raise ValueError("time mesh breakpoints must be at least two increasing points "
                             f"in [0, 1], no closer than {_MIN_STEP:.3g}, got {pts}")
        pts.setflags(write=False)
        object.__setattr__(self, "breakpoints", pts)

    @property
    def num_steps(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def t_left(self) -> np.ndarray:
        return self.breakpoints[:-1]

    @property
    def k(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def is_integer(x) -> bool:
    """Whether x is an integer and not a bool, which Python counts as one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_steps(N, least: int = 1, name: str = "N") -> None:
    """Refuse a count (``name`` in the message) not an integer >= ``least``:
    step counts, but also the cells per side of a tensor grid and the
    points of a sweep."""
    if not is_integer(N):
        raise ValueError(f"{name} must be an integer, got {N!r}")
    if N < least:
        raise ValueError(f"{name} must be >= {least}, got {N}")


def require_depth(L) -> None:
    """Refuse a dyadic depth L that is not an integer >= 1."""
    if not is_integer(L):
        raise ValueError(f"L = {L!r} must be an integer")
    if L < 1:
        raise ValueError(f"L = {L} must be >= 1")


def refinement_level_for(lambda_max: float) -> int:
    """Smallest L with 2**-L <= 1/lambda_max, i.e. ceil(log2(lambda_max))."""
    return math.ceil(math.log2(lambda_max))


def experiment_refinement_level(h_min: float) -> int:
    """The experiments' choice L = ceil(2 |log h| / log 2) for mesh size h."""
    return math.ceil(2.0 * abs(math.log2(h_min)))


def _dyadic_layout(L: int, N: int) -> np.ndarray:
    """The (L+1)*N + 1 points from 0 to 1 of the dyadic layout at depth L.

    Interval n takes the points s_n + j k_n, j < N, from its exact dyadic
    start s_n; its end is the next interval's start, so every coarse
    endpoint is exact for any N.
    """
    ends = np.ldexp(1.0, np.arange(-L, 1))
    starts = np.concatenate([[0.0], ends[:-1]])
    k = (ends - starts) / N
    return np.append(starts[:, None] + np.arange(N) * k[:, None], 1.0)


def build_geometric_mesh(lambda_max: float | None, N: int, L_override: int | None = None) -> TimeMesh:
    """Geometrically refined mesh with (L+1)*N intervals.

    L defaults to ceil(log2(lambda_max)) for a finite lambda_max > 1, which
    guarantees k_0 * lambda_max <= 1/N.  Breakpoints are exact dyadics;
    every coarse interval endpoint t_{n,N} coincides bit-for-bit with t_{n+1}.
    """
    require_steps(N)
    L = L_override
    if L is None:
        # NaN fails every comparison, so it is refused too
        if lambda_max is None or not 1.0 < lambda_max < math.inf:
            raise ValueError(f"lambda_max must be in (1, inf) without L_override, got {lambda_max}")
        L = refinement_level_for(lambda_max)
    require_depth(L)
    return TimeMesh(_dyadic_layout(L, N))


def build_uniform_mesh(N: int) -> TimeMesh:
    require_steps(N)
    pts = np.arange(N + 1, dtype=np.float64) / N
    pts[-1] = 1.0
    return TimeMesh(pts)


def graded_refinement_level(N: int) -> int:
    """Spatial grading depth: smallest L with 2**-L < h**2 for h = 1/(4N)."""
    h = 1.0 / (4 * N)
    return int(math.floor(2 * math.log2(1.0 / h))) + 1


def build_graded_spatial_mesh(N: int) -> np.ndarray:
    """Boundary-graded node set on [0, 1], symmetric about 1/2.

    On [0, 1/2] the dyadic intervals [2**(n-1-L), 2**(n-L)] for n < L plus
    the leading [0, 2**-L] are each split into N equal elements, giving
    element size h = 1/(4N) on [1/4, 1/2] and a first element narrower than
    h**2; the right half mirrors the left.  2*L*N elements in total.  The
    left half is the dyadic layout at depth L - 1 halved, which is exact.
    """
    require_steps(N, 2)
    left = 0.5 * _dyadic_layout(graded_refinement_level(N) - 1, N)
    return np.concatenate([left, 1.0 - left[:-1][::-1]])
