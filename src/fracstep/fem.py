"""P1/Q1 finite element assembly on (0,1) and (0,1)^2 with Dirichlet walls.

Every matrix here is a symmetric tridiagonal or a Kronecker product of two.
A 1D operator, assembled on any finite, strictly increasing node set, is
the two bands (diagonal, off-diagonal) of its mass and stiffness matrices
M and K.
A 2D operator is the tensor product of a uniform 1D factor with itself and
holds only that factor: M2 = kron(M, M) and K2 = kron(K, M) + kron(M, K).
Boundary rows/columns are eliminated, keeping both matrices SPD, and
assembly allocates O(n) for n dofs per side.  ``mass_apply`` (the product
behind ``m_inner`` and the check of ``l2_project``) and ``mass_solver``
(the solve behind ``l2_project``, one ``?ptsv`` per axis) apply the 1D mass
bands along each axis of the coefficient grid, in 1D as in 2D.  No
operator holds a sparse matrix, and nothing builds one.  CG's dense copies
of the factor's matrices (``solvers``) and the tensor basis are kept by
``per_operator`` while the operator lives.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

# bound here, not looked up in ``_kernels``: perfbench/tracing.py counts the
# calls of ``_kernels.tridiag_matvec`` as the 1D step's mass applies and of
# ``_kernels.tridiag_solve`` as its shifted solves
from ._kernels import tridiag_matvec, tridiag_solve
from .meshes import require_steps

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

DATA_CASE_DIM = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2}


def require_data_case(tag, dim: int | None = None, of: str | None = None) -> None:
    """Refuse an unknown data case and, given ``dim``, one not ``dim``-D (``of``: the study)."""
    if tag not in DATA_CASE_DIM:
        raise ValueError(f"unknown data case {tag!r}")
    if dim not in (None, DATA_CASE_DIM[tag]):
        raise ValueError(f"data case {tag!r} is {DATA_CASE_DIM[tag]}D, the {of} is {dim}D" if of
                         else f"data case {tag!r} does not match a {dim}D operator")


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Mass/stiffness pair (M, K) over the interior degrees of freedom.

    A 1D operator holds the (diagonal, off-diagonal) bands of M and K.  An
    operator with a ``factor`` is 2D, the tensor product of that 1D factor
    with itself, and holds nothing of size above O(n).
    """

    nodes: np.ndarray
    factor: "DiscreteOperator | None" = None
    mass_bands: tuple = None
    stiffness_bands: tuple = None

    @property
    def n_dofs(self) -> int:
        return (len(self.nodes) - 2) ** self.dim

    @property
    def dim(self) -> int:
        return 1 if self.factor is None else 2

    @property
    def dof_coords(self) -> np.ndarray:
        """The interior nodes in 1D; in 2D the (n**2, 2) grid, row-major,
        x-major ordering."""
        x = self.nodes[1:-1]
        if self.factor is None:
            return x
        return np.column_stack([np.repeat(x, len(x)), np.tile(x, len(x))])


def per_operator(build):
    """``build(op)``, built once per operator and kept while it lives (keyed
    weakly); a value that held its operator would keep both alive for good."""
    table = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(op):
        if op not in table:
            table[op] = build(op)
        return table[op]

    return cached


@dataclass
class GridFunction:
    """Coefficient vector in the interior nodal basis of one operator."""

    coeffs: np.ndarray
    op: DiscreteOperator

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.op.n_dofs,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match operator "
                f"with {self.op.n_dofs} dofs"
            )


def assemble_1d(nodes) -> DiscreteOperator:
    """Assemble the bands of interior M, K for piecewise linears on the given nodes.

    Element contributions are the exact integrals of hat functions:
    stiffness (1/h)[[1,-1],[-1,1]] and mass (h/6)[[2,1],[1,2]] per element.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if len(nodes) < 3:
        raise ValueError("need at least 3 nodes (one interior dof)")
    # a NaN, infinite or overflowing step fails too, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.diff(nodes)
    if not np.all((0 < h) & (h < np.inf)):
        raise ValueError("nodes must be finite and strictly increasing")
    hl, hr = h[:-1], h[1:]
    return DiscreteOperator(
        nodes=nodes.copy(),
        mass_bands=((hl + hr) / 3.0, h[1:-1] / 6.0),
        stiffness_bands=(1.0 / hl + 1.0 / hr, -1.0 / h[1:-1]),
    )


def assemble_2d_tensor(n_per_side: int) -> DiscreteOperator:
    """Tensor-product bilinear elements on a uniform n x n grid of (0,1)^2:
    the 1D factor only (see ``DiscreteOperator``).  n is an integer >= 3,
    for at least two interior nodes per axis."""
    require_steps(n_per_side, 3, "n_per_side")
    f1 = assemble_1d(np.linspace(0.0, 1.0, n_per_side + 1))
    return DiscreteOperator(nodes=f1.nodes, factor=f1)


# ---------------------------------------------------------------------------
# data cases
# ---------------------------------------------------------------------------

def _case_a(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / xi - 1.0 / (1.0 - xi) + 4.0)
    return out


def data_case(tag: str, point):
    """Evaluate one of the named right-hand sides.

    1D: (a) exp(-1/x - 1/(1-x) + 4), (b) x(1-x), (c) min(x, 1-x), (d) 1.
    2D: (e) x(1-x) y(1-y), (f) the indicator of [1/4, 3/4]^2.
    ``point`` is a scalar/array for 1D tags and an (x, y) pair (or arrays)
    for 2D tags.
    """
    require_data_case(tag)
    if DATA_CASE_DIM[tag] == 1:
        x = np.asarray(point, dtype=np.float64)
        if tag == "a":
            val = _case_a(x)
        elif tag == "b":
            val = x * (1.0 - x)
        elif tag == "c":
            val = np.minimum(x, 1.0 - x)
        else:
            val = np.ones_like(x)
        return val if x.ndim else float(val)
    try:
        x, y = point
    except (TypeError, ValueError) as exc:
        raise ValueError(f"data case {tag!r} is 2D and needs an (x, y) point") from exc
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if tag == "e":
        val = x * (1.0 - x) * y * (1.0 - y)
    else:
        val = ((x >= 0.25) & (x <= 0.75) & (y >= 0.25) & (y <= 0.75)).astype(np.float64)
    return val if x.ndim or y.ndim else float(val)


# ---------------------------------------------------------------------------
# load vectors and projection
# ---------------------------------------------------------------------------

def _element_load_1d(nodes, func, split_points=()):
    """b_i = int f phi_i dx with 5-point Gauss per (sub)element.

    Elements crossing a listed split point are integrated on each side, so
    kinks aligned with the splits do not degrade the quadrature.  All
    (sub)elements are done at once: ``func`` gets one (pieces, 5) array of
    Gauss points, and each node sums its contributions from left to right.
    """
    nodes = np.asarray(nodes)
    inner = [s for s in split_points if nodes[0] < s < nodes[-1]]
    cuts = nodes
    if inner:  # sorted, repeats dropped: np.unique would import numpy.ma
        cuts = np.sort(np.concatenate([nodes, inner]))
        cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    a, c = cuts[:-1], cuts[1:]
    e = np.searchsorted(nodes, a, side="right") - 1
    x0, x1 = nodes[e], nodes[e + 1]
    half = (c - a) / 2.0
    xs = ((a + c) / 2.0)[:, None] + half[:, None] * _GAUSS_X
    fv = func(xs)
    left = half * np.sum(_GAUSS_W * fv * (x1[:, None] - xs), axis=1) / (x1 - x0)
    right = half * np.sum(_GAUSS_W * fv * (xs - x0[:, None]), axis=1) / (x1 - x0)
    return _scatter(len(nodes), e, left, right)


def _indicator_load_1d(nodes, lo=0.25, hi=0.75):
    """Exact hat-function integrals of the indicator of [lo, hi]."""
    nodes = np.asarray(nodes)
    x0, x1 = nodes[:-1], nodes[1:]
    c, d = np.maximum(x0, lo), np.minimum(x1, hi)
    e = np.flatnonzero(d > c)
    x0, x1, c, d = x0[e], x1[e], c[e], d[e]
    h = x1 - x0
    left = ((x1 - c) ** 2 - (x1 - d) ** 2) / (2.0 * h)
    right = ((d - x0) ** 2 - (c - x0) ** 2) / (2.0 * h)
    return _scatter(len(nodes), e, left, right)


def _scatter(n_nodes, e, left, right):
    """Interior entries of the node vector that gets left[k] at node e[k]
    and right[k] at node e[k] + 1, added in the order of k (element pieces
    from left to right), then left before right."""
    b = np.zeros(n_nodes)
    np.add.at(b, np.stack([e, e + 1], axis=1).ravel(), np.stack([left, right], axis=1).ravel())
    return b[1:-1]


def load_vector(op: DiscreteOperator, f) -> np.ndarray:
    """Quadrature of f against every interior basis function."""
    f1 = op.factor
    if isinstance(f, str):
        require_data_case(f, op.dim)
        if op.dim == 1:
            splits = (0.5,) if f == "c" else ()
            return _element_load_1d(op.nodes, lambda x: data_case(f, x), splits)
        b1 = load_vector(f1, "b") if f == "e" else _indicator_load_1d(f1.nodes)
        return np.kron(b1, b1)
    if op.dim == 1:
        return _element_load_1d(op.nodes, f)
    # tensor Gauss rule: F = f on the grid of Gauss points, then the 1D
    # element rule along each axis in turn (no BLAS product, so the bits do
    # not depend on the BLAS thread count)
    nodes = f1.nodes
    x0, x1 = nodes[:-1, None], nodes[1:, None]
    half = (x1 - x0) / 2.0
    xs = (x0 + x1) / 2.0 + half * _GAUSS_X
    # the weight of each point against the hat functions of its element's two nodes
    w_left = half * _GAUSS_W * (x1 - xs) / (x1 - x0)
    w_right = half * _GAUSS_W * (xs - x0) / (x1 - x0)
    X, Y = np.meshgrid(xs.ravel(), xs.ravel(), indexing="ij")
    # a callable that returns a scalar, a constant, is broadcast as in 1D
    F = np.broadcast_to(np.asarray(f((X, Y)), dtype=np.float64), X.shape)
    for _ in range(2):
        # the rule along the first axis, then the two axes swapped
        g = F.reshape(*w_left.shape, -1)
        b = np.zeros((len(nodes), g.shape[-1]))
        b[:-1] += np.sum(w_left[:, :, None] * g, axis=1)
        b[1:] += np.sum(w_right[:, :, None] * g, axis=1)
        F = b.T
    return F[1:-1, 1:-1].ravel()


def mass_apply(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """M v for a coefficient vector or each row of a (c, N) block.

    The 1D mass bands are applied along each of the ``op.dim`` axes of the
    coefficient grid of each row, as M2 = kron(M1, M1) in 2D; no sparse
    matrix is built.
    """
    bands = (op.factor or op).mass_bands
    x = v.reshape(*v.shape[:-1], *(len(bands[0]),) * op.dim)
    for _ in range(op.dim):
        # M1 along the last grid axis, then that axis made the first grid axis
        x = np.moveaxis(tridiag_matvec(*bands, x), -1, -op.dim)
    return x.reshape(v.shape)


def mass_solver(op: DiscreteOperator):
    """M^{-1} as a callable, exact up to rounding for every operator assembled here.

    One ``?ptsv`` solve with the 1D mass bands serves both dimensions: a
    tensor operator has M2 = kron(M1, M1), so M2^{-1} applies M1^{-1} along
    each axis of the n x n coefficient array.
    """
    d, e = (op.factor or op).mass_bands
    shape = (len(d),) * op.dim

    def solve(rhs):
        # M1^{-1} along the first axis, then the axes rotated, op.dim times;
        # ?ptsv factors in place, so each solve gets copies of the bands
        x = rhs.reshape(shape)
        for _ in range(op.dim):
            x = tridiag_solve(d.copy(), e.copy(), x).T
        return x.ravel()

    return solve


def l2_project(op: DiscreteOperator, f) -> GridFunction:
    """Orthogonal projection of f onto the FEM space: solve M c = b.

    ``f`` is either a data-case tag or a callable; callables receive node
    arrays (1D) or an (X, Y) pair (2D).
    """
    b = load_vector(op, f)
    c = mass_solver(op)(b)
    residual = np.linalg.norm(mass_apply(op, c) - b)
    scale = np.linalg.norm(b)
    # written so that a NaN residual (say from a NaN-valued f) fails too
    if not residual <= 1e-12 * scale:
        raise ArithmeticError(
            f"projection residual {residual:.2e} exceeds 1e-12 * |b| = {1e-12 * scale:.2e}"
        )
    return GridFunction(c, op)


def m_inner(op: DiscreteOperator, u: GridFunction, v: GridFunction) -> float:
    """The mass-weighted inner product u^T M v (the discrete L2 pairing)."""
    if u.op is not op or v.op is not op:
        raise ValueError("grid functions live on a different operator")
    return float(u.coeffs @ mass_apply(op, v.coeffs))


def m_norm(op: DiscreteOperator, u: GridFunction) -> float:
    return float(np.sqrt(max(m_inner(op, u, u), 0.0)))
