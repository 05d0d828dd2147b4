"""P1/Q1 finite element assembly on (0,1) and (0,1)^2 with Dirichlet walls.

1D operators are assembled on arbitrary strictly increasing node sets and
hold their CSR pair (M, K).  2D operators are tensor products of a uniform
1D factor and hold only that factor: their stiffness and mass matrices,
K2 = kron(K, M) + kron(M, K) and M2 = kron(M, M), are built from it on
first read and kept, so assembly allocates O(n) for n dofs per side.
Boundary rows/columns are eliminated, keeping both matrices SPD.  The
mass products and solves of this module apply the 1D factor along both
axes of the n x n coefficient grid in 2D, never M2: ``mass_apply`` is the
product behind ``m_inner`` and the check of ``l2_project``, and
``mass_solver`` the solve behind ``l2_project``, a LAPACK factor of the 1D
mass matrix (the time steps need no mass solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
# bound here, not looked up in ``_kernels``: perfbench/tracing.py counts the
# calls of ``_kernels.tridiag_matvec`` as the 1D step's mass applies
from ._kernels import tridiag_matvec

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

DATA_CASE_DIM = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2}


def _kron_mass(f1: DiscreteOperator) -> sp.csr_matrix:
    return sp.kron(f1.mass, f1.mass).tocsr()


def _kron_stiffness(f1: DiscreteOperator) -> sp.csr_matrix:
    return (sp.kron(f1.stiffness, f1.mass) + sp.kron(f1.mass, f1.stiffness)).tocsr()


def _grid_coords(f1: DiscreteOperator) -> np.ndarray:
    x = f1.dof_coords
    return np.column_stack([np.repeat(x, len(x)), np.tile(x, len(x))])


class _FromFactor:
    """A field that a 1D operator is given and a tensor operator builds on
    first read, ``build(op.factor)``, and then keeps: until then it is None
    in ``vars(op)``."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, op, owner=None):
        if op is None:
            return None  # the default: a tensor operator is given none
        value = op.__dict__[self.name]
        if value is None:
            value = op.__dict__[self.name] = self.build(op.factor)
        return value

    def __set__(self, op, value):
        op.__dict__[self.name] = value


# no generated repr: it would read, and so build, a tensor operator's pair
@dataclass(frozen=True, eq=False, repr=False)
class DiscreteOperator:
    """Mass/stiffness pair (M, K) over the interior degrees of freedom.

    An operator with a ``factor`` is 2D, the tensor product of that 1D
    factor with itself, and holds nothing else of size above O(n): its
    ``mass``, ``stiffness`` and ``dof_coords`` (shape (n**2, 2), row-major,
    x-major ordering) are built from the factor on first read and kept.
    """

    nodes: np.ndarray
    factor: "DiscreteOperator | None" = None
    mass: sp.csr_matrix = _FromFactor(_kron_mass)
    stiffness: sp.csr_matrix = _FromFactor(_kron_stiffness)
    dof_coords: np.ndarray = _FromFactor(_grid_coords)
    # (diagonal, off-diagonal) of the 1D matrices, reused heavily by the steppers
    mass_bands: tuple = None
    stiffness_bands: tuple = None

    @property
    def n_dofs(self) -> int:
        return self.mass.shape[0] if self.factor is None else self.factor.n_dofs ** 2

    @property
    def dim(self) -> int:
        return 1 if self.factor is None else 2


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
    """Assemble interior M, K for piecewise linears on the given nodes.

    Element contributions are the exact integrals of hat functions:
    stiffness (1/h)[[1,-1],[-1,1]] and mass (h/6)[[2,1],[1,2]] per element.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if len(nodes) < 3:
        raise ValueError("need at least 3 nodes (one interior dof)")
    h = np.diff(nodes)
    if np.any(h <= 0):
        raise ValueError("nodes must be strictly increasing")
    n = len(nodes) - 2
    hl, hr = h[:-1], h[1:]
    Kd = 1.0 / hl + 1.0 / hr
    Kl = -1.0 / h[1:-1]
    Md = (hl + hr) / 3.0
    Ml = h[1:-1] / 6.0
    K = sp.diags([Kl, Kd, Kl], [-1, 0, 1], format="csr")
    M = sp.diags([Ml, Md, Ml], [-1, 0, 1], format="csr")
    return DiscreteOperator(
        mass=M,
        stiffness=K,
        dof_coords=nodes[1:-1].copy(),
        nodes=nodes.copy(),
        mass_bands=(Md, Ml),
        stiffness_bands=(Kd, Kl),
    )


def assemble_2d_tensor(n_per_side: int) -> DiscreteOperator:
    """Tensor-product bilinear elements on a uniform n x n grid of (0,1)^2:
    the 1D factor only (see ``DiscreteOperator``)."""
    if n_per_side < 3:
        raise ValueError("need n_per_side >= 3 for at least one interior node per axis")
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
    if tag not in DATA_CASE_DIM:
        raise ValueError(f"unknown data case {tag!r}")
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
    cuts = np.unique(np.concatenate([nodes, inner])) if inner else nodes
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
    if op.dim == 1:
        if isinstance(f, str):
            if DATA_CASE_DIM.get(f) != 1:
                raise ValueError(f"data case {f!r} does not match a 1D operator")
            splits = (0.5,) if f == "c" else ()
            return _element_load_1d(op.nodes, lambda x: data_case(f, x), splits)
        return _element_load_1d(op.nodes, f)
    f1 = op.factor
    if isinstance(f, str):
        if DATA_CASE_DIM.get(f) != 2:
            raise ValueError(f"data case {f!r} does not match a 2D operator")
        if f == "e":
            b1 = _element_load_1d(f1.nodes, lambda x: x * (1.0 - x))
            return np.kron(b1, b1)
        b1 = _indicator_load_1d(f1.nodes)
        return np.kron(b1, b1)
    # tensor Gauss rule: with W[i, g] the weight of Gauss point g against hat
    # function i along one axis, b = W F W^T for F = f on the point grid
    nodes = f1.nodes
    e = np.arange(len(nodes) - 1)
    x0, x1 = nodes[:-1, None], nodes[1:, None]
    half = (x1 - x0) / 2.0
    xs = (x0 + x1) / 2.0 + half * _GAUSS_X
    W = np.zeros((len(nodes), len(e), len(_GAUSS_X)))
    W[e, e] = half * _GAUSS_W * (x1 - xs) / (x1 - x0)
    W[e + 1, e] = half * _GAUSS_W * (xs - x0) / (x1 - x0)
    W = W.reshape(len(nodes), -1)
    X, Y = np.meshgrid(xs.ravel(), xs.ravel(), indexing="ij")
    F = np.asarray(f((X, Y)), dtype=np.float64)
    return (W @ F @ W.T)[1:-1, 1:-1].ravel()


def mass_apply(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """M v for a coefficient vector or each row of a (c, N) block.

    A 1D operator multiplies by its CSR M; a tensor operator applies the 1D
    mass bands along both axes of the n x n grid of each row, as
    M2 = kron(M1, M1), and builds no M2.
    """
    if op.dim == 1:
        return (op.mass @ v.T).T
    n = op.factor.n_dofs
    x = v.reshape(*v.shape[:-1], n, n)
    for _ in range(2):
        # M1 along the last axis, then the two grid axes swapped
        x = tridiag_matvec(*op.factor.mass_bands, x).swapaxes(-1, -2)
    return x.reshape(v.shape)


def mass_solver(op: DiscreteOperator):
    """M^{-1} as a callable, exact up to rounding for every operator assembled here.

    One LAPACK factor of the 1D mass matrix serves both dimensions: a tensor
    operator has M2 = kron(M1, M1), so M2^{-1} applies M1^{-1} along each
    axis of the n x n coefficient array.
    """
    base = op.factor or op
    factor = _kernels.TridiagFactor(*base.mass_bands)
    shape = (base.n_dofs,) * op.dim

    def solve(rhs):
        # M1^{-1} along the first axis, then the axes rotated, op.dim times
        x = rhs.reshape(shape)
        for _ in range(op.dim):
            x = factor.solve(x).T
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
