"""What is known about the spectrum of (K, M): its bracket and its eigenpairs.

The bracket feeds the runs: a shift delta must lie below the spectrum, and
the theorem's depth L needs a bound above it.  ``spectral_upper_bound``
reads a proven top off the bands, and ``estimate_spectral_bounds`` finds
the bottom by bisection on the definiteness of K - s M, less 1%.

The eigenpairs are the ground-truth oracle.  Diagonalizing
K psi = lambda M psi with M-orthonormal modes makes the exact discrete
fractional power available as a reference, and gives the discrete Sobolev
norms used to grade data smoothness.  Every table lives on a uniform mesh,
whose modes are sines in closed form (Strang & Fix), so there is one basis
per operator kind and no eigensolver: ``SineBasis`` (1D, a DST-I
``sine_transform`` as transform) and ``FoldedSineBasis`` (tensor grid),
each two length-n vectors of the 1D factor.  Any other mesh is refused; the
graded-mesh study takes a fine run as reference.  Mode coefficients are
(v, psi_j)_M: modes^T (M v) in 1D, with M v the band product of
``fem.mass_apply``, so a 1D basis stores no projector.  A tensor 2D
operator has eigenvalues lambda_i + lambda_j and modes psi_i (x) psi_j,
never materialized; as M2 = M1 (x) M1, its coefficients are P^T V P on the
n x n grid V of v with the projector P = M1 modes (Lynch, Rice & Thomas
1964), and the M-norm of v is their Euclidean norm (Parseval).

Sine mode j is symmetric about the midpoint of the grid for odd j and
antisymmetric for even j.  Parity-folding an axis (``_fold``: the sums of
mirrored nodes, then their differences; the first butterfly of the DST,
Van Loan 1992) therefore splits every 2D transform into two half-size
products per side, odd modes on the sum parts and even modes on the
difference parts: half the flops of the dense n x n GEMMs, still GEMMs.
``fold`` is that 1D fold along the first grid axis and then the second;
``unfold`` undoes it in the same order (``_unfold``, which halves each
paired sum and difference).  2D coefficients come in the folded mode order
(odd j, then even j, along each axis; see ``lambda_grid``).  The direct
tensor step keeps its iterate folded for a whole run
(``solvers.TensorDiagSolver``), and ``coefficients`` and ``synthesize``
fold and unfold around the same transforms.  With these contiguous
half-size factors the 2D bits of a table do not depend on the BLAS thread
count on every grid tried from 99 to 229 dofs per axis but 199 (measured,
OpenBLAS; see README).  The arrays of the tensor decomposition are built
on its operator's first call and kept while the operator lives: about
3 n^2 doubles, n^2 in ``lambda_grid`` and n^2 in each of the analysis and
synthesis half blocks, with no dense n x n factor.  Only a 1D basis has dense
``modes``, built on first read up to ``DENSE_EIG_CAP`` dofs (for the tests,
and for CG on a tensor factor).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np
from numpy.fft import rfft  # at import: numpy loads numpy.fft on first use

from ._kernels import is_spd
from .fem import DiscreteOperator, GridFunction, mass_apply, per_operator

DENSE_EIG_CAP = 4000


@dataclasses.dataclass(frozen=True)
class SpectralBounds:
    """A bracket of the generalized spectrum of (K, M): 99% of the bottom
    eigenvalue, found by bisection, and a proven bound on the top."""

    lambda_min_est: float
    lambda_max_est: float

    def __post_init__(self):
        if not 0 < self.lambda_min_est <= self.lambda_max_est:
            raise ValueError("need 0 < lambda_min_est <= lambda_max_est")


def spectral_upper_bound(op: DiscreteOperator) -> float:
    """A proven upper bound on the spectrum of M^{-1} K, read off the bands.

    rho(M^{-1} K) <= ||M^{-1}||_inf ||K||_inf, and a strictly diagonally
    dominant M has ||M^{-1}||_inf <= 1 / min_i (M_ii - sum_{j != i} |M_ij|)
    (Varah 1975).  Every P1 mass matrix is, with a margin of at least
    (h_l + h_r) / 6 in each row.  On a uniform mesh the bound is Fried's
    12 / h**2.  A tensor operator's spectrum is lambda_i + lambda_j over its
    1D factor's, so the bound of the factor (of ``op`` in 1D) is taken
    ``op.dim`` times.
    """
    def row_sums(diag, off):
        s = np.abs(diag)
        s[:-1] += np.abs(off)
        s[1:] += np.abs(off)
        return s

    base = op.factor or op
    Md, Ml = base.mass_bands
    margin = 2.0 * np.abs(Md) - row_sums(Md, Ml)
    if not np.all(margin > 0):
        raise ValueError("mass matrix is not strictly diagonally dominant")
    return op.dim * float(np.max(row_sums(*base.stiffness_bands)) / np.min(margin))


def estimate_spectral_bounds(op: DiscreteOperator) -> SpectralBounds:
    """Bracket the spectrum of M^{-1} K: 99% of the bottom below, a proof above.

    K - s M is positive definite exactly when s lies below the bottom
    eigenvalue, and one L D L^T factorization says which (spectrum slicing;
    Parlett, The Symmetric Eigenvalue Problem).  Bisection on [0, top] raises
    the lower end while the test passes, until the ends are adjacent doubles.
    The top is ``spectral_upper_bound``.  A tensor operator brackets its 1D
    factor and takes both ends ``op.dim`` times.
    """
    base = op.factor or op
    (Kd, Ke), (Md, Me) = base.stiffness_bands, base.mass_bands
    top = spectral_upper_bound(base)
    lo, hi = 0.0, top
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if is_spd(Kd - mid * Md, Ke - mid * Me) else (lo, mid)
    return SpectralBounds(lambda_min_est=op.dim * (0.99 * lo), lambda_max_est=op.dim * top)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def sine_transform(x: np.ndarray) -> np.ndarray:
    """S x along the last axis, S_ij = sin(pi i j / (n+1)): the DST-I
    -Im(rfft(0, x, 0, -x reversed))[1:n+1] / 2 of each row (Van Loan 1992),
    which has the bits the row has alone."""
    n = x.shape[-1]
    ext = np.zeros((*x.shape[:-1], 2 * (n + 1)))
    ext[..., 1:n + 1], ext[..., :n + 1:-1] = x, -x
    return -0.5 * rfft(ext).imag[..., 1:n + 1]


def _parity_order(n: int) -> np.ndarray:
    """The folded order of n sine modes: odd j (symmetric about the midpoint)
    first, then even j (antisymmetric); 0-based, the even indices first."""
    return np.r_[0:n:2, 1:n:2]


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending in ``lambdas``) and M-orthonormal sine modes of
    a uniform 1D mesh: the 1D factor of ``op``, or ``op`` itself in 1D.
    Mode coefficients come in the order of ``lambda_grid``.  Every array is
    read-only, since tensor decompositions are cached and shared."""

    op: DiscreteOperator
    lambdas_1d: np.ndarray

    @functools.cached_property
    def lambdas(self) -> np.ndarray:
        return _read_only(np.sort(self.lambda_grid))

    @property
    def n_modes(self) -> int:
        return len(self.lambda_grid)

    def mode_vector(self, j: int) -> np.ndarray:
        """The eigenvector of ``lambdas[j]`` as a flat coefficient vector."""
        unit = np.zeros(self.n_modes)
        unit[np.argsort(self.lambda_grid, kind="stable")[j]] = 1.0
        return self.synthesize(unit)


@dataclasses.dataclass(frozen=True, eq=False)
class SineBasis(SpectralDecomposition):
    """The basis of a uniform 1D operator, applied by the DST-I
    ``sine_transform``: the modes are ``scale[j] sin(i theta_j)``, so it
    holds two length-n vectors, and ``modes`` once read."""

    scale: np.ndarray

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """The n x n modes, one per column, built on first read."""
        if (n := len(self.scale)) > DENSE_EIG_CAP:
            raise ValueError(f"dense modes capped at {DENSE_EIG_CAP} dofs, have {n}")
        modes = np.empty((n, n))
        for lo in range(0, n, 8):  # 8 rows of the identity at a time: one n x n array
            modes[lo:lo + 8] = sine_transform(np.eye(min(8, n - lo), n, lo)) * self.scale
        return _read_only(modes)

    @property
    def lambda_grid(self) -> np.ndarray:
        """The eigenvalue of every mode coefficient, in coefficient order."""
        return self.lambdas_1d

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients (v, psi_j)_M = modes^T (M v) of a
        coefficient vector or of each row of a block."""
        return sine_transform(mass_apply(self.op, v)) * self.scale

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        return sine_transform(self.scale * coeffs)


@dataclasses.dataclass(frozen=True, eq=False)
class FoldedSineBasis(SpectralDecomposition):
    """The basis of a tensor operator, on parity-folded grids.

    Its modes are taken in the folded order (odd j, then even j) along each
    axis of ``lambda_grid``, the eigenvalue of every mode coefficient.
    ``fold`` and ``unfold`` move a grid to and from parity-folded
    coordinates, one 1D fold (``_fold``, ``_unfold``) along the first grid
    axis and then along the second.  There ``folded_coefficients`` and
    ``folded_synthesize`` multiply by the four half blocks of the modes and
    of the projector (``_blocks``, see ``_folded_blocks``): two half-size
    GEMMs per side, with no n x n operand.  ``eig_2d_tensor`` builds them.
    """

    lambda_grid: np.ndarray
    _blocks: tuple

    def _folded(self, blocks, v: np.ndarray, work=None) -> np.ndarray:
        """diag(L_s, L_a) X diag(R_s, R_a) on the n x n grid X of each
        folded row of v, for the ``((L_s, R_s), (L_a, R_a))`` of ``_blocks``
        (X split after its n - n // 2 sum rows and columns): four half-size
        GEMMs, each row of v on its own.  ``work``, a contiguous array of
        v's shape, holds the half-done product, if given."""
        n = len(self.lambdas_1d)
        k = n - n // 2
        (Ls, Rs), (La, Ra) = blocks
        x = v.reshape(-1, n, n)
        rows = np.empty_like(x) if work is None else work.reshape(x.shape)
        out = np.empty_like(x)
        np.matmul(Ls, x[:, :k], out=rows[:, :k])
        np.matmul(La, x[:, k:], out=rows[:, k:])
        np.matmul(rows[:, :, :k], Rs, out=out[:, :, :k])
        np.matmul(rows[:, :, k:], Ra, out=out[:, :, k:])
        return out.reshape(v.shape)

    def fold(self, v: np.ndarray) -> np.ndarray:
        """Each row of v (a (c, N) block or one vector) parity-folded along
        the first axis of its n x n grid, then along the second (``_fold``)."""
        n = len(self.lambdas_1d)
        return _fold(_fold(v.reshape(-1, n, n).swapaxes(1, 2)).swapaxes(1, 2)).reshape(v.shape)

    def unfold(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fold`, ``_unfold`` in the same axis order."""
        n = len(self.lambdas_1d)
        return _unfold(_unfold(v.reshape(-1, n, n).swapaxes(1, 2)).swapaxes(1, 2)).reshape(v.shape)

    def folded_coefficients(self, v: np.ndarray, work=None) -> np.ndarray:
        """:meth:`coefficients` of the rows that ``fold`` gives: P^T V P in
        two half-size products per side (``work`` as in ``_folded``)."""
        return self._folded(self._blocks[0], v, work)

    def folded_synthesize(self, coeffs: np.ndarray, work=None) -> np.ndarray:
        """Inverse of :meth:`folded_coefficients`: ``fold`` of :meth:`synthesize`."""
        return self._folded(self._blocks[1], coeffs, work)

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients (v, psi_j)_M of a coefficient vector or
        block: P^T V P along both axes of the folded grid."""
        return self.folded_coefficients(self.fold(v))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        return self.unfold(self.folded_synthesize(coeffs))


def _fold(x: np.ndarray) -> np.ndarray:
    """x parity-folded along its last axis (length n, h = n // 2): the sum
    part x_i + x_{n-1-i} for i < h, the middle node x_h of an odd n, then
    the difference part x_i - x_{n-1-i}."""
    n = x.shape[-1]
    h = n // 2
    first, mirror = x[..., :h], x[..., :n - h - 1:-1]  # x_i and x_{n-1-i}, i < h
    return np.concatenate([first + mirror, x[..., h:n - h], first - mirror], axis=-1)


def _unfold(y: np.ndarray) -> np.ndarray:
    """Inverse of ``_fold``: half the sum plus and minus half the difference
    back at the node and its mirror, the middle node as it is.  A halving
    is exact, so this has the bits of halving after the sum."""
    n = y.shape[-1]
    h = n // 2
    sums, diffs = 0.5 * y[..., :h], 0.5 * y[..., n - h:]
    return np.concatenate([sums + diffs, y[..., h:n - h], (sums - diffs)[..., ::-1]], axis=-1)


def _sine_pairs(op: DiscreteOperator, refusal: str) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_j, scale_j) of the sine modes of the 1D pair (K, M), read-only,
    which must be the P1 matrices of a uniform mesh: bands 2/h, -1/h, 2h/3
    and h/6 to a relative 4 (n+1) eps (assembling on ``np.linspace`` nodes
    leaves them about (n+1) eps / 2 off).  Any other pair is refused with
    ``refusal``."""
    n = op.n_dofs
    h = (op.nodes[-1] - op.nodes[0]) / (n + 1)
    rtol = 4 * (n + 1) * np.finfo(np.float64).eps
    bands = zip((*op.stiffness_bands, *op.mass_bands), (2 / h, -1 / h, 2 * h / 3, h / 6))
    if not all(np.allclose(band, value, rtol=rtol, atol=0) for band, value in bands):
        raise ValueError(refusal)
    # Strang & Fix: K, M act on sin(i theta_j) as (4/h) sin^2(theta_j/2), (h/3)(2 + cos theta_j)
    theta = np.arange(1, n + 1) * (np.pi / (n + 1))
    # sin^2 of the half angle, not 1 - cos theta, which cancels for small j
    lam = (12.0 / h**2) * np.sin(theta / 2) ** 2 / (2.0 + np.cos(theta))
    mu = (h / 3.0) * (2.0 + np.cos(theta))
    # sum_i sin^2(i theta_j) = (n+1)/2, so this makes psi_j^T M psi_j = 1
    return _read_only(lam), _read_only(np.sqrt(2.0 / ((n + 1) * mu)))


def eig_1d(op: DiscreteOperator) -> SineBasis:
    """The closed-form sine basis of a 1D operator on a uniform mesh, two
    length-n vectors at any size.  Any other mesh is refused: it has no
    closed-form eigenpairs, and nothing here needs them."""
    if op.dim != 1:
        raise ValueError("eig_1d expects a 1D operator")
    return SineBasis(op, *_sine_pairs(op, "eig_1d needs a uniform mesh (sine modes)"))


def _folded_blocks(scale: np.ndarray):
    """The half-size factors of the folded transforms of the sine modes
    ``scale[j] sin(i theta_j)``, all contiguous: ``(analysis, synthesis)``,
    each ``((L_s, R_s), (L_a, R_a))`` as ``FoldedSineBasis._folded`` takes
    them.

    Q_s holds the first n - n // 2 rows of the odd modes, the nodes of
    the sum part, and Q_a the first n // 2 rows of the even ones.
    Analysis multiplies by P^T and P, with P = M1 Q = Q diag(mu) on a
    uniform factor.  Synthesis multiplies by S and S^T, with S = 2 Q: a
    sum or difference holds a node and its mirror, but the middle row
    of an odd n holds one node.

    The transposed factors are copies, not ``.T`` views: with views the
    2D bits change at n = 49, 99 and 100 for 1, 2 and 4 rows (equal at
    199 and 399), and they are no faster (a ``coefficients`` and
    ``synthesize`` round trip, 2 BLAS threads: 75 against 74 us at
    n = 49 and one row, 343 against 321 us at n = 99 and two rows)."""
    n = len(scale)
    h = n // 2
    top = sine_transform(np.eye(n - h, n)) * scale  # rows i < n - h of the modes
    # scale = sqrt(2 / ((n+1) mu)), mu_j the eigenvalue of M1 at mode j
    mu = 2.0 / ((n + 1) * scale**2)
    analysis, synthesis = [], []
    for Q, mu_part in ((top[:, 0::2], mu[0::2]), (top[:h, 1::2], mu[1::2])):
        S = 2.0 * Q
        S[h:] = Q[h:]  # the middle row, when n is odd
        P = Q * mu_part
        analysis.append((P.T, P))
        synthesis.append((S, S.T))
    return tuple(tuple(tuple(_read_only(np.ascontiguousarray(A)) for A in pair)
                       for pair in part) for part in (analysis, synthesis))


@per_operator
def _folded_arrays(op: DiscreteOperator) -> tuple:
    """Every array of the tensor basis of ``op``, which holds no reference to
    ``op``.  The fold needs the parity of the sine modes, so a factor that
    is not a uniform mesh is refused."""
    lam, scale = _sine_pairs(op.factor, "eig_2d_tensor needs a uniform 1D factor (sine modes)")
    folded = lam[_parity_order(len(lam))]
    return lam, _read_only((folded[:, None] + folded[None, :]).ravel()), _folded_blocks(scale)


def eig_2d_tensor(op: DiscreteOperator) -> FoldedSineBasis:
    """The sine basis of a tensor operator's 1D factor, bound to it, on arrays
    (the half-size factors of the folded transforms included) built on the
    operator's first call and shared by every later one (``_folded_arrays``)."""
    if op.dim != 2:
        raise ValueError("eig_2d_tensor expects a tensor-assembled operator")
    return FoldedSineBasis(op, *_folded_arrays(op))


def reference_power(decomp: SpectralDecomposition, v: GridFunction,
                    alpha: float | Sequence[float]) -> GridFunction | list[GridFunction]:
    """Exact discrete negative power: sum_j lambda_j**(-alpha) (v, psi_j) psi_j.

    ``alpha`` is one exponent or a sequence of them; a sequence gives a list
    of one ``GridFunction`` per exponent, all from one analysis of v.
    """
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    single = np.ndim(alpha) == 0
    coeffs = decomp.coefficients(v.coeffs)
    outs = [GridFunction(decomp.synthesize(decomp.lambda_grid ** -a * coeffs), decomp.op)
            for a in ([alpha] if single else alpha)]
    return outs[0] if single else outs


def discrete_sobolev_norm(decomp: SpectralDecomposition, v: GridFunction, s: float) -> float:
    """(sum_j lambda_j**s (v, psi_j)**2)**0.5, the ||.||_{s,h} norm."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return float(np.sqrt(np.sum(decomp.lambda_grid ** s * coeffs**2)))
