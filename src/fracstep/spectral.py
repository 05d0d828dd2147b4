"""What is known about the spectrum of (K, M): its bracket and its eigenpairs.

The bracket feeds the runs: a shift delta must lie below the spectrum, and
the theorem's depth L needs a bound above it.  ``spectral_upper_bound``
reads a proven top off the bands, and ``estimate_spectral_bounds`` finds
the bottom by bisection on the definiteness of K - s M, less 1%.

The eigenpairs are the ground-truth oracle.  Diagonalizing
K psi = lambda M psi with M-orthonormal modes makes the exact discrete
fractional power available as a reference, and gives the discrete Sobolev
norms used to grade data smoothness.  A decomposition stores the
eigenpairs of the 1D factor only: on a uniform mesh the closed-form sine
modes as two length-n vectors, at any size, with a DST-I (``sine_transform``)
as 1D transform; on any other a dense eigensolve, one n x n array (capped).
Mode coefficients are (v, psi_j)_M: modes^T (M v) in 1D with the
operator's sparse M, so a 1D basis stores no projector.  A tensor 2D
operator has eigenvalues lambda_i + lambda_j and modes psi_i (x) psi_j,
never materialized; as M2 = M1 (x) M1, its coefficients are P^T V P on the
n x n grid V of v with the cached projector P = M1 modes (Lynch, Rice &
Thomas 1964), and the M-norm of v is their Euclidean norm (Parseval).
The 2D transforms are GEMMs with the dense ``modes``, and every transform
applies a 1D factor along each axis, here only: the tensor solvers of
``solvers`` call these too.  With contiguous operands the 2D bits do not
depend on the BLAS thread count up to 100 dofs per axis (measured,
OpenBLAS).  The tensor decomposition is cached per operator and builds
its dense factors before it returns; ``eig_1d`` is not cached, so a dense
1D basis lives only as long as its caller holds it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.linalg as sla

from ._kernels import is_spd
from .fem import DiscreteOperator, GridFunction

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
    return -0.5 * np.fft.rfft(ext).imag[..., 1:n + 1]


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and M-orthonormal modes of the 1D factor of
    ``op`` (of ``op`` itself in 1D): ``scale[j] sin(i theta_j)`` on a uniform
    mesh, else the columns of ``eigh_modes``.  The n x n ``modes`` are built
    on first use; in 2D ``eig_2d_tensor`` builds them, ``modes^T`` and the
    projector M1 modes with its transpose before it returns.

    Mode coefficients come in the order of ``lambda_grid``; ``lambdas``
    holds the same eigenvalues sorted.
    """

    op: DiscreteOperator
    lambdas_1d: np.ndarray
    eigh_modes: np.ndarray | None = None
    scale: np.ndarray | None = None

    def __post_init__(self):
        # tensor decompositions are cached and shared, so nothing may write them
        for arr in (self.lambdas_1d, self.scale, self.eigh_modes):
            if arr is not None:
                _read_only(arr)

    @functools.cached_property
    def modes(self) -> np.ndarray:
        if self.scale is None:
            return self.eigh_modes
        if (n := len(self.scale)) > DENSE_EIG_CAP:
            raise ValueError(f"dense modes capped at {DENSE_EIG_CAP} dofs, have {n}")
        modes = np.empty((n, n))
        for lo in range(0, n, 8):  # 8 rows of the identity at a time: one n x n array
            modes[lo:lo + 8] = sine_transform(np.eye(min(8, n - lo), n, lo)) * self.scale
        return _read_only(modes)

    @functools.cached_property
    def lambda_grid(self) -> np.ndarray:
        """The eigenvalue of every mode coefficient, in coefficient order."""
        lam = self.lambdas_1d
        return _read_only((lam[:, None] + lam[None, :]).ravel()) if self.op.dim == 2 else lam

    @functools.cached_property
    def lambdas(self) -> np.ndarray:
        return _read_only(np.sort(self.lambda_grid))

    @property
    def n_modes(self) -> int:
        return len(self.lambda_grid)

    @functools.cached_property
    def _modes_t(self) -> np.ndarray:
        """modes^T: a contiguous copy in 2D (built by ``eig_2d_tensor``), a view in 1D."""
        if self.op.dim == 1:
            return self.modes.T
        return _read_only(np.ascontiguousarray(self.modes.T))

    def _along_axes(self, A: np.ndarray, At: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A along every axis of each row of v (a (c, N) block or one vector); At = A^T."""
        if self.op.dim == 1:
            return (A @ v.T).T
        n = len(self.lambdas_1d)
        return (A @ v.reshape(-1, n, n) @ At).reshape(v.shape)

    def _analyse(self, v: np.ndarray) -> np.ndarray:
        """modes^T along every axis of each row of v."""
        if self.op.dim == 1 and self.scale is not None:
            return sine_transform(v) * self.scale
        return self._along_axes(self._modes_t, self.modes, v)

    @functools.cached_property
    def _projector(self) -> tuple[np.ndarray, np.ndarray]:
        """(P^T, P) for P = M1 modes, both contiguous; a tensor decomposition's
        only (built by ``eig_2d_tensor``)."""
        proj = self.op.factor.mass @ self.modes
        return _read_only(np.ascontiguousarray(proj.T)), _read_only(proj)

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients (v, psi_j)_M of a coefficient vector or
        block: modes^T (M v) in 1D, P^T V P along both axes in 2D."""
        if self.op.dim == 1:
            return self._analyse((self.op.mass @ v.T).T)
        return self._along_axes(*self._projector, v)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        if self.op.dim == 1 and self.scale is not None:
            return sine_transform(self.scale * coeffs)
        return self._along_axes(self.modes, self._modes_t, coeffs)

    def apply(self, modal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """modes (modal * modes^T rhs) along every axis, with one ``modal`` factor
        per mode: (a K + b M)^{-1} rhs for ``modal = 1 / (a lambda_grid + b)``."""
        return self.synthesize(modal * self._analyse(rhs))

    def mode_vector(self, j: int) -> np.ndarray:
        """The eigenvector of ``lambdas[j]`` as a flat coefficient vector."""
        unit = np.zeros(self.n_modes)
        unit[np.argsort(self.lambda_grid, kind="stable")[j]] = 1.0
        return self.synthesize(unit)


def _uniform_spacing(op: DiscreteOperator) -> float | None:
    """The spacing h when (K, M) are the P1 matrices of a uniform mesh, else None.

    The bands must be 2/h, -1/h, 2h/3 and h/6 to a relative 4 (n+1) eps:
    assembling on ``np.linspace`` nodes leaves them about (n+1) eps / 2 off.
    """
    n = op.n_dofs
    h = (op.nodes[-1] - op.nodes[0]) / (n + 1)
    rtol = 4 * (n + 1) * np.finfo(np.float64).eps
    bands = zip((*op.stiffness_bands, *op.mass_bands), (2 / h, -1 / h, 2 * h / 3, h / 6))
    if all(np.allclose(band, value, rtol=rtol, atol=0) for band, value in bands):
        return h
    return None


def eig_1d(op: DiscreteOperator) -> SpectralDecomposition:
    """Eigenvalues and M-orthonormal modes of the 1D pair (K, M): on a uniform
    mesh (see ``_uniform_spacing``) the closed-form sine modes, two length-n
    vectors at any size; on any other a dense symmetric generalized
    eigensolve, one n x n array capped at ``DENSE_EIG_CAP`` dofs."""
    if op.dim != 1:
        raise ValueError("eig_1d expects a 1D operator")
    n, h = op.n_dofs, _uniform_spacing(op)
    if h is not None:
        # Strang & Fix: K, M act on sin(i theta_j) as (4/h) sin^2(theta_j/2), (h/3)(2 + cos theta_j)
        theta = np.arange(1, n + 1) * (np.pi / (n + 1))
        # sin^2 of the half angle, not 1 - cos theta, which cancels for small j
        lam = (12.0 / h**2) * np.sin(theta / 2) ** 2 / (2.0 + np.cos(theta))
        mu = (h / 3.0) * (2.0 + np.cos(theta))
        # sum_i sin^2(i theta_j) = (n+1)/2, so this makes psi_j^T M psi_j = 1
        return SpectralDecomposition(op, lam, scale=np.sqrt(2.0 / ((n + 1) * mu)))
    if n > DENSE_EIG_CAP:
        raise ValueError(f"dense eigensolve capped at {DENSE_EIG_CAP} dofs, have {n}")
    return SpectralDecomposition(op, *sla.eigh(op.stiffness.toarray(), op.mass.toarray()))


@functools.lru_cache(maxsize=8)
def eig_2d_tensor(op: DiscreteOperator) -> SpectralDecomposition:
    """The decomposition of a tensor operator's 1D factor, bound to it (cached),
    with the dense factors that every 2D transform multiplies by (``modes``,
    its contiguous transpose and the projector) already built."""
    if op.dim != 2:
        raise ValueError("eig_2d_tensor expects a tensor-assembled operator")
    decomp = dataclasses.replace(eig_1d(op.factor), op=op)
    # read once to build them here rather than inside the first transform
    decomp._modes_t, decomp._projector
    return decomp


def reference_power(decomp: SpectralDecomposition, v: GridFunction, alpha: float) -> GridFunction:
    """Exact discrete negative power: sum_j lambda_j**(-alpha) (v, psi_j) psi_j."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return GridFunction(decomp.synthesize(decomp.lambda_grid ** -alpha * coeffs), decomp.op)


def discrete_sobolev_norm(decomp: SpectralDecomposition, v: GridFunction, s: float) -> float:
    """(sum_j lambda_j**s (v, psi_j)**2)**0.5, the ||.||_{s,h} norm."""
    if v.op is not decomp.op:
        raise ValueError("grid function lives on a different operator")
    coeffs = decomp.coefficients(v.coeffs)
    return float(np.sqrt(np.sum(decomp.lambda_grid ** s * coeffs**2)))
