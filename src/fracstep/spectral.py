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
n x n grid V of v with the projector P = M1 modes (Lynch, Rice &
Thomas 1964), and the M-norm of v is their Euclidean norm (Parseval).

A tensor factor must be uniform, so that its modes are sines, and sine
mode j is symmetric about the midpoint of the grid for odd j and
antisymmetric for even j.  Parity-folding an axis (``fold``: the sums of
mirrored nodes, then their differences; the first butterfly of the DST,
Van Loan 1992) therefore splits every 2D transform into two half-size
products per side, odd modes on the sum parts and even modes on the
difference parts: half the flops of the dense n x n GEMMs, still GEMMs.
2D coefficients come in that folded mode order (odd j, then even j, along
each axis; see ``lambda_grid``).  The direct tensor step keeps its iterate
folded for a whole run (``solvers.TensorDiagSolver``), and ``coefficients``
and ``synthesize`` fold and unfold around the same transforms.  Only
``apply``, the CG preconditioner, multiplies the unfolded grid by the dense
modes, built on first use.  With these contiguous half-size factors the
2D bits of a table do not depend on the BLAS thread count on every grid
tried from 99 to 229 dofs per axis but 199 (measured, OpenBLAS; see
README).  The tensor decomposition is cached per operator and builds its half-size
factors before it returns; ``eig_1d`` is not cached, so a dense 1D basis
lives only as long as its caller holds it.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

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


def _parity_order(n: int) -> np.ndarray:
    """The folded order of n sine modes: odd j (symmetric about the midpoint)
    first, then even j (antisymmetric); 0-based, the even indices first."""
    return np.r_[0:n:2, 1:n:2]


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and M-orthonormal modes of the 1D factor of
    ``op`` (of ``op`` itself in 1D): ``scale[j] sin(i theta_j)`` on a uniform
    mesh, else the columns of ``eigh_modes``.  The n x n ``modes`` are built
    on first use.

    In 2D the factor is uniform, and its modes are taken in the folded
    order (odd j, then even j), in ``modes`` and along each axis of
    ``lambda_grid`` alike.  ``fold`` and ``unfold`` move a grid to and from
    parity-folded coordinates, where ``folded_coefficients`` and
    ``folded_synthesize`` multiply by the four half blocks of the modes
    and of the projector (``_blocks``, built by ``eig_2d_tensor``): two
    half-size GEMMs per side, with no n x n operand.

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
        if self.op.dim == 2:
            modes = np.ascontiguousarray(modes[:, _parity_order(n)])
        return _read_only(modes)

    @functools.cached_property
    def lambda_grid(self) -> np.ndarray:
        """The eigenvalue of every mode coefficient, in coefficient order."""
        lam = self.lambdas_1d
        if self.op.dim == 1:
            return lam
        lam = lam[_parity_order(len(lam))]
        return _read_only((lam[:, None] + lam[None, :]).ravel())

    @functools.cached_property
    def lambdas(self) -> np.ndarray:
        return _read_only(np.sort(self.lambda_grid))

    @property
    def n_modes(self) -> int:
        return len(self.lambda_grid)

    @functools.cached_property
    def _modes_t(self) -> np.ndarray:
        """modes^T: a contiguous copy in 2D, a view in 1D."""
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

    def _synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """modes along every axis of each row of coeffs."""
        if self.op.dim == 1 and self.scale is not None:
            return sine_transform(self.scale * coeffs)
        return self._along_axes(self.modes, self._modes_t, coeffs)

    @functools.cached_property
    def _blocks(self):
        """The half-size factors of the folded transforms, all contiguous
        (built by ``eig_2d_tensor``): ``(analysis, synthesis)``, each
        ``((L_s, R_s), (L_a, R_a))`` as ``_folded`` takes them.

        Q_s holds the first n - n // 2 rows of the odd modes, the nodes of
        the sum part, and Q_a the first n // 2 rows of the even ones.
        Analysis multiplies by P^T and P, with P = M1 Q = Q diag(mu) on a
        uniform factor.  Synthesis multiplies by S and S^T, with S = 2 Q: a
        sum or difference holds a node and its mirror, but the middle row
        of an odd n holds one node."""
        n = len(self.scale)
        h = n // 2
        top = sine_transform(np.eye(n - h, n)) * self.scale  # rows i < n - h of the modes
        # scale = sqrt(2 / ((n+1) mu)), mu_j the eigenvalue of M1 at mode j
        mu = 2.0 / ((n + 1) * self.scale**2)
        analysis, synthesis = [], []
        for Q, mu_part in ((top[:, 0::2], mu[0::2]), (top[:h, 1::2], mu[1::2])):
            S = 2.0 * Q
            S[h:] = Q[h:]  # the middle row, when n is odd
            P = Q * mu_part
            analysis.append((P.T, P))
            synthesis.append((S, S.T))
        return tuple(tuple(tuple(_read_only(np.ascontiguousarray(A)) for A in pair)
                           for pair in part) for part in (analysis, synthesis))

    def _folded(self, blocks, v: np.ndarray) -> np.ndarray:
        """diag(L_s, L_a) X diag(R_s, R_a) on the n x n grid X of each
        folded row of v, for the ``((L_s, R_s), (L_a, R_a))`` of ``_blocks``
        (X split after its n - n // 2 sum rows and columns): four half-size
        GEMMs, each row of v on its own."""
        n = len(self.lambdas_1d)
        k = n - n // 2
        (Ls, Rs), (La, Ra) = blocks
        x = v.reshape(-1, n, n)
        rows, out = np.empty_like(x), np.empty_like(x)
        np.matmul(Ls, x[:, :k], out=rows[:, :k])
        np.matmul(La, x[:, k:], out=rows[:, k:])
        np.matmul(rows[:, :, :k], Rs, out=out[:, :, :k])
        np.matmul(rows[:, :, k:], Ra, out=out[:, :, k:])
        return out.reshape(v.shape)

    def fold(self, v: np.ndarray) -> np.ndarray:
        """Each row of v (a (c, N) block or one vector) parity-folded along
        both axes of its n x n grid (see ``_fold_rows``)."""
        return self._both_axes(_fold_rows, v)

    def unfold(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fold`: ``_unfold_rows`` along both axes, which
        doubles a node once per axis on which it has a mirror, then one
        product with the weights that undo that."""
        out = self._both_axes(_unfold_rows, v)
        out *= self._unfold_weights
        return out

    @functools.cached_property
    def _unfold_weights(self) -> np.ndarray:
        """w_i w_j on the flat n x n grid, w_i = 1 at the middle node of an
        odd n and 1/2 elsewhere."""
        n = len(self.lambdas_1d)
        w = np.full(n, 0.5)
        w[n // 2:n - n // 2] = 1.0
        return _read_only(np.outer(w, w).ravel())

    def _both_axes(self, along_rows, v: np.ndarray) -> np.ndarray:
        n = len(self.lambdas_1d)
        x = v.reshape(-1, n, n)
        rows, out = np.empty_like(x), np.empty_like(x)
        along_rows(x, rows)
        along_rows(rows.swapaxes(1, 2), out.swapaxes(1, 2))
        return out.reshape(v.shape)

    def folded_coefficients(self, v: np.ndarray) -> np.ndarray:
        """:meth:`coefficients` of the rows that ``fold`` gives: P^T V P in
        two half-size products per side."""
        return self._folded(self._blocks[0], v)

    def folded_synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`folded_coefficients`: ``fold`` of :meth:`synthesize`."""
        return self._folded(self._blocks[1], coeffs)

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """M-weighted mode coefficients (v, psi_j)_M of a coefficient vector or
        block: modes^T (M v) in 1D, P^T V P along both axes of the folded
        grid in 2D."""
        if self.op.dim == 1:
            return self._analyse((self.op.mass @ v.T).T)
        return self.folded_coefficients(self.fold(v))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coefficients`."""
        if self.op.dim == 1:
            return self._synthesize(coeffs)
        return self.unfold(self.folded_synthesize(coeffs))

    def apply(self, modal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """modes (modal * modes^T rhs) along every axis, with one ``modal`` factor
        per mode: (a K + b M)^{-1} rhs for ``modal = 1 / (a lambda_grid + b)``.
        Dense n x n products in 2D, on the grid as it is."""
        return self._synthesize(modal * self._analyse(rhs))

    def mode_vector(self, j: int) -> np.ndarray:
        """The eigenvector of ``lambdas[j]`` as a flat coefficient vector."""
        unit = np.zeros(self.n_modes)
        unit[np.argsort(self.lambda_grid, kind="stable")[j]] = 1.0
        return self.synthesize(unit)


def _fold_rows(x: np.ndarray, out: np.ndarray) -> None:
    """x parity-folded along axis 1 (length n) into out, with h = n // 2:
    the sum part x_i + x_{n-1-i} for i < h, the middle node x_h of an odd
    n, then the difference part x_i - x_{n-1-i}, as one length-n axis."""
    n = x.shape[1]
    h = n // 2
    first, mirror = x[:, :h], x[:, :n - h - 1:-1]  # x_i and x_{n-1-i}, i < h
    np.add(first, mirror, out=out[:, :h])
    np.subtract(first, mirror, out=out[:, n - h:])
    out[:, h:n - h] = x[:, h:n - h]


def _unfold_rows(y: np.ndarray, out: np.ndarray) -> None:
    """``_fold_rows`` undone up to a factor 2 on the paired nodes: sum +
    difference and sum - difference back at the node and its mirror, the
    middle node as it is."""
    n = y.shape[1]
    h = n // 2
    sums, diffs = y[:, :h], y[:, n - h:]
    np.add(sums, diffs, out=out[:, :h])
    np.subtract(sums, diffs, out=out[:, :n - h - 1:-1])
    out[:, h:n - h] = y[:, h:n - h]


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
    with the half-size factors of the folded transforms already built.  The
    fold needs the parity of the sine modes, so a factor that is not a
    uniform mesh is refused."""
    if op.dim != 2:
        raise ValueError("eig_2d_tensor expects a tensor-assembled operator")
    if _uniform_spacing(op.factor) is None:
        raise ValueError("eig_2d_tensor needs a uniform 1D factor (sine modes)")
    decomp = dataclasses.replace(eig_1d(op.factor), op=op)
    # read once to build them here rather than inside the first transform
    decomp._blocks
    return decomp


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
