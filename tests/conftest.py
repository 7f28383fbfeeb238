"""Shared independent oracles for the test suite.

Nothing here imports evaluation code from the package under test: the
Laguerre oracle is the exact finite series in rational arithmetic, the
displacement oracles are a truncated matrix exponential (float64, by one
cached eigendecomposition per ladder, cross-checked against Pade) and a
normal-ordered series in 50-digit arithmetic, the coherent state is its
log-domain Poisson amplitude formula, the closed cat fringes are
evaluated pointwise on a full meshgrid, their phase is fitted by least
squares on full-grid bases, the x,p,W text artifact is
written one f-string per cell, the second-order Dyson
kernel is written out from the displacement oracle, both Dyson orders
come from scipy's ``expm_multiply`` over a padded Van Loan block matrix,
and the joint-model oracle builds the full 2^N product-space
Hamiltonian with dense kron products; the joint model's H in the
sector basis is one scipy CSR matrix built from Kronecker products.
scipy's ``jv`` and ``gammaln`` referee the package's numpy-only Bessel
table and log-factorials.  Tests freeze values computed from these,
then compare the package against them.  Two fault injectors round the
file off: a Bessel window cut short and Bessel values that leak norm,
the two ingredients of a Chebyshev propagator.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln, jv


def laguerre_series(n: int, k: int, x) -> Fraction | float:
    """Finite-series associated Laguerre value, exact for rational x.

    L_n^(k)(x) = sum_j (-1)^j C(n+k, n-j) x^j / j!.  Returns a Fraction
    when given one (or an int); float inputs fall back to fsum.
    """
    exact = isinstance(x, (int, Fraction))
    xs = Fraction(x) if exact else float(x)
    total = Fraction(0) if exact else 0.0
    terms = []
    for j in range(n + 1):
        c = math.comb(n + k, n - j) if n + k >= n - j else 0
        term = (-1) ** j * c * xs**j / (math.factorial(j) if exact else float(math.factorial(j)))
        if exact:
            total += term
        else:
            terms.append(term)
    return total if exact else math.fsum(terms)


def displacement_generator(ncut: int, alpha: complex) -> np.ndarray:
    """alpha ad - conj(alpha) a on the truncated ladder 0..ncut."""
    ad = np.diag(np.sqrt(np.arange(1, ncut + 1)), -1)
    return alpha * ad - np.conj(alpha) * ad.T


def displacement_pade(ncut: int, alpha: complex) -> np.ndarray:
    """exp(alpha ad - conj(alpha) a) on a truncated ladder via Pade expm;
    the cross-check for :func:`displacement_expm`."""
    return scipy.linalg.expm(displacement_generator(ncut, alpha))


@functools.lru_cache(maxsize=32)
def _quadrature_eigh(ncut: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian i(ad - a) on the ladder 0..ncut."""
    lam, vec = np.linalg.eigh(1j * displacement_generator(ncut, 1.0))
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def displacement_expm(ncut: int, alpha: complex) -> np.ndarray:
    """exp(alpha ad - conj(alpha) a) on a truncated ladder.

    With alpha = r e^{i theta} the generator is R (ad - a) r R^dagger,
    R = e^{i theta n}, and ad - a = -i G for the Hermitian G = V Lam V^dagger,
    so D = R V e^{-i r Lam} V^dagger R^dagger with one cached ``eigh`` per
    ladder size.  It is the same truncated exponential as
    :func:`displacement_pade`: accurate in the lower-left block well away
    from the cutoff; callers slice out the rows/cols they trust.
    """
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(ncut + 1, dtype=complex)
    lam, vec = _quadrature_eigh(ncut)
    rot = np.exp(1j * cmath.phase(alpha) * np.arange(ncut + 1))
    left = rot[:, None] * vec
    return (left * np.exp(-1j * abs(alpha) * lam)) @ left.conj().T


def coherent_closed(alpha: complex, ncut: int) -> np.ndarray:
    """Coherent-state amplitudes exp(-|a|^2/2) a^n / sqrt(n!), n = 0..ncut,
    evaluated in the log domain and renormalized on the truncated ladder
    (exactly |0> at alpha = 0).  Independent of the Laguerre route."""
    alpha = complex(alpha)
    n = np.arange(ncut + 1)
    if alpha == 0:
        amps = np.zeros(ncut + 1, np.complex128)
        amps[0] = 1.0
        return amps
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) \
        - 0.5 * gammaln(n + 1)
    amps = np.exp(logmag + 1j * np.angle(alpha) * n)
    return amps / np.linalg.norm(amps)


def w_int_meshgrid(grid, beta_prime: complex, alpha: float, phi: float,
                   wt: float, offset: float) -> np.ndarray:
    """Closed-form cat interference term evaluated pointwise on the full
    meshgrid, (2/pi) exp[-(x-xb)^2 - (p-pb)^2] cos[lin + offset], given
    beta' = beta_N e^{-i wt} and the fringe offset; the referee for the
    separable evaluation."""
    mid = beta_prime + alpha * math.cos(phi) * complex(math.cos(wt), -math.sin(wt))
    xb, pb = math.sqrt(2) * mid.real, math.sqrt(2) * mid.imag
    X, P = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    env = (2.0 / math.pi) * np.exp(-((X - xb) ** 2) - (P - pb) ** 2)
    arg = (2.0 * math.sqrt(2) * alpha * math.sin(phi)
           * (P * math.sin(wt) - X * math.cos(wt))
           + offset)
    return env * np.cos(arg)


def fit_offset_full_grid(values, fx, fp) -> float:
    """Least-squares fringe phase c of ``values`` ~ Re[e^{ic} (2/pi) fx (x) fp]
    from the 1-D factors, with the 2x2 Gram matrix and right-hand side
    taken as dot products over the full grid; the referee for the fit's
    1-D sums."""
    # vals = env (cos lin cos c - sin lin sin c) = Re[e^{ic} (2/pi) fx (x) fp]:
    # 2x2 normal equations on the bases a1 = Re, a2 = -Im of (2/pi) fx (x) fp
    gx = (2.0 / math.pi) * fx
    a1 = np.outer(gx, fp).real.ravel()
    a2 = np.outer(1j * gx, fp).real.ravel()
    b = np.asarray(values).ravel()
    g11, g12, g22 = a1 @ a1, a1 @ a2, a2 @ a2
    r1, r2 = a1 @ b, a2 @ b
    det = g11 * g22 - g12 * g12
    if det <= 0 or not np.isfinite(det):
        raise ValueError("fringe geometry is degenerate; cannot fit a phase")
    u = (g22 * r1 - g12 * r2) / det
    v = (g11 * r2 - g12 * r1) / det
    return math.atan2(v, u)


def save_csv_cellwise(grid, path) -> None:
    """The x,p,W text artifact written one f-string per cell, %.17g
    throughout, LF endings: the byte referee for ``save_csv``."""
    ps = [f"{p:.17g}," for p in grid.p_axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,p,W\n")
        for x, row in zip(grid.x_axis.tolist(), grid.values.tolist()):
            xc = f"{x:.17g},"
            fh.write("".join([f"{xc}{p}{v:.17g}\n" for p, v in zip(ps, row)]))


def second_order_kernel(params, t_outer: float, t_inner: float,
                        amplitudes: np.ndarray) -> np.ndarray:
    """Integrand vector of the nested second-order Dyson correction at
    one (t', t'') pair, for an initial field of ``amplitudes``.

    In the interaction picture of the sector propagators it is
    e^{i (Theta(t'') - Theta(t'))} e^{-i Im(a' conj(a''))} D[a'' - a'] psi0
    with Theta(s) = 4 (N-1) g^2 (s - sin s) and a(s) = 2 g (1 - e^{i s}),
    in units of the mode frequency.  The displacement is
    :func:`displacement_expm` on a ladder of twice the length, sliced
    back, so the truncation edge stays far from the levels used.
    """
    g = params.g

    def theta(s):
        return 4.0 * (params.n_atoms - 1) * g**2 * (s - math.sin(s))

    def center(s):
        return 2.0 * g * (1.0 - cmath.exp(1j * s))

    a_out, a_in = center(t_outer), center(t_inner)
    comp = cmath.exp(-1j * (a_out * a_in.conjugate()).imag)
    phase = cmath.exp(1j * (theta(t_inner) - theta(t_outer)))
    dim = len(amplitudes)
    disp = displacement_expm(2 * dim, a_in - a_out)[:dim, :dim]
    return (phase * comp) * (disp @ amplitudes)


def _sector_hamiltonian(g: float, m: int, top: int) -> sp.csr_matrix:
    """H_m = n + g m (a + a^dag) on Fock levels 0..top."""
    n = np.arange(top + 1, dtype=float)
    ladder = (g * m) * np.sqrt(n[1:])
    return sp.diags([ladder, n, ladder], [-1, 0, 1], format="csr")


def van_loan_corrections(params, t: float, steps: int,
                         amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order Dyson corrections at t_k = k t / steps on
    the input's levels 0..ncut, rows k = 0..steps.

    Both are blocks of one exponential of a block upper-triangular matrix
    (C. Van Loan, IEEE TAC 23, 395, 1978): with V = (Delta/2) sqrt(N),

        exp(-it [[H_N, V, 0], [0, H_{N-2}, V], [0, 0, H_N]]) (0, 0, psi0)

    holds the second order in block 0 and the first in block 1.  The
    identity is exact for any V, so the blocks are built with V = 1,
    where both corrections are as large as psi0 and the engine's error,
    relative to the whole vector, stays small relative to them; they are
    scaled by V and V^2 afterwards.  The truncated H_m reflect amplitude
    at the top of the ladder, so the blocks live 4 max(8, ncut/10) levels
    above the cutoff and are sliced back.  scipy's ``expm_multiply``
    steps the grid in one call, on a finer grid of q points per interval
    with ||B||_1 t / (steps q) <= 25: its Taylor sums cancel less on short
    steps, which takes its error from up to 2.5e-12 down to ~1e-13 on
    small, nearly diagonal ladders at t ~ 5 (checked against dense Pade
    ``expm``).
    """
    n, ncut = params.n_atoms, amplitudes.size - 1
    top = ncut + 4 * max(8, ncut // 10)
    dim = top + 1
    flip = sp.identity(dim, format="csr")
    h_n = _sector_hamiltonian(params.g, n, top)
    h_m = _sector_hamiltonian(params.g, n - 2, top)
    block = sp.bmat([[h_n, flip, None], [None, h_m, flip], [None, None, h_n]],
                    format="csr")
    vec = np.zeros(3 * dim, dtype=complex)
    vec[2 * dim: 2 * dim + ncut + 1] = amplitudes
    q = max(1, math.ceil(abs(block).sum(axis=0).max() * t / (25.0 * steps)))
    rows = expm_multiply(-1j * block, vec, start=0.0, stop=t, num=steps * q + 1,
                         endpoint=True)[::q]
    v = (params.delta / 2.0) * math.sqrt(n)
    return v * rows[:, dim: dim + ncut + 1], v * v * rows[:, : ncut + 1]


def csr_hamiltonian(params, ncut: int) -> sp.csr_matrix:
    """The joint model's H on Fock levels 0..ncut in the sector-major
    basis, as one CSR matrix of Kronecker products, spin factor first:
    I (x) n + g diag(m) (x) (a + a^dag) + (Delta/2) Sz_X (x) I."""
    dimf, dims = ncut + 1, params.n_atoms + 1
    n = np.arange(dimf, dtype=float)
    root, m = np.sqrt(n[1:]), params.n_atoms - 2.0 * np.arange(dims)
    q = np.arange(params.n_atoms)
    w = np.sqrt((q + 1.0) * (params.n_atoms - q))
    field = sp.kron(sp.identity(dims), sp.diags(n), format="csr")
    coupling = sp.kron(sp.diags(params.g * m), sp.diags([root, root], [-1, 1]),
                       format="csr")
    splitting = sp.kron((params.delta / 2.0) * sp.diags([w, w], [1, -1]),
                        sp.identity(dimf), format="csr")
    return field + coupling + splitting


def bessel_tail_bound(x: float, last: int) -> float:
    """The Chebyshev tail bound 2 |J_{K+1}| / (1 - |J_{K+2} / J_{K+1}|) at
    K = ``last``, from scipy's ``jv``."""
    first, second = np.abs(jv([last + 1, last + 2], x))
    return 2 * first / (1 - second / first) if first > 0 else 0.0


def log_factorials(d) -> np.ndarray:
    """log d! from scipy's ``gammaln``."""
    return gammaln(np.asarray(d, dtype=np.float64) + 1.0)


def short_bessel_window(x):
    """The Bessel window ceil(x + 30 + 10 x^(1/3)) cut to
    ceil(x + 5 x^(1/3)): a Chebyshev series ending there drops terms of
    order 1e-6 at x ~ 130."""
    return math.ceil(x + 5 * x ** (1 / 3))


def leaky_bessel_table(x, last):
    """Bessel values J_0(x) .. J_last(x) shrunk by 1 - 1e-6: a Chebyshev
    series built on them loses 1e-6 of the norm per interval."""
    return (1.0 - 1e-6) * jv(np.arange(last + 1), x)


def displacement_series_mp(n: int, k: int, alpha: complex, dps: int = 50):
    """<n|D[alpha]|k> by the normal-ordered double series in mpmath.

    D = e^{-|a|^2/2} e^{a ad} e^{-conj(a) a} gives
    <n|D|k> = e^{-x/2} sum_j a^(n-j) (-conj(a))^(k-j)
              sqrt(n! k!) / (j! (n-j)! (k-j)!),  j = 0..min(n,k),
    evaluated at ``dps`` digits.  Independent of the Laguerre route.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpc(alpha)
        acc = mp.mpc(0)
        for j in range(min(n, k) + 1):
            num = mp.sqrt(mp.factorial(n) * mp.factorial(k))
            den = mp.factorial(j) * mp.factorial(n - j) * mp.factorial(k - j)
            acc += a ** (n - j) * (-mp.conj(a)) ** (k - j) * num / den
        return acc * mp.e ** (-abs(a) ** 2 / 2)


def product_space_hamiltonian(delta, g, n_atoms, ncut) -> np.ndarray:
    """Full (ncut+1) * 2^N Hamiltonian in the sigma-x product basis, in
    units of the mode frequency.

    Site factor ordering: bit i of the spin index selects site i, bit
    value 1 = sigma-x eigenvalue -1.  Dense; referee for N <= 3.
    """
    dimf = ncut + 1
    nn = np.arange(dimf)
    a = np.diag(np.sqrt(nn[1:]), 1)
    xop = a + a.T
    nhat = np.diag(nn.astype(float))
    dims = 1 << n_atoms
    idx = np.arange(dims)
    H = np.zeros((dims * dimf, dims * dimf), dtype=complex)
    # field energy + coupling: diagonal in the spin index
    for s in range(dims):
        m = n_atoms - 2 * bin(s).count("1")  # sigma-x eigenvalue of this config
        blk = slice(s * dimf, (s + 1) * dimf)
        H[blk, blk] += nhat + g * m * xop
    # splitting: sigma_z flips each site between the two sigma-x states
    for i in range(n_atoms):
        flipped = idx ^ (1 << i)
        for s in range(dims):
            H[flipped[s] * dimf : (flipped[s] + 1) * dimf, s * dimf : (s + 1) * dimf] += (
                delta / 2
            ) * np.eye(dimf)
    return H


def symmetric_sector_embedding(n_atoms: int, ncut: int) -> np.ndarray:
    """Isometry from the (N+1) x (ncut+1) symmetric sector into the
    2^N product space used by :func:`product_space_hamiltonian`."""
    dims = 1 << n_atoms
    dimf = ncut + 1
    cols = []
    for q in range(n_atoms + 1):
        vec = np.zeros(dims)
        for s in range(dims):
            if bin(s).count("1") == q:
                vec[s] = 1.0
        vec /= np.linalg.norm(vec)
        cols.append(vec)
    spin = np.stack(cols, axis=1)  # dims x (N+1)
    return np.kron(spin, np.eye(dimf))  # maps sector-major joint vectors
