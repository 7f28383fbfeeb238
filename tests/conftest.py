"""Shared independent oracles for the test suite.

Nothing here imports evaluation code from the package under test: the
Laguerre oracle is the exact finite series in rational arithmetic, the
displacement oracles are a truncated matrix exponential (float64, by one
cached eigendecomposition per ladder, cross-checked against Pade) and a
normal-ordered series in 50-digit arithmetic, the closed cat fringes are
evaluated pointwise on a full meshgrid, the second-order Dyson
kernel is written out from the displacement oracle, and the joint-model
oracle builds the full 2^N product-space Hamiltonian with dense kron
products.  Tests freeze values computed from these, then compare the
package against them.  One fault injector rounds the file off: an
exponential engine whose repeated steps disagree.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
import functools
import math

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import expm_multiply


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


def w_int_meshgrid(grid, beta_prime: complex, alpha: float, phi: float,
                   wt: float, offset: float) -> np.ndarray:
    """Closed-form cat interference term evaluated pointwise on the full
    meshgrid, (2/pi) exp[-(x-xb)^2 - (p-pb)^2] cos[lin + offset], given
    the frame's beta' and the fringe offset; the referee for the
    separable evaluation."""
    mid = beta_prime + alpha * math.cos(phi) * complex(math.cos(wt), -math.sin(wt))
    xb, pb = math.sqrt(2) * mid.real, math.sqrt(2) * mid.imag
    X, P = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    env = (2.0 / math.pi) * np.exp(-((X - xb) ** 2) - (P - pb) ** 2)
    arg = (2.0 * math.sqrt(2) * alpha * math.sin(phi)
           * (P * math.sin(wt) - X * math.cos(wt))
           + offset)
    return env * np.cos(arg)


def second_order_kernel(params, t_outer: float, t_inner: float,
                        amplitudes: np.ndarray) -> np.ndarray:
    """Integrand vector of the nested second-order Dyson correction at
    one (t', t'') pair, for an initial field of ``amplitudes``.

    In the interaction picture of the sector propagators it is
    e^{i (Theta(t'') - Theta(t'))} e^{-i Im(a' conj(a''))} D[a'' - a'] psi0
    with Theta(s) = 4 (N-1) (g/omega)^2 (omega s - sin omega s) and
    a(s) = (2 g / omega)(1 - e^{i omega s}).  The displacement is
    :func:`displacement_expm` on a ladder of twice the length, sliced
    back, so the truncation edge stays far from the levels used.
    """
    ratio = params.g / params.omega

    def theta(s):
        ws = params.omega * s
        return 4.0 * (params.n_atoms - 1) * ratio**2 * (ws - math.sin(ws))

    def center(s):
        return 2.0 * ratio * (1.0 - cmath.exp(1j * params.omega * s))

    a_out, a_in = center(t_outer), center(t_inner)
    comp = cmath.exp(-1j * (a_out * a_in.conjugate()).imag)
    phase = cmath.exp(1j * (theta(t_inner) - theta(t_outer)))
    dim = len(amplitudes)
    disp = displacement_expm(2 * dim, a_in - a_out)[:dim, :dim]
    return (phase * comp) * (disp @ amplitudes)


def phase_kicked_expm_multiply(a, v):
    """scipy's ``expm_multiply`` with a spurious phase e^{i 1e-6} on every
    call: each application stays unitary, but one whole step and two half
    steps then differ by about 1e-6."""
    return np.exp(1e-6j) * expm_multiply(a, v)


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


def product_space_hamiltonian(omega, delta, g, n_atoms, ncut) -> np.ndarray:
    """Full (ncut+1) * 2^N Hamiltonian in the sigma-x product basis.

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
        H[blk, blk] += omega * nhat + g * m * xop
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
