"""Circulant matrices, their Fourier eigenstructure, and inverse coefficients.

A circulant matrix Cir(c) has entry (i, j) = c[(i - j) mod n]; each
column is the previous one rotated one element down.  Its eigenvectors
are the Fourier modes, with the m-th eigenvalue
psi_m = <V_m, c> + i <U_m, c> where V_m[j] = cos(2*pi*j*m/n) and
U_m[j] = sin(2*pi*j*m/n).

Two independent computation paths are provided on purpose:

* a float path (``t_values``) that expands the inverse coefficients
  T_k(c) from the Fourier data — this is the form the constraint
  synthesizer needs, since there c is symbolic;
* an exact rational path (``t_hat_exact``) that solves
  Cir(c) x = e_1 in integer (fraction-free) arithmetic — this anchors
  tests and the instance generator.  The same elimination gives
  ``scaled_inverse``, the integer matrix D*A^{-1} with which the core
  check reads barycentric signs.

The coefficient vectors are related by
t_hat[k] = (1/n) * (1/<c,1> + t[k]) and t_bar = first row of
Cir(t_hat) = (t_hat[0], t_hat[n-1], ..., t_hat[1]);
sum(t) = 0 whenever Cir(c) is invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError, SingularCirculant

#: scale-aware relative tolerance deciding when a spectral factor counts as zero
SINGULARITY_RTOL = 1e-9


@lru_cache(maxsize=None)
def _fourier_table(n: int) -> tuple:
    """All (V_m, U_m) pairs for a given n, cached."""
    table = []
    for m in range(n):
        V = tuple(math.cos(2.0 * math.pi * ((j * m) % n) / n) for j in range(n))
        U = tuple(math.sin(2.0 * math.pi * ((j * m) % n) / n) for j in range(n))
        table.append((V, U))
    return tuple(table)


def fourier_pair(n: int, m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cosine/sine mode vectors: V_m[j] = cos(2*pi*j*m/n), U_m[j] = sin(...)."""
    if not 0 <= m < n:
        raise InputError(f"need 0 <= m < n, got m={m}, n={n}")
    return _fourier_table(n)[m]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue data of Cir(c): psi_m = psi_re[m] + i*psi_im[m]."""

    n: int
    psi_re: tuple[float, ...]
    psi_im: tuple[float, ...]
    #: squared length of the projection of c onto the m-th mode plane
    proj_len_sq: tuple[float, ...]


def eigenvalues(c: Sequence) -> Spectrum:
    n = len(c)
    table = _fourier_table(n)
    re, im, proj = [], [], []
    for m in range(n):
        V, U = table[m]
        a = sum(float(c[j]) * V[j] for j in range(n))
        b = sum(float(c[j]) * U[j] for j in range(n))
        re.append(a)
        im.append(b)
        proj.append(a * a + b * b)
    return Spectrum(n=n, psi_re=tuple(re), psi_im=tuple(im), proj_len_sq=tuple(proj))


def _mode_pairs(n: int) -> tuple[int, bool]:
    """Number of conjugate mode pairs of an n-cycle's spectrum and
    whether the alternating (m = n/2) linear factor exists."""
    if n % 2:
        return (n - 1) // 2, False
    return (n - 2) // 2, True


def _norm_sq(c: Sequence) -> float:
    return sum(float(x) * float(x) for x in c)


def _zero_factor(value_sq: float, scale_sq: float) -> bool:
    return value_sq <= SINGULARITY_RTOL * (1.0 + scale_sq)


@dataclass(frozen=True)
class TValues:
    """Inverse-circulant coefficients of a vector c."""

    t: tuple[float, ...]
    t_hat: tuple[float, ...]
    t_bar: tuple[float, ...]
    layer_sum: float


def t_values(c: Sequence) -> TValues:
    """Compute T_k(c), t_hat and t_bar through the Fourier path.

    T_k is a sum of 2*<rotated V_m, c> / proj_len_sq[m] over the mode
    pairs (plus a (-1)^k / <V_{n/2}, c> term when n is even); then
    t_hat[k] = (1/n)(1/<c,1> + T_k).  Raises SingularCirculant when any
    spectral factor vanishes within the scale-aware tolerance.
    """
    n = len(c)
    spec = eigenvalues(c)
    scale = _norm_sq(c)
    if _zero_factor(spec.psi_re[0] ** 2, scale):
        raise SingularCirculant(f"<c,1> ~ 0 for c={tuple(c)}")
    pairs, alternating = _mode_pairs(n)
    for m in range(1, pairs + 1):
        if _zero_factor(spec.proj_len_sq[m], scale):
            raise SingularCirculant(f"mode {m} projection ~ 0 for c={tuple(c)}")
    if alternating and _zero_factor(spec.psi_re[n // 2] ** 2, scale):
        raise SingularCirculant(f"mode {n//2} factor ~ 0 for c={tuple(c)}")

    table = _fourier_table(n)
    cf = [float(x) for x in c]
    t = []
    for k in range(n):
        acc = 0.0
        for m in range(1, pairs + 1):
            V = table[m][0]
            # <sigma^{-k}(V_m), c>: rotating the mode back k steps
            # shifts its argument forward by k.
            dot = sum(V[(j + k) % n] * cf[j] for j in range(n))
            acc += 2.0 * dot / spec.proj_len_sq[m]
        if alternating:
            acc += (-1.0) ** k / spec.psi_re[n // 2]
        t.append(acc)
    inv_layer = 1.0 / spec.psi_re[0]
    t_hat = tuple((inv_layer + tk) / n for tk in t)
    t_bar = tuple(t_hat[(-j) % n] for j in range(n))
    return TValues(t=tuple(t), t_hat=t_hat, t_bar=t_bar, layer_sum=spec.psi_re[0])


@lru_cache(maxsize=None)
def _cyclotomic_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The cyclotomic polynomials Phi_d for every divisor d of n, in
    increasing d, each as integer coefficients from the constant term up
    (monic), cached: Phi_d = (t^d - 1) / prod of Phi_e over e | d, e < d,
    an exact division by monic integer polynomials."""
    phis: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        num = [-1] + [0] * (d - 1) + [1]
        for e, phi in phis.items():
            if d % e:
                continue
            deg = len(phi) - 1
            quot = [0] * (len(num) - deg)
            for top in range(len(num) - 1, deg - 1, -1):
                q = quot[top - deg] = num[top]
                if q:
                    for i in range(deg + 1):
                        num[top - deg + i] -= q * phi[i]
            num = quot
        phis[d] = num
    return tuple(tuple(phi) for phi in phis.values())


def is_singular(c: Sequence[int]) -> bool:
    """Whether Cir(c) is singular, decided exactly for an integer c.

    The eigenvalues of Cir(c) are c(w) = sum_j c_j w^j over the n-th
    roots of unity w, and c(w) = 0 for a primitive d-th root w iff
    Phi_d(t) divides c(t) (Ingleton, "The rank of circulant matrices",
    J. London Math. Soc. 1956).  So Cir(c) is singular iff the remainder
    of c(t) by Phi_d is zero for some d | n: integer long division by
    each monic Phi_d of ``_cyclotomic_table``.  d = 1 and d = 2 test the
    sum and the alternating sum.  Rotating c multiplies c(t) by a power
    of t modulo t^n - 1, which every Phi_d divides, so the answer is the
    same on a whole orbit."""
    n = len(c)
    for phi in _cyclotomic_table(n):
        deg = len(phi) - 1
        rem = list(c)
        for top in range(n - 1, deg - 1, -1):
            q = rem[top]
            if q:
                for i in range(deg):
                    rem[top - deg + i] -= q * phi[i]
        if not any(rem[:deg]):
            return True
    return False


def cut_rotation(
    c: Sequence[int], points: Sequence[Sequence[int]], rotations: int = 1
) -> Optional[int]:
    """The first rotation s < ``rotations`` of the integer block c (s
    moves place i to i + s) at which every S1 cut of ``points`` is
    negative, decided exactly; None when there is none, or when Cir(c)
    is singular apart from its sum (a smoothness guard fails).

    A cut is H(z) = 1 + sum_j z_j T_{(-j) mod k}(c), and T does not read
    the sum mode, so c' = c + 1 stands for c when sum(c) = 0, and
    S' = sum(c') != 0.  One solve (``_solve_integer_system``) gives D > 0
    and u = D t_hat(c'), or finds a guard failing, and as
    T_t = k t_hat_t - 1/S', with Z = sum(z),
    D S' H = D S' + k S' sum_j z_j u_{(s - j) mod k} - Z D, so H < 0 iff
    that times S' is negative."""
    n = len(c)
    shift = 0 if sum(c) else 1
    layer = sum(c) + n * shift
    rows = [[c[(i - j) % n] + shift for j in range(n)] for i in range(n)]
    try:
        den, col = _solve_integer_system(rows, [[int(i == 0)] for i in range(n)])
    except SingularCirculant:
        return None
    u = [x for (x,) in col]
    for s in range(rotations):
        for z in points:
            h = den * layer + n * layer * sum(zj * u[(s - j) % n] for j, zj in enumerate(z))
            if (h - sum(z) * den) * layer >= 0:
                break
        else:
            return s
    return None


def det_circulant(c: Sequence) -> float:
    """det(Cir(c)) via the spectral product formula."""
    n = len(c)
    spec = eigenvalues(c)
    pairs, alternating = _mode_pairs(n)
    det = spec.psi_re[0]
    if alternating:
        det *= spec.psi_re[n // 2]
    for m in range(1, pairs + 1):
        det *= spec.proj_len_sq[m]
    return det


def _solve_integer_system(
    rows: list[list[int]], rhs: list[list[int]]
) -> tuple[int, list[list[int]]]:
    """Solve A X = D B for integer A (``rows``) and B (``rhs``, n x m) by
    fraction-free (Bareiss) elimination.

    Returns D = |det A| > 0 and the integer matrix X = D A^{-1} B: the
    last pivot is +-det A and D A^{-1} is +-adj A, so every division in
    the elimination and the back substitution is exact."""
    n = len(rows)
    m = len(rhs[0]) if n else 0
    M = [list(rows[i]) + list(rhs[i]) for i in range(n)]
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    break
            else:
                raise SingularCirculant("matrix is singular over the rationals")
        for i in range(k + 1, n):
            for j in range(k + 1, n + m):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    X = [[0] * m for _ in range(n)]
    for col in range(n, n + m):
        for i in range(n - 1, -1, -1):
            acc = prev * M[i][col]
            for j in range(i + 1, n):
                acc -= M[i][j] * X[j][col - n]
            X[i][col - n] = acc // M[i][i]
    if prev < 0:
        return -prev, [[-x for x in row] for row in X]
    return prev, X


def scaled_inverse(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """D > 0 and the integer matrix D A^{-1} of a regular integer matrix A.

    Raises SingularCirculant when A is singular."""
    n = len(rows)
    return _solve_integer_system(rows, [[int(i == j) for j in range(n)] for i in range(n)])


def solve_circulant_exact(c: Sequence[int], z: Sequence[int]) -> list[Fraction]:
    """Exact rational solution of Cir(c) x = z for integer c and z."""
    if any(int(x) != x for x in c) or any(int(x) != x for x in z):
        raise InputError("exact path requires integer vectors")
    n = len(c)
    if len(z) != n:
        raise InputError("dimension mismatch")
    rows = [[int(c[(i - j) % n]) for j in range(n)] for i in range(n)]
    den, x = _solve_integer_system(rows, [[int(v)] for v in z])
    return [Fraction(xi[0], den) for xi in x]


def t_hat_exact(c: Sequence[int]) -> list[Fraction]:
    """Exact first column of Cir(c)^{-1} (solves Cir(c) x = e_1)."""
    e1 = [1] + [0] * (len(c) - 1)
    return solve_circulant_exact(c, e1)
