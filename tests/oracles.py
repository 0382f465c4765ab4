"""Independent high-precision oracles used by the test suite.

These deliberately avoid the package's own code paths: the shell formulas
are re-evaluated with 50-digit mpmath arithmetic, the finite element system
is assembled and solved in 40-digit arithmetic, F tail probabilities come
from direct numerical integration of the density, and root finding uses a
plain bisection.  Agreement between the double-precision implementation and
these routes is what the tests certify.
"""

from __future__ import annotations

import mpmath
import numpy as np

mpmath.mp.dps = 50


def mp_apex_coefficient(nu, alpha):
    nu = mpmath.mpf(str(nu))
    alpha = mpmath.mpf(str(alpha))
    c = mpmath.cos(alpha)
    return (1 + nu) * (1 / (1 + c) - mpmath.mpf(1) / 2 + mpmath.log(2 / (1 + c))) + 1 - (
        1 + nu
    ) / 2


def mp_load_factor(e_pa, t_um, p_pa, a_um):
    return (
        mpmath.mpf(str(a_um)) ** 2
        * mpmath.mpf(str(p_pa))
        / (mpmath.mpf(str(e_pa)) * mpmath.mpf(str(t_um)))
    )


def sphere_membrane_apex(e_pa, nu, t_um, p_pa, a_um):
    """Membrane deflection of a complete sphere under uniform pressure, um.

    pR**2 (1 - nu) / (2 E t): the membrane force pR/2 strains the shell by
    (1 - nu) pR / (2 E t) in every direction, and the radius grows by R times
    that (Timoshenko & Woinowsky-Krieger, the chapter on membrane shells of
    revolution).  A cap whose angle alpha goes to 0 deflects so at its apex.
    """
    return mp_load_factor(e_pa, t_um, p_pa, a_um) * (1 - mpmath.mpf(str(nu))) / 2


def mp_meridional_v(e_pa, nu, t_um, p_pa, a_um, alpha, phi):
    nu = mpmath.mpf(str(nu))
    alpha = mpmath.mpf(str(alpha))
    phi = mpmath.mpf(str(phi))
    if phi == 0:
        return mpmath.mpf(0)
    ca = mpmath.cos(alpha)
    cp = mpmath.cos(phi)
    bracket = 1 / (1 + ca) - 1 / (1 + cp) + mpmath.log((1 + cp) / (1 + ca))
    return mp_load_factor(e_pa, t_um, p_pa, a_um) * (1 + nu) * bracket * mpmath.sin(phi)


def mp_radial_w(e_pa, nu, t_um, p_pa, a_um, alpha, phi):
    nu = mpmath.mpf(str(nu))
    alpha = mpmath.mpf(str(alpha))
    phi = mpmath.mpf(str(phi))
    c_factor = mp_load_factor(e_pa, t_um, p_pa, a_um)
    if phi == 0:
        return c_factor * mp_apex_coefficient(nu, alpha)
    cp = mpmath.cos(phi)
    v = mp_meridional_v(e_pa, nu, t_um, p_pa, a_um, alpha, phi)
    return v * cp / mpmath.sin(phi) - c_factor * ((1 + nu) / (1 + cp) - cp)


def mp_fem_apex(r_um, z_um, e_pa, nu, t_um, p_pa, bc):
    """Apex deflection of the discrete shell FEM problem in 40-digit arithmetic.

    The inputs fix the discrete problem: the float64 node coordinates, the
    float64 4-point Gauss-Legendre rule from numpy, and the float material
    and load, all converted exactly.  Everything derived from them (element
    geometry, strain matrices, quadrature, rotation to the global frame,
    assembly, the reduced system and its Cholesky factorization) is carried
    out in high precision, so the result is what the double-precision solver
    would give without roundoff.  The formulation is the one stated in the
    ``globtop.fem`` module docstring: linear tangential and cubic Hermite
    normal interpolation, dofs (Ur, Uz, beta) per node, the apex held on the
    axis and the rim clamped or pinned.
    """
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        zero = mpf(0)
        r = [mpf(float(v)) for v in r_um]
        z = [mpf(float(v)) for v in z_um]
        nu = mpf(float(nu))
        c_m = mpf(float(e_pa)) * mpf(float(t_um)) / (1 - nu * nu)
        d_b = c_m * mpf(float(t_um)) ** 2 / 12
        p = mpf(float(p_pa))
        points = [((mpf(float(x)) + 1) / 2, mpf(float(w))) for x, w in zip(gauss_x, gauss_w)]

        n_dof = 3 * len(r)
        k = {}
        f = [zero] * n_dof
        for e in range(len(r) - 1):
            dr = r[e + 1] - r[e]
            dz = z[e + 1] - z[e]
            ell = mpmath.sqrt(dr * dr + dz * dz)
            tr, tz = dr / ell, dz / ell
            nr, nz = -tz, tr
            k_loc = [[zero] * 6 for _ in range(6)]
            f_loc = [zero] * 6
            for xi, wg in points:
                rad = r[e] + xi * dr
                wgt = 2 * mpmath.pi * wg * (ell / 2) * rad
                # Hermite shapes for (w1, beta1, w2, beta2) and their s-derivatives.
                h = [1 - 3 * xi**2 + 2 * xi**3, ell * (xi - 2 * xi**2 + xi**3),
                     3 * xi**2 - 2 * xi**3, ell * (-(xi**2) + xi**3)]
                dh = [(-6 * xi + 6 * xi**2) / ell, 1 - 4 * xi + 3 * xi**2,
                      (6 * xi - 6 * xi**2) / ell, -2 * xi + 3 * xi**2]
                d2h = [(-6 + 12 * xi) / ell**2, (-4 + 6 * xi) / ell,
                       (6 - 12 * xi) / ell**2, (-2 + 6 * xi) / ell]
                # Local dof order (u1, w1, beta1, u2, w2, beta2).
                e_s = [-1 / ell, 0, 0, 1 / ell, 0, 0]
                e_t = [(1 - xi) * tr / rad, h[0] * nr / rad, h[1] * nr / rad,
                       xi * tr / rad, h[2] * nr / rad, h[3] * nr / rad]
                k_s = [0, -d2h[0], -d2h[1], 0, -d2h[2], -d2h[3]]
                k_t = [0, -dh[0] * tr / rad, -dh[1] * tr / rad,
                       0, -dh[2] * tr / rad, -dh[3] * tr / rad]
                for i in range(6):
                    for j in range(6):
                        mem = e_s[i] * (e_s[j] + nu * e_t[j]) + e_t[i] * (nu * e_s[j] + e_t[j])
                        ben = k_s[i] * (k_s[j] + nu * k_t[j]) + k_t[i] * (nu * k_s[j] + k_t[j])
                        k_loc[i][j] += wgt * (c_m * mem + d_b * ben)
                for i, hi in zip((1, 2, 4, 5), h):
                    f_loc[i] -= p * wgt * hi
            # Global (Ur, Uz, beta) to local (u, w, beta), node by node.
            lam = [[zero] * 6 for _ in range(6)]
            for b in (0, 3):
                lam[b][b], lam[b][b + 1] = tr, tz
                lam[b + 1][b], lam[b + 1][b + 1] = nr, nz
                lam[b + 2][b + 2] = mpf(1)
            k_lam = [[mpmath.fsum(k_loc[a][c] * lam[c][j] for c in range(6)) for j in range(6)]
                     for a in range(6)]
            base = 3 * e
            for i in range(6):
                f[base + i] += mpmath.fsum(lam[a][i] * f_loc[a] for a in range(6))
                for j in range(6):
                    kij = mpmath.fsum(lam[a][i] * k_lam[a][j] for a in range(6))
                    k[base + i, base + j] = k.get((base + i, base + j), zero) + kij

        rim = n_dof - 3
        fixed = {0, 2, rim, rim + 1} | ({rim + 2} if bc == "clamped" else set())
        free = [i for i in range(n_dof) if i not in fixed]
        n = len(free)
        # Cholesky restricted to the band: a dof couples only to dofs of
        # its own and the neighbouring nodes, at most 5 free places away.
        hb = 5
        low = {}
        for j in range(n):
            for i in range(j, min(n, j + hb + 1)):
                s = mpmath.fsum(low[i, m] * low[j, m] for m in range(max(0, i - hb), j))
                a_ij = k.get((free[i], free[j]), zero) - s
                low[i, j] = mpmath.sqrt(a_ij) if i == j else a_ij / low[j, j]
        y = []
        for i in range(n):
            s = mpmath.fsum(low[i, m] * y[m] for m in range(max(0, i - hb), i))
            y.append((f[free[i]] - s) / low[i, i])
        x = [zero] * n
        for i in reversed(range(n)):
            s = mpmath.fsum(low[m, i] * x[m] for m in range(i + 1, min(n, i + hb + 1)))
            x[i] = (y[i] - s) / low[i, i]
        # Uz at the apex is global dof 1, the first free dof.
        return abs(x[free.index(1)])


def f_upper_tail_quad(f: float, d1: float, d2: float) -> float:
    """P(F > f) by tanh-sinh quadrature of the density in 50-digit arithmetic.

    The density's polynomial tail makes double-precision adaptive quadrature
    report error estimates near 1e-9 on a semi-infinite interval, too loose
    to certify anything at 1e-10.  mpmath's transformation handles both the
    slow decay and the x**(d1/2 - 1) behaviour without losing digits.
    """
    d1_mp = mpmath.mpf(str(d1))
    d2_mp = mpmath.mpf(str(d2))
    log_b = (
        mpmath.loggamma(d1_mp / 2)
        + mpmath.loggamma(d2_mp / 2)
        - mpmath.loggamma((d1_mp + d2_mp) / 2)
    )

    def density(x):
        return mpmath.exp(
            (d1_mp / 2) * mpmath.log(d1_mp / d2_mp)
            + (d1_mp / 2 - 1) * mpmath.log(x)
            - ((d1_mp + d2_mp) / 2) * mpmath.log(1 + d1_mp * x / d2_mp)
            - log_b
        )

    value, err = mpmath.quad(
        density, [mpmath.mpf(str(f)), mpmath.inf], error=True
    )
    if err > mpmath.mpf("1e-20") * max(1, abs(value)):
        raise RuntimeError(f"quadrature too loose: err={err}")
    return float(value)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 300) -> float:
    """Plain bisection for a sign change of fn on [lo, hi]."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) / max(abs(mid), 1.0) < tol:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
