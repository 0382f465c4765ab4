"""Axisymmetric shell finite elements for the pressurized cap.

The meridian is discretized into straight conical frustum elements with two
nodes.  Each node carries three degrees of freedom in the global frame: the
radial displacement Ur, the axial displacement Uz, and the meridional
rotation beta.  Inside an element the displacement is interpolated in the
local tangent/normal frame, linear for the tangential component u and cubic
Hermite for the normal component w, so the rotation dof is beta = dw/ds and
w is C1 across element joins.

Strain measures for a shell of revolution with meridional tangent T and
outward normal N, in the local frame with arc coordinate s and radius r(s):

    membrane   e_s = u'                e_t = (u Tr + w Nr) / r
    bending    k_s = -w''              k_t = -w' Tr / r

The element stiffness is the usual thin-shell quadratic form with membrane
rigidity E t / (1 - nu^2) and bending rigidity E t^3 / (12 (1 - nu^2)),
integrated with 4-point Gauss quadrature including the 2 pi r measure.  The
consistent load vector applies a uniform normal pressure P acting against
the outward normal.  Both rigidities and P enter linearly, so the membrane
and bending parts and the load of a unit pressure are built once per mesh
and Poisson ratio, and each solve scales and adds them.

Sign conventions follow the mesh orientation, apex to rim: w and the normal
N point outward, so an external pressure gives negative w.  Units are um for
lengths and Pa for pressures and moduli; a force-like quantity assembled
from Pa times um^2 is 1e-12 N, and reactions are reported in newtons.

The global system is symmetric positive definite after boundary conditions
and has half-bandwidth 5, so it is stored in banded form and solved with a
banded Cholesky factorization, LAPACK's dpbtrf and dpbtrs called directly
(the routines behind scipy's cholesky_banded and cho_solve_banded, without
their per-call wrapping).  They are taken through ctypes from the LAPACK
that numpy's own linalg extension links against, so a FEM process holds
one BLAS library and loads no scipy module.  Where that LAPACK does not
export them (numpy on Accelerate or on a system LAPACK, or on Windows),
they come from scipy's LAPACK extension module, loaded from its file.
Supports: the apex node is held on the axis (Ur = 0, beta = 0 by
symmetry); the rim is either clamped (Ur = Uz = 0, beta = 0) or pinned
(Ur = Uz = 0).  The rim reaction is read from one row of the unconstrained
system.
"""

from __future__ import annotations

import ctypes
import math
import sys
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InputDomainError, MeshError, Record, SolverError, finite_non_negative, finite_positive, write_text,
)
from .geometry import CapGeometry
from .materials import Material
from .screening import BOUNDARY_CONDITIONS, FEM_MAX_ELEMENTS

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from pathlib import Path
    from typing import IO, Sequence

HALF_BANDWIDTH = 5
# 4-point Gauss-Legendre rule on [-1, 1]: the values of
# numpy.polynomial.legendre.leggauss(4), which computes them with LAPACK.
_GAUSS_X = np.array(
    [-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526]
)
_GAUSS_W = np.array(
    [0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]
)
_N_TO_PA_UM2 = 1.0e-12  # 1 Pa * um^2 in newtons

# Tables over the Gauss points mapped to [0, 1], shaped (node, gauss, 1)
# against the elements' axis, that do not depend on the element: the
# factors in xi of the cubic Hermite shapes of w (w1, beta1, w2, beta2), of
# their first and second derivatives negated, and the membrane shapes
# 1 - xi and xi of u.  The length still scales them, as the shapes' own
# expressions do.  Negating a table before a division by the length gives
# the bits of negating the quotient, and the derivatives of w2 are those of
# w1 negated to the bit: 6 xi - 6 xi^2 rounds to -(-6 xi + 6 xi^2).
_NODE_SIGNS = np.array([-1.0, 1.0])[:, None, None]
_XI = (0.5 * (_GAUSS_X + 1.0))[:, None]
_H_W = np.array([1.0 - 3.0 * _XI**2 + 2.0 * _XI**3, 3.0 * _XI**2 - 2.0 * _XI**3])
_H_BETA = np.array([_XI - 2.0 * _XI**2 + _XI**3, -(_XI**2) + _XI**3])  # times length
_NEG_DH_W = -_NODE_SIGNS * (6.0 * _XI - 6.0 * _XI**2)  # / length
_NEG_DH_BETA = -np.array([1.0 - 4.0 * _XI + 3.0 * _XI**2, -2.0 * _XI + 3.0 * _XI**2])
_NEG_D2H_W = -_NODE_SIGNS * (6.0 - 12.0 * _XI)  # / length**2
_NEG_D2H_BETA = -np.array([-4.0 + 6.0 * _XI, -2.0 + 6.0 * _XI])  # / length
_U_SHAPES = np.array([1.0 - _XI, _XI])
_TWO_PI_W = 2.0 * math.pi * _GAUSS_W[:, None]  # the ring's 2 pi r measure, less r


# Fortran LAPACK with 64-bit integers: every argument by address, and a
# hidden trailing length for each character argument.
_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)


def _numpy_lapack():
    """dpbtrf and dpbtrs from the LAPACK numpy's linalg extension links, or None.

    A handle opened on the extension's own file resolves the symbols of the
    libraries it depends on, so no library path is named here.  numpy's
    wheels bundle an OpenBLAS built for 64-bit integers, whose symbols carry
    the ``64_`` suffix and, in scipy-openblas builds, a ``scipy_`` prefix;
    a LAPACK without either pair of names is not used.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_", ""):
        pbtrf = getattr(lib, prefix + "dpbtrf_64_", None)
        pbtrs = getattr(lib, prefix + "dpbtrs_64_", None)
        if pbtrf is not None and pbtrs is not None:
            break
    else:
        return None
    pbtrf.argtypes = (
        ctypes.c_char_p, _INT_P, _INT_P, ctypes.c_void_p, _INT_P, _INT_P, ctypes.c_size_t
    )
    pbtrs.argtypes = (
        ctypes.c_char_p, _INT_P, _INT_P, _INT_P, ctypes.c_void_p, _INT_P,
        ctypes.c_void_p, _INT_P, _INT_P, ctypes.c_size_t,
    )
    pbtrf.restype = pbtrs.restype = None

    @lru_cache(maxsize=8)
    def sizes(n: int, kd1: int) -> tuple:
        """n, kd, ldab and nrhs of a band size, made once: LAPACK only reads them."""
        return _INT(n), _INT(kd1 - 1), _INT(kd1), _INT(1)

    # f2py's call shapes and overwrite flags.  The band, the right side and
    # info are per call, so threads may solve at once; ctypes releases the
    # GIL for the call.
    def dpbtrf(ab: np.ndarray, lower: int = 0, overwrite_ab: int = 0) -> tuple[np.ndarray, int]:
        factor = (np.asarray if overwrite_ab else np.array)(ab, dtype=np.float64, order="F")
        if factor.ndim != 2 or factor.shape[0] < 1:
            raise ValueError(f"dpbtrf needs a (kd + 1, n) band, got shape {factor.shape}")
        n, kd, ldab, _ = sizes(factor.shape[1], factor.shape[0])
        info = _INT()
        pbtrf(b"L" if lower else b"U", n, kd, factor.ctypes.data, ldab, info, 1)
        return factor, info.value

    def dpbtrs(factor: np.ndarray, b: np.ndarray, overwrite_b: int = 0) -> tuple[np.ndarray, int]:
        factor = np.asfortranarray(factor, dtype=np.float64)
        x = (np.asarray if overwrite_b else np.array)(b, dtype=np.float64, order="C")
        if factor.ndim != 2 or factor.shape[0] < 1 or x.shape != factor.shape[1:]:
            raise ValueError(
                f"dpbtrs needs a (kd + 1, n) factor and n values, got {factor.shape} and {x.shape}"
            )
        n, kd, ldab, nrhs = sizes(factor.shape[1], factor.shape[0])
        info = _INT()
        pbtrs(b"U", n, kd, nrhs, factor.ctypes.data, ldab, x.ctypes.data, n, info, 1)
        return x, info.value

    return dpbtrf, dpbtrs


def _load_flapack():
    """dpbtrf and dpbtrs from scipy's f2py LAPACK extension, loaded from its file.

    The second source of dpbtrf and dpbtrs, for a numpy whose LAPACK does
    not export them.  ``import scipy.linalg`` runs the package ``__init__``,
    which also loads ``numpy.f2py``, ``numpy.ma``, ``numpy.random`` and
    ``numpy.testing``; the extension alone loads in about 5 ms.  It is
    registered under its own name, so a later ``import scipy.linalg`` in the
    process reuses it.
    """
    import importlib.machinery
    import importlib.util
    from pathlib import Path

    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module.dpbtrf, module.dpbtrs
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy is not None else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
                return module.dpbtrf, module.dpbtrs
    raise ImportError(
        "globtop.fem needs LAPACK's dpbtrf and dpbtrs: numpy's LAPACK does not export"
        " them, and scipy, whose LAPACK extension scipy/linalg/_flapack would provide"
        " them, was not found; install globtop's scipy extra: pip install 'globtop[scipy]'",
        name="scipy",
    )


# The banded Cholesky routines, from numpy's LAPACK, else from scipy's.
_PBTRF, _PBTRS = _numpy_lapack() or _load_flapack()


class ShellMesh(Record):
    """Meridian nodes of a shell of revolution, apex first.

    ``r_um`` must start at the axis and increase strictly; ``z_um`` is the
    axial coordinate.  ``phi_rad`` and ``radius_um`` optionally carry the
    spherical meridian angle per node and the sphere radius when the mesh
    samples a cap; a solve rejects a shell thicker than that radius.  Arc
    length ``s_um`` is accumulated from the apex.  The stiffness parts of
    the mesh are built on first use and kept on it, one set per Poisson
    ratio.
    """

    r_um: np.ndarray
    z_um: np.ndarray
    phi_rad: np.ndarray | None = None
    radius_um: float | None = None

    # By identity, as a solution's: arrays do not compare to one bool.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self) -> None:
        r = np.asarray(self.r_um, dtype=float)
        z = np.asarray(self.z_um, dtype=float)
        object.__setattr__(self, "r_um", r)
        object.__setattr__(self, "z_um", z)
        if r.ndim != 1 or z.shape != r.shape:
            raise MeshError("r_um and z_um must be 1-D arrays of equal length")
        if r.size < 5:
            raise MeshError(
                f"mesh needs at least 4 elements (5 nodes), got {r.size - 1} elements"
            )
        if not (np.isfinite(r).all() and np.isfinite(z).all()):
            raise MeshError("mesh coordinates must be finite")
        scale = float(abs(r).max() + abs(z).max())
        if abs(r[0]) > 1e-9 * scale:
            raise MeshError(f"first node must sit on the axis, r[0]={r[0]!r}")
        dr = r[1:] - r[:-1]
        if (dr <= 0.0).any():
            raise MeshError("node radii must increase strictly from apex to rim")
        object.__setattr__(self, "_unit_parts", {})  # nu -> _unit_system
        if self.radius_um is not None and not self.radius_um > 0.0:
            raise MeshError(f"radius_um must be positive, got {self.radius_um!r}")
        if self.phi_rad is not None:
            phi = np.asarray(self.phi_rad, dtype=float)
            object.__setattr__(self, "phi_rad", phi)
            if phi.shape != r.shape:
                raise MeshError("phi_rad must match the node arrays")
            if abs(phi[0]) > 1e-15 or (phi[1:] - phi[:-1] <= 0.0).any():
                raise MeshError("phi_rad must start at 0 and increase strictly")

    @cached_property
    def s_um(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(self.r_um), np.diff(self.z_um)))])

    @property
    def n_nodes(self) -> int:
        return int(self.r_um.size)

    @property
    def n_elements(self) -> int:
        return self.n_nodes - 1

    @property
    def n_dof(self) -> int:
        return 3 * self.n_nodes

    def node_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node unit tangent (Tr, Tz) toward the rim and outward normal.

        Uses the stored meridian angles when present, otherwise averaged
        element directions.
        """
        if self.phi_rad is not None:
            t = np.column_stack([np.cos(self.phi_rad), -np.sin(self.phi_rad)])
        else:
            dr = np.diff(self.r_um)
            dz = np.diff(self.z_um)
            seg = np.hypot(dr, dz)
            et = np.column_stack([dr / seg, dz / seg])
            t = np.empty((self.n_nodes, 2))
            t[0] = et[0]
            t[-1] = et[-1]
            mid = et[:-1] + et[1:]
            mid /= np.linalg.norm(mid, axis=1, keepdims=True)
            t[1:-1] = mid
        n = np.column_stack([-t[:, 1], t[:, 0]])
        return t, n


def mesh_cap(geometry: CapGeometry, n_elements: int) -> ShellMesh:
    """Uniform-angle mesh of a spherical cap, apex to rim, of 4 to
    ``FEM_MAX_ELEMENTS`` elements."""
    n = int(n_elements)
    if n < 4:
        raise MeshError(f"n_elements must be at least 4, got {n_elements!r}")
    if n > FEM_MAX_ELEMENTS:
        raise MeshError(f"n_elements must be at most {FEM_MAX_ELEMENTS}, got {n_elements!r}")
    a = geometry.radius_um
    alpha = geometry.base_angle_rad
    # np.linspace(0.0, alpha, n + 1)'s arithmetic, without its wrapper.
    phi = np.arange(n + 1.0) * (alpha / n)
    phi[-1] = alpha
    r = a * np.sin(phi)
    z = a * (np.cos(phi) - math.cos(alpha))
    return ShellMesh(r_um=r, z_um=z, phi_rad=phi, radius_um=a)


def _check_solve_args(thickness_um: float, pressure_pa: float, bc: str) -> None:
    finite_positive("thickness_um", thickness_um)
    finite_non_negative("pressure_pa", pressure_pa)
    if bc not in BOUNDARY_CONDITIONS:
        raise InputDomainError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")


def _element_parts(meshes: Sequence[ShellMesh], nu) -> tuple[np.ndarray, np.ndarray]:
    """Banded stiffness parts and load of the meshes, free of E, t and P.

    The meshes' nodes are laid end to end, each mesh's band columns right
    after the previous mesh's.  Returns the membrane and bending parts as
    one upper band, (2, HALF_BANDWIDTH + 1, n_dof), per unit membrane
    rigidity E t / (1 - nu^2) and unit bending rigidity
    E t^3 / (12 (1 - nu^2)), and the load of a unit pressure, (n_dof,).
    ``nu`` is one Poisson ratio, or one per element, counting the element
    that joins each mesh's rim to the next mesh's apex; that element is
    given unit length and zero weights, so its entries are signed zeros,
    which leave every band slot as it would be without them.  Every sum is
    elementwise in a fixed order, so the result does not depend on the BLAS
    build, and a mesh's columns are the same bits whether it is built alone
    or with others, under one ratio or with a ratio per element.  A strain
    row's entry that the shapes make zero is left out of its sum: it would
    add a signed zero, which moves no bit of a nonzero entry, and an entry
    that is zero lands in a band slot that stays +0.0.

    The parts are built one after the other into one b, each part's strain
    rows only while b is filled, and each column of D b where it is used;
    each column's sums go into the band as they are made.  Every temporary
    that grows with the element count is a view of one block, allocated
    once per pass.  glibc's malloc maps a request of 128 kB or more afresh
    until it frees a mapped block; from then on it serves requests up to
    that block's size from its heap, and it returns the top of the heap to
    the system only once more than twice that size is free there, after
    which the next pass faults its pages back in.  The block is larger than
    everything else a pass holds, the band included, so the heap top that a
    pass leaves free stays under that bound, and repeated passes reuse the
    same pages wherever the heap placed them.  The temporaries peak near
    336 kB for one mesh of 256 elements, 274 kB of it the block, and near
    640 kB for the 483 elements of the 32-256 ladder, 518 kB of it the
    block.
    """
    r = np.concatenate([mesh.r_um for mesh in meshes])
    z = np.concatenate([mesh.z_um for mesh in meshes])
    r1 = r[:-1]
    dr = r[1:] - r1
    dz = z[1:] - z[:-1]
    joins = np.cumsum([mesh.n_nodes for mesh in meshes[:-1]], dtype=int) - 1
    dr[joins] = 1.0
    dz[joins] = 0.0
    length = np.hypot(dr, dz)
    tr = dr / length
    tz = dz / length
    nr = -tz
    nz = tr

    # The block, per element: b, (strain row, global dof, gauss), refilled
    # per part, whose dofs 0::3, 1::3 and 2::3 are the (Ur, Uz, beta) pairs
    # of the two nodes; the two products q and p of a column, which also
    # hold a strain row's factors while b is filled, its weighted D b and
    # its sums; and the Gauss-point geometry.
    n_el = r1.size
    b, q, p, db, sums, r_g, wgt, n_over_r, t_over_r, h_beta = _views(
        np.empty(134 * n_el),
        ((2, 6, 4), (6, 4), (6, 4), (2, 4), (6,), (4,), (4,), (4,), (4,), (2, 4)),
        n_el,
    )
    band = np.zeros((2, HALF_BANDWIDTH + 1, 3 * r.size))

    # Gauss point by element, (4, n_el), or a (node 1, node 2) pair of them.
    np.add(r1, np.multiply(np.multiply(_XI, length, out=r_g), tr, out=r_g), out=r_g)
    np.multiply(np.multiply(_TWO_PI_W, length / 2.0, out=wgt), r_g, out=wgt)
    wgt[:, joins] = 0.0
    np.multiply(length, _H_BETA, out=h_beta)
    np.divide(nr, r_g, out=n_over_r)
    np.divide(tr, r_g, out=t_over_r)

    def rotate(row: int, u, w) -> None:
        """Rotate the nodes' (u, w) columns of a strain row into b's
        (Ur, Uz): u = Tr Ur + Tz Uz and w = Nr Ur + Nz Uz; a u of None is a
        zero that the shapes make."""
        for dof, along_t, along_n in ((0, tr, nr), (1, tz, nz)):
            out = b[row, dof::3]
            np.multiply(w, along_n, out=out)
            if u is not None:
                np.add(out, np.multiply(u, along_t, out=p[:2]), out=out)

    def column(j: int, rows: int) -> None:
        """Rows 0..rows-1 of column j of the part into ``sums``: weighted
        D b, D = [[1, nu], [nu, 1]], against b's rows, summed over the Gauss
        points in order."""
        np.multiply(nu, b[::-1, j], out=db)
        np.add(db, b[:, j], out=db)
        np.multiply(db, wgt, out=db)
        np.multiply(b[0, :rows], db[0], out=q[:rows])
        np.multiply(b[1, :rows], db[1], out=p[:rows])
        np.add(q[:rows], p[:rows], out=q[:rows])
        np.add.reduce(q[:rows], axis=1, out=sums[:rows])

    # Entry (i, j) of element e lands in band row HALF_BANDWIDTH + i - j and
    # column 3 e + j, so the entries of one column of all elements are a
    # strided block.  A slot gets at most two contributions, from the two
    # elements at a node, and their sum does not depend on their order.
    stop = 3 * n_el

    def add(part: int, j: int) -> None:
        """Add rows 0..j of ``sums`` as column j of every element."""
        band[part, HALF_BANDWIDTH - j :, j : j + stop : 3] += sums[: j + 1]

    # Each part's strain rows over the local nodal dofs (u, w, beta) of each
    # node, then its columns.  Membrane (e_s, e_t), where e_s has only u:
    inv_l = 1.0 / length
    b[0, 0::3] = _NODE_SIGNS * (inv_l * tr)
    b[0, 1::3] = _NODE_SIGNS * (inv_l * tz)
    b[0, 2::3] = 0.0
    rotate(1, np.multiply(_U_SHAPES, t_over_r, out=q[:2]), np.multiply(_H_W, n_over_r, out=q[2:4]))
    np.multiply(h_beta, n_over_r, out=b[1, 2::3])
    for j in range(6):
        column(j, j + 1)
        add(0, j)
    # Bending (k_s, k_t), from the shapes' arc-length derivatives:
    rotate(0, None, np.divide(_NEG_D2H_W, length**2, out=q[:2]))
    np.divide(_NEG_D2H_BETA, length, out=b[0, 2::3])
    rotate(1, None, np.multiply(np.divide(_NEG_DH_W, length, out=q[:2]), t_over_r, out=q[:2]))
    np.multiply(_NEG_DH_BETA, t_over_r, out=b[1, 2::3])
    # The tables of w2 are those of w1 negated, so in both rows the (Ur, Uz)
    # dofs 3 and 4 are dofs 0 and 1 negated, to the bit, and so are columns
    # 3 and 4 of D b.  Rows 0-2 of columns 3 and 4 are then rows 0-2 of
    # columns 0 and 1 negated, and rows 3 and 4 are entries of columns 0
    # and 1: those columns need no products of their own.
    for j in (0, 1):
        column(j, 3)
        add(1, j)
        sums[3 : j + 4] = sums[: j + 1]
        np.negative(sums[:3], out=sums[:3])
        add(1, j + 3)
    for j in (2, 5):
        column(j, j + 1)
        add(1, j)

    # Consistent load of a unit pressure against the outward normal, (node,
    # dof, element): (Ur, Uz) from the node's w shape, beta from its
    # rotation shape.
    f = np.empty((2, 3, n_el))
    f_w = np.negative(np.add.reduce(np.multiply(_H_W, wgt, out=q[:2]), axis=1))
    np.multiply(f_w, nr, out=f[:, 0])
    np.multiply(f_w, nz, out=f[:, 1])
    np.negative(np.add.reduce(np.multiply(h_beta, wgt, out=q[:2]), axis=1), out=f[:, 2])
    f1 = np.zeros(3 * r.size)
    nodes = f1.reshape(-1, 3)
    nodes[:-1] += f[0].T
    nodes[1:] += f[1].T
    return band, f1


def _views(block: np.ndarray, shapes: Sequence[tuple[int, ...]], n: int) -> list[np.ndarray]:
    """Consecutive views of a flat block, one per shape, each with a last
    axis of length n."""
    views, first = [], 0
    for shape in shapes:
        size = math.prod(shape) * n
        views.append(block[first : first + size].reshape(*shape, n))
        first += size
    return views


def _radius(mesh: ShellMesh) -> float:
    """The sphere radius of a cap mesh, else the radius of its rim."""
    return mesh.radius_um if mesh.radius_um is not None else float(mesh.r_um[-1])


def _build_unit_systems(pairs: Sequence[tuple[ShellMesh, float]]) -> None:
    """Build the banded unit parts of each (mesh, Poisson ratio) pair from
    one element pass over all of them, and keep them on the mesh.

    A mesh may come in several pairs, one per ratio: its elements are then
    passed once per ratio, each with its own, and a ratio's parts are the
    same bits as from a pass of their own.  The pairs share one band, and a
    pair's parts are read-only views of its columns, shared by every solve
    on the mesh; so the memo of any one mesh keeps the whole band of its
    pass alive.  A mesh so large that its parts overflow is rejected with
    MeshError.
    """
    meshes, nus = zip(*pairs)
    n_nodes = [mesh.n_nodes for mesh in meshes]
    nu = nus[0] if len(set(nus)) == 1 else np.repeat(nus, n_nodes)[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        band, f1 = _element_parts(meshes, nu)
    first = np.cumsum([0] + n_nodes).tolist()
    columns = [slice(3 * a, 3 * b) for a, b in zip(first, first[1:])]
    if not (np.isfinite(band).all() and np.isfinite(f1).all()):
        for mesh, cols in zip(meshes, columns):
            if not (np.isfinite(band[..., cols]).all() and np.isfinite(f1[cols]).all()):
                raise MeshError(
                    f"stiffness of the mesh overflows: radius {_radius(mesh):g} um is out of range"
                )
    band.flags.writeable = f1.flags.writeable = False
    for (mesh, nu), cols in zip(pairs, columns):
        mesh._unit_parts[nu] = (band[0, :, cols], band[1, :, cols], f1[cols])


def _unit_system(mesh: ShellMesh, nu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded membrane and bending stiffness per unit rigidity, and the load
    of a unit pressure, memoized on the mesh per Poisson ratio."""
    if nu not in mesh._unit_parts:
        _build_unit_systems(((mesh, nu),))
    return mesh._unit_parts[nu]


def _scales(
    mesh: ShellMesh, thickness_um: float, material: Material, pressure_pa: float
) -> tuple[float, float, float]:
    """The membrane and bending rigidities and the pressure of a load case.

    A shell thicker than the sphere radius of a cap mesh is rejected, as is
    a bending rigidity that overflows, a rigidity or a nonzero pressure
    below the normal floats: InputDomainError.
    """
    t = float(thickness_um)
    if mesh.radius_um is not None and t > mesh.radius_um:
        raise InputDomainError(
            f"thickness_um {t:g} exceeds the sphere radius {mesh.radius_um:g} um of the mesh"
        )
    nu = material.poisson_ratio
    e_mod = material.youngs_modulus_pa
    c_m = e_mod * t / (1.0 - nu * nu)
    try:
        d_b = e_mod * t**3 / (12.0 * (1.0 - nu * nu))
    except OverflowError:
        raise InputDomainError(f"bending rigidity overflows at thickness {t!r} um") from None
    if min(c_m, d_b) < sys.float_info.min:
        raise InputDomainError(
            f"rigidity underflows at thickness {t:g} um and modulus {e_mod:g} Pa:"
            " the inputs are out of range"
        )
    p = float(pressure_pa)
    if 0.0 < p < sys.float_info.min:
        raise InputDomainError(f"load underflows at pressure {p:g} Pa: the inputs are out of range")
    return c_m, d_b, p


def assemble_system(
    mesh: ShellMesh, thickness_um: float, material: Material, pressure_pa: float
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the unconstrained banded stiffness (upper form) and load.

    The banded layout is scipy's: ab[HALF_BANDWIDTH + i - j, j] = K[i, j]
    for i <= j.  K = c_m K_m + d_b K_b and f = P f_1, with the parts built
    once per mesh and Poisson ratio, and the scales checked by ``_scales``.
    The parts are finite, so a stiffness or load that overflows means the
    inputs are out of range: InputDomainError.
    """
    c_m, d_b, p = _scales(mesh, thickness_um, material, pressure_pa)
    k_m, k_b, f1 = _unit_system(mesh, material.poisson_ratio)
    with np.errstate(over="ignore", invalid="ignore"):
        ab = c_m * k_m
        ab += d_b * k_b
        f = p * f1
    if not np.isfinite(ab).all():
        raise InputDomainError(
            f"stiffness overflows at thickness {float(thickness_um):g} um and radius"
            f" {_radius(mesh):g} um: the inputs are out of range"
        )
    if not np.isfinite(f).all():
        raise InputDomainError(
            f"load overflows at pressure {p:g} Pa and radius {_radius(mesh):g} um:"
            " the inputs are out of range"
        )
    return ab, f


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    """Expand a symmetric upper-banded matrix to dense form (for checks)."""
    hb = ab.shape[0] - 1
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for off in range(hb + 1):
        vals = ab[hb - off, off:]
        idx = np.arange(n - off)
        dense[idx, idx + off] = vals
        dense[idx + off, idx] = vals
    return dense


def _band_row(ab: np.ndarray, i: int) -> list[tuple[float, int]]:
    """Row ``i`` of a symmetric upper-banded matrix as (entry, column) pairs.

    The diagonal comes first, then per offset the entry right of the
    diagonal and the one left of it: the order in which a banded product
    adds its diagonals.
    """
    hb = ab.shape[0] - 1
    n = ab.shape[1]
    column = ab[:, i].tolist()  # column[hb - off] = K[i - off, i]
    terms = [(column[hb], i)]
    for off in range(1, hb + 1):
        if i + off < n:
            terms.append((float(ab[hb - off, i + off]), i + off))
        if i >= off:
            terms.append((column[hb - off], i - off))
    return terms


def _row_dot(terms: list[tuple[float, int]], x: np.ndarray) -> float:
    """Sum of entry * x[column] over a ``_band_row``, in its order."""
    (a, j), *rest = terms
    y = a * float(x[j])
    for a, j in rest:
        y += a * float(x[j])
    return y


@lru_cache(maxsize=32)
def _lower_layout(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions that gather an upper band into LAPACK's lower layout,
    ab_lower[d, j] = ab[hb - d, (j + d) % n], and the lower one back: the
    wrap puts the upper band's unused corner in the lower one's unused tail.
    Each is shaped (n, kd + 1), so that its gather is in Fortran order.
    """
    hb = shape[0] - 1
    n = shape[1]
    j, d = np.ogrid[:n, : hb + 1]
    index = ((hb - d) * n + (j + d) % n, (j - hb + d) % n * (hb + 1) + hb - d)
    for a in index:
        a.flags.writeable = False  # shared by every solve on this shape
    return index


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Upper banded Cholesky factor of ``ab`` (LAPACK dpbtrf); ``ab`` is kept.

    LAPACK factors the band in its lower layout: its unblocked kernel then
    scales and updates contiguous columns, where the upper layout's are
    strided, which halves the call with OpenBLAS.  The band is gathered into
    that layout, factored there in place, and gathered back; the positions
    are in range, so the gathers skip numpy's bounds check.  The lower
    factor L is U^T entry for entry, since both forms make the same
    products, and the unused corner above the first columns keeps ``ab``'s
    values, as an upper dpbtrf leaves them.  The back-solve keeps the upper
    factor, since a lower one moves its solution in the last digits.
    """
    to_lower, to_upper = _lower_layout(ab.shape)
    lower, info = _PBTRF(ab.take(to_lower, mode="clip").T, lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverError(
            f"stiffness factorization failed: leading minor {info} is not positive definite"
        )
    if info < 0:
        raise SolverError(f"stiffness factorization failed: dpbtrf info {info}")
    return lower.T.take(to_upper, mode="clip").T


def cho_solve_banded(factor: np.ndarray, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """Solve K x = b from the upper banded Cholesky factor of K (LAPACK dpbtrs),
    in ``b`` itself with ``overwrite_b`` where ``b`` is a contiguous float array."""
    x, info = _PBTRS(factor, b, overwrite_b=overwrite_b)
    if info != 0:
        raise SolverError(f"banded back-solve failed: dpbtrs info {info}")
    return x


def fixed_dofs(n_nodes: int, bc: str) -> tuple[int, ...]:
    """Constrained global dofs: axis symmetry at the apex plus the rim support."""
    rim = 3 * (n_nodes - 1)
    fixed = [0, 2, rim, rim + 1]
    if bc == "clamped":
        fixed.append(rim + 2)
    return tuple(sorted(fixed))


@lru_cache(maxsize=32)
def _constraint_index(
    shape: tuple[int, int], fixed: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat band positions that constraining the fixed dofs writes.

    Returns the positions of their off-diagonal entries, column k's above
    the diagonal (with the unused corner above the first columns) and row
    k's right of it, then those of their diagonal, then the dofs.
    """
    hb = shape[0] - 1
    n = shape[1]
    zero = [row * n + k for k in fixed for row in range(hb)]
    zero += [(hb - off) * n + k + off for k in fixed for off in range(1, hb + 1) if k + off < n]
    index = (np.array(zero), np.array([hb * n + k for k in fixed]), np.array(fixed))
    for a in index:
        a.flags.writeable = False  # shared by every solve on this shape
    return index


def _apply_bc(ab: np.ndarray, f: np.ndarray, fixed: tuple[int, ...]) -> None:
    """Zero rows/columns of the fixed dofs in place, with the diagonal scale on their diagonal."""
    # The sum over the column count is np.mean's arithmetic, without its
    # per-call overhead.
    scale = float(abs(ab[-1]).sum()) / ab.shape[1]
    if scale == 0.0:
        scale = 1.0
    zero, diagonal, dofs = _constraint_index(ab.shape, fixed)
    ab.put(zero, 0.0)
    ab.put(diagonal, scale)
    f[dofs] = 0.0


class FemSolution(Record):
    """Nodal solution of one load case plus solve diagnostics."""

    mesh: ShellMesh
    thickness_um: float
    material: Material
    pressure_pa: float
    bc: str
    u_r_um: np.ndarray
    u_z_um: np.ndarray
    rotation_rad: np.ndarray
    apex_deflection_um: float
    rim_reaction_vertical_n: float
    applied_vertical_load_n: float
    equilibrium_residual: float
    # The constrained banded stiffness and its Cholesky factor, kept for the
    # condition estimate.
    stiffness: np.ndarray
    factor: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    @cached_property
    def condition_estimate(self) -> float:
        """1-norm condition number of the constrained stiffness.

        ||K||_1 is read from the band; ||K^-1||_1 is Hager's (1984)
        estimator with Higham's (1988) extra test vector, which costs a few
        back-solves, is a lower bound and is usually exact.  Computed on
        first access.
        """
        ab = self.stiffness
        hb = ab.shape[0] - 1
        n = ab.shape[1]
        col_sums = np.abs(ab).sum(axis=0)
        for off in range(1, hb + 1):
            col_sums[:-off] += np.abs(ab[hb - off, off:])

        def solve(x: np.ndarray) -> np.ndarray:
            return cho_solve_banded(self.factor, x)

        # K is symmetric, so K^-T = K^-1 in Hager's iteration.
        x = np.full(n, 1.0 / n)
        inv_norm = 0.0
        for _ in range(5):
            y = solve(x)
            est = float(np.abs(y).sum())
            if est <= inv_norm:
                break
            inv_norm = est
            z = solve(np.where(y >= 0.0, 1.0, -1.0))
            j = int(np.argmax(np.abs(z)))
            if abs(z[j]) <= float(z @ x):
                break
            x = np.zeros(n)
            x[j] = 1.0
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * (1.0 + np.arange(n) / (n - 1))
        inv_norm = max(inv_norm, 2.0 * float(np.abs(solve(alt)).sum()) / (3.0 * n))
        return float(col_sums.max()) * inv_norm

    def local_components(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node meridional u and outward-normal w displacements in um."""
        t, n = self.mesh.node_frames()
        u = self.u_r_um * t[:, 0] + self.u_z_um * t[:, 1]
        w = self.u_r_um * n[:, 0] + self.u_z_um * n[:, 1]
        return u, w

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Write phi_deg, u_um, w_um, rotation_rad per node."""
        if self.mesh.phi_rad is not None:
            phi_deg = np.degrees(self.mesh.phi_rad)
        else:
            t, _ = self.mesh.node_frames()
            phi_deg = np.degrees(np.arctan2(-t[:, 1], t[:, 0]))
        u, w = self.local_components()
        lines = ["phi_deg,u_um,w_um,rotation_rad\n"]
        lines += [
            f"{p:.12g},{ui:.12g},{wi:.12g},{bi:.12g}\n"
            for p, ui, wi, bi in zip(phi_deg, u, w, self.rotation_rad)
        ]
        write_text(target, "".join(lines))


def _solve(
    mesh: ShellMesh,
    thickness_um: float,
    material: Material,
    pressure_pa: float,
    bc: str,
    rim_dof: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple | None]:
    """Assemble, constrain, factor and back-solve one checked load case.

    Returns the constrained band, its factor, the displacements and, for a
    ``rim_dof``, that dof's row and load of the unconstrained system, read
    before the supports zero them.  The one solve path of ``solve_case`` and
    ``solve_apex``.
    """
    ab, f = assemble_system(mesh, thickness_um, material, pressure_pa)
    rim = None if rim_dof is None else (_band_row(ab, rim_dof), float(f[rim_dof]))
    _apply_bc(ab, f, fixed_dofs(mesh.n_nodes, bc))
    factor = cholesky_banded(ab)
    d = cho_solve_banded(factor, f, overwrite_b=True)
    if not np.isfinite(d).all():  # with a factor, only an overflow does this
        raise InputDomainError(
            f"displacements overflow at pressure {float(pressure_pa):g} Pa: the inputs are out of range"
        )
    return ab, factor, d, rim


def solve_case(
    mesh: ShellMesh,
    thickness_um: float,
    material: Material,
    pressure_pa: float,
    bc: str = "clamped",
) -> FemSolution:
    """Solve one static load case on a given mesh.

    Raises SolverError if the constrained system is not positive definite
    (which signals a modelling defect, not a load regime), and
    InputDomainError where the inputs are out of range.
    """
    _check_solve_args(thickness_um, pressure_pa, bc)
    # The rim's axial reaction is (K0 d - f0) at its Uz dof.
    rim_uz = 3 * (mesh.n_nodes - 1) + 1
    ab, factor, d, (rim_row, rim_load) = _solve(mesh, thickness_um, material, pressure_pa, bc, rim_uz)
    rim_vertical_n = (_row_dot(rim_row, d) - rim_load) * _N_TO_PA_UM2
    # Axial resultant of uniform normal pressure is P times the projected
    # area pi b^2 regardless of the meridian shape; the rim support carries
    # all of it, which is the global equilibrium statement checked here.
    b = float(mesh.r_um[-1])
    applied_n = float(pressure_pa) * math.pi * b * b * _N_TO_PA_UM2
    if applied_n != 0.0:
        residual = abs(rim_vertical_n - applied_n) / abs(applied_n)
    else:
        residual = 0.0

    u_r = d[0::3]
    u_z = d[1::3]
    beta = d[2::3]
    return FemSolution(
        mesh=mesh,
        thickness_um=float(thickness_um),
        material=material,
        pressure_pa=float(pressure_pa),
        bc=bc,
        u_r_um=u_r,
        u_z_um=u_z,
        rotation_rad=beta,
        apex_deflection_um=float(abs(u_z[0])),
        rim_reaction_vertical_n=rim_vertical_n,
        applied_vertical_load_n=applied_n,
        equilibrium_residual=residual,
        stiffness=ab,
        factor=factor,
    )


def solve_apex(
    mesh: ShellMesh,
    thickness_um: float,
    material: Material,
    pressure_pa: float,
    bc: str = "clamped",
    slope: bool = False,
    memo: dict | None = None,
) -> float | tuple[float, float]:
    """Apex deflection of one load case, um, or with ``slope`` the pair of it
    and its derivative in thickness, um/um.

    The solve is ``solve_case``'s, so the apex has its bits, without the
    solution's arrays, the rim reaction or the equilibrium residual.  For
    the slope the load does not depend on t, so K d' = -K' d, where K' is
    E/(1 - nu^2) (K_m + t^2/4 K_b) from the unit parts.  The supports hold
    d' = 0 at the fixed dofs, so the rows of K' d there are zeroed and the
    constrained system is solved with the same factor.

    In linear elasticity the apex is (P/E) W(nu, t) on a given mesh and rim.
    ``memo``, a dict that the caller keeps for one study, holds W for each
    (mesh, bc, nu, t) solved at a positive pressure; an apex-only case of a
    key it holds is that W scaled by P/E, after the scalar checks of a
    solve (``_scales``), without one.  It differs from a solve of its own
    case by the two solves' roundoff, which is not linear in P/E: at most
    3.1e-8 of the apex over the benchmark's study_fem seeds 0-39, on 256
    elements.  A slope is always solved.
    """
    _check_solve_args(thickness_um, pressure_pa, bc)
    t, nu = float(thickness_um), material.poisson_ratio
    scale = float(pressure_pa) / material.youngs_modulus_pa
    key = (mesh, bc, nu, t)
    if memo is not None and not slope and key in memo:
        _scales(mesh, t, material, pressure_pa)
        w = memo[key] * scale
        if not math.isfinite(w):
            raise InputDomainError(
                f"displacements overflow at pressure {float(pressure_pa):g} Pa: the inputs are out of range"
            )
        return w
    _, factor, d, _ = _solve(mesh, thickness_um, material, pressure_pa, bc)
    w = abs(float(d[1]))
    if memo is not None and scale > 0.0 and math.isfinite(w / scale):
        memo.setdefault(key, w / scale)
    if not slope:
        return w
    k_m, k_b, _ = _unit_system(mesh, nu)
    dk = k_m + (t * t / 4.0) * k_b  # K' per unit E/(1 - nu^2)
    hb = HALF_BANDWIDTH
    y = dk[hb] * d
    for off in range(1, hb + 1):
        y[:-off] += dk[hb - off, off:] * d[off:]
        y[off:] += dk[hb - off, off:] * d[:-off]
    y[list(fixed_dofs(mesh.n_nodes, bc))] = 0.0
    z = cho_solve_banded(factor, y, overwrite_b=True)
    dw = -material.youngs_modulus_pa / (1.0 - nu * nu) * float(z[1])
    return w, (dw if d[1] > 0.0 else -dw)


# Bindings for the lazy forwarders ``screening.mesh_cap`` and
# ``screening.solve_case``.  bench/spans.py wraps ``fem.mesh_cap`` and
# ``fem.solve_case`` as well as the forwarders, so a forwarded call through
# them is counted once.  The study's mesh comes through
# ``screening.mesh_cap``.  Nothing in the package calls
# ``screening.solve_case``; it stays, with ``_solve_case``, because the
# tracer asserts that every attribute it wraps exists.
_mesh_cap = mesh_cap
_solve_case = solve_case


class ConvergenceReport(Record):
    """Apex deflection across a mesh refinement ladder."""

    bc: str
    levels: tuple[int, ...]
    apex_um: tuple[float, ...]
    diffs_um: tuple[float, ...]
    observed_orders: tuple[float, ...]
    extrapolated_um: float
    contraction: bool

    @property
    def observed_order(self) -> float | None:
        return self.observed_orders[-1] if self.observed_orders else None


def converge(
    geometry: CapGeometry,
    thickness_um: float,
    material: Material,
    pressure_pa: float,
    bc: str = "clamped",
    n_levels: int = 4,
    n_start: int = 32,
) -> ConvergenceReport:
    """Run a doubling refinement ladder and Richardson-extrapolate the apex.

    Non-monotone behaviour across levels is reported through the
    ``contraction`` flag rather than raised, since a ladder that has hit
    roundoff still carries useful information.  A ladder whose finest mesh
    exceeds ``FEM_MAX_ELEMENTS``, or a bad load case, is rejected before any
    mesh is built.  The stiffness parts of all the ladder's meshes are
    built in one element pass: most of a pass's cost is fixed per call, and
    one pass over the 32-256 ladder takes less than half the time of a pass
    per mesh.
    """
    n_levels, n_start = int(n_levels), int(n_start)
    if n_levels < 3:
        raise InputDomainError(f"n_levels must be at least 3, got {n_levels!r}")
    if n_start < 4:
        raise InputDomainError(f"n_start must be at least 4, got {n_start!r}")
    # n_start * 2**(n_levels - 1) > FEM_MAX_ELEMENTS, without the power.
    if n_start > FEM_MAX_ELEMENTS >> (n_levels - 1):
        raise InputDomainError(
            f"a ladder of {n_levels} levels from {n_start} elements exceeds the"
            f" {FEM_MAX_ELEMENTS} elements past which roundoff swamps the discretization error"
        )
    levels = tuple(n_start * 2**k for k in range(n_levels))
    _check_solve_args(thickness_um, pressure_pa, bc)
    meshes = [mesh_cap(geometry, n) for n in levels]
    _build_unit_systems([(mesh, material.poisson_ratio) for mesh in meshes])
    apex = [
        solve_case(mesh, thickness_um, material, pressure_pa, bc).apex_deflection_um
        for mesh in meshes
    ]
    diffs = tuple(b - a for a, b in zip(apex, apex[1:]))
    orders = []
    for d_prev, d_next in zip(diffs, diffs[1:]):
        if d_next != 0.0 and d_prev != 0.0 and abs(d_next) < abs(d_prev):
            orders.append(math.log2(abs(d_prev) / abs(d_next)))
    contraction = all(
        abs(d_next) <= abs(d_prev) for d_prev, d_next in zip(diffs, diffs[1:])
    )
    if orders and diffs[-1] != 0.0:
        rate = 2.0 ** orders[-1]
        extrapolated = apex[-1] + diffs[-1] / (rate - 1.0)
    else:
        extrapolated = apex[-1]
    return ConvergenceReport(
        bc=bc,
        levels=levels,
        apex_um=tuple(apex),
        diffs_um=diffs,
        observed_orders=tuple(orders),
        extrapolated_um=float(extrapolated),
        contraction=contraction,
    )
