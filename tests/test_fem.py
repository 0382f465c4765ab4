import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import globtop as gt
from globtop import fem
from globtop.errors import InputDomainError, MeshError, SolverError

from .conftest import HIDE_NUMPY_LAPACK
from .oracles import mp_fem_apex

# Frozen apex deflections for the stiffest material at 150 um / 100 atm on
# the preset geometry, 256 elements.  These pin regressions; the physics
# checks below are the plate benchmark, equilibrium, and the mesh ladder.
# The values are the roundoff-free answer to this discrete problem, from
# oracles.mp_fem_apex (40-digit assembly and banded Cholesky on the float64
# mesh): float(mp_fem_apex(mesh.r_um, mesh.z_um, 70e9, 0.4, 150.0,
# atm_to_pa(100.0), bc)) with mesh = mesh_cap(REFERENCE_GEOMETRY, 256).
APEX_CLAMPED_256 = 4.312941877775889
APEX_PINNED_256 = 4.376790424342237
# Roundoff bound for the double-precision solve at 256 elements.  At 16
# elements the solver matches the oracle to 2e-13 (test_matches_oracle_16).
# The stiffness of this fourth-order problem has a condition number growing
# as N**4, so the same roundoff at 256 elements is expected near
# 2e-13 * (256 / 16)**4 = 1.3e-8; 2e-8 covers it.  Measured spread over
# OpenBLAS kernels is within 4.2e-9 of the oracle, and even an exact solve of
# the float64-assembled stiffness is 4.8e-9 off, so no double-precision
# build can promise less.  The pin still sees a regression: changing the
# thickness by one part in 1e7 moves the apex by 1.5e-7, and nu by 1e-4
# moves it by 1.2e-4.
APEX_REL_256 = 2e-8


@pytest.fixture(scope="module")
def cap_mesh(reference_cap):
    return fem.mesh_cap(reference_cap, 256)


@pytest.fixture(scope="module")
def coarse_mesh(reference_cap):
    return fem.mesh_cap(reference_cap, 8)


@pytest.fixture(scope="module")
def clamped_256(cap_mesh, cer):
    return fem.solve_case(cap_mesh, 150.0, cer, gt.atm_to_pa(100.0), bc="clamped")


def flat_mesh(radius_um: float, n_elements: int) -> fem.ShellMesh:
    r = np.linspace(0.0, radius_um, n_elements + 1)
    return fem.ShellMesh(r_um=r, z_um=np.zeros(n_elements + 1))


class TestMeshValidation:
    def test_too_few_nodes(self):
        with pytest.raises(MeshError, match="at least 4 elements"):
            fem.ShellMesh(r_um=np.array([0.0, 1.0, 2.0]), z_um=np.zeros(3))

    def test_first_node_off_axis(self):
        r = np.linspace(10.0, 100.0, 6)
        with pytest.raises(MeshError, match="axis"):
            fem.ShellMesh(r_um=r, z_um=np.zeros(6))

    def test_radii_must_increase(self):
        r = np.array([0.0, 2.0, 1.5, 3.0, 4.0, 5.0])
        with pytest.raises(MeshError, match="increase"):
            fem.ShellMesh(r_um=r, z_um=np.zeros(6))

    def test_non_finite_coordinates(self):
        r = np.linspace(0.0, 5.0, 6)
        z = np.zeros(6)
        z[3] = np.nan
        with pytest.raises(MeshError, match="finite"):
            fem.ShellMesh(r_um=r, z_um=z)

    def test_shape_mismatch(self):
        with pytest.raises(MeshError):
            fem.ShellMesh(r_um=np.linspace(0.0, 5.0, 6), z_um=np.zeros(7))

    def test_phi_shape_and_monotonicity(self):
        r = np.linspace(0.0, 5.0, 6)
        with pytest.raises(MeshError, match="phi_rad"):
            fem.ShellMesh(r_um=r, z_um=np.zeros(6), phi_rad=np.zeros(5))
        bad_phi = np.array([0.0, 0.2, 0.1, 0.3, 0.4, 0.5])
        with pytest.raises(MeshError, match="increase"):
            fem.ShellMesh(r_um=r, z_um=np.zeros(6), phi_rad=bad_phi)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(MeshError, match="radius_um"):
            fem.ShellMesh(r_um=np.linspace(0.0, 5.0, 6), z_um=np.zeros(6), radius_um=radius)


class TestMeshCap:
    def test_node_layout(self, reference_cap):
        mesh = fem.mesh_cap(reference_cap, 64)
        a = reference_cap.radius_um
        alpha = reference_cap.base_angle_rad
        assert mesh.n_nodes == 65
        assert mesh.n_elements == 64
        assert mesh.n_dof == 195
        assert mesh.phi_rad[0] == 0.0
        assert mesh.phi_rad[-1] == alpha
        assert mesh.r_um[0] == 0.0
        assert mesh.r_um[-1] == pytest.approx(a * math.sin(alpha), rel=1e-14)
        assert mesh.z_um[-1] == pytest.approx(0.0, abs=1e-9 * a)
        assert mesh.z_um[0] == pytest.approx(reference_cap.rise_um, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        b=st.floats(100.0, 5000.0),
        h=st.floats(10.0, 2000.0),
        n=st.integers(4, fem.FEM_MAX_ELEMENTS),
    )
    def test_angles_are_linspace_bit_for_bit(self, b, h, n):
        geometry = gt.solve_cap(b, min(h, b))
        mesh = fem.mesh_cap(geometry, n)
        expected = np.linspace(0.0, geometry.base_angle_rad, n + 1)
        assert mesh.phi_rad.tobytes() == expected.tobytes()

    def test_arc_length_accumulates(self, coarse_mesh, reference_cap):
        s = coarse_mesh.s_um
        assert s[0] == 0.0
        assert np.all(np.diff(s) > 0.0)
        # Chord length of a uniformly subdivided arc approaches a*alpha.
        arc = reference_cap.radius_um * reference_cap.base_angle_rad
        assert s[-1] == pytest.approx(arc, rel=1e-3)

    def test_too_many_elements(self, reference_cap, monkeypatch):
        # Rejected before numpy builds a node array.
        monkeypatch.setattr(fem.np, "arange", None)
        with pytest.raises(MeshError, match="at most 512"):
            fem.mesh_cap(reference_cap, fem.FEM_MAX_ELEMENTS + 1)

    def test_too_few_elements(self, reference_cap):
        with pytest.raises(MeshError):
            fem.mesh_cap(reference_cap, 3)


class TestNodeFrames:
    def test_cap_frames_are_analytic(self, coarse_mesh):
        t, n = coarse_mesh.node_frames()
        phi = coarse_mesh.phi_rad
        assert np.allclose(t[:, 0], np.cos(phi), atol=1e-15)
        assert np.allclose(t[:, 1], -np.sin(phi), atol=1e-15)
        assert np.allclose(np.einsum("ij,ij->i", t, n), 0.0, atol=1e-16)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-15)

    def test_flat_frames_from_segments(self):
        mesh = flat_mesh(100.0, 8)
        t, n = mesh.node_frames()
        assert np.array_equal(t, np.tile([1.0, 0.0], (9, 1)))
        assert np.array_equal(n, np.tile([0.0, 1.0], (9, 1)))


class TestAssembly:
    def test_stiffness_is_symmetric(self, coarse_mesh, cer):
        ab, _ = fem.assemble_system(coarse_mesh, 150.0, cer, 1.0e6)
        dense = fem.band_to_dense(ab)
        assert np.array_equal(dense, dense.T)

    def test_band_row_matches_dense(self, coarse_mesh, cer):
        ab, _ = fem.assemble_system(coarse_mesh, 150.0, cer, 1.0e6)
        dense = fem.band_to_dense(ab)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(ab.shape[1])
        want = dense @ x
        got = np.array([fem._row_dot(fem._band_row(ab, i), x) for i in range(ab.shape[1])])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-6 * np.max(np.abs(want)))
        n = ab.shape[1]
        for i in range(n):
            columns = [j for _, j in fem._band_row(ab, i)]
            assert sorted(columns) == [j for j in range(n) if abs(i - j) <= fem.HALF_BANDWIDTH]

    def test_load_vector_shape_and_direction(self, coarse_mesh, cer):
        _, f = fem.assemble_system(coarse_mesh, 150.0, cer, 1.0e6)
        assert f.shape == (coarse_mesh.n_dof,)
        # Net axial load must be downward (negative z) for positive pressure.
        assert float(f[1::3].sum()) < 0.0

    def test_rejects_a_shell_thicker_than_the_sphere_radius(self, coarse_mesh, cer, reference_cap):
        a = reference_cap.radius_um
        assert coarse_mesh.radius_um == a
        fem.assemble_system(coarse_mesh, a, cer, 1.0e6)
        for t in (math.nextafter(a, math.inf), 1e120):
            with pytest.raises(InputDomainError, match="exceeds the sphere radius"):
                fem.assemble_system(coarse_mesh, t, cer, 1.0e6)

    def test_overflowing_bending_rigidity_is_an_input_error(self, cer):
        # A mesh with no sphere radius takes any thickness; t**3 overflows.
        with pytest.raises(InputDomainError, match="bending rigidity overflows"):
            fem.assemble_system(flat_mesh(100.0, 8), 1e120, cer, 1.0e6)

    def test_a_mesh_whose_parts_overflow_is_a_mesh_error(self, cer):
        geometry = gt.from_radius_angle(1e200, 30.0)
        mesh = fem.mesh_cap(geometry, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="radius 1e[+]200 um is out of range"):
                fem.assemble_system(mesh, 1.0, cer, 1.0e6)

    def test_an_overflowing_load_is_an_input_error(self, coarse_mesh, cer):
        # The unit parts are finite, so the pressure is at fault.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputDomainError, match="load overflows at pressure 1e[+]305 Pa"):
                fem.assemble_system(coarse_mesh, 150.0, cer, 1e305)

    def test_an_overflowing_stiffness_is_an_input_error(self, cer):
        # Finite parts, and a thickness below the sphere radius whose scaled
        # stiffness overflows.
        mesh = fem.mesh_cap(gt.from_radius_angle(1e102, 30.0), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputDomainError, match="stiffness overflows at thickness 1e[+]101"):
                fem.assemble_system(mesh, 1e101, cer, 1.0e6)

    @pytest.mark.parametrize("bc", fem.BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("n", [4, 5, 33, 256])
    def test_constraints_match_one_write_per_entry(self, reference_cap, cer, n, bc):
        # Reference: one write per entry of each fixed dof's row and column.
        ab, f = fem.assemble_system(fem.mesh_cap(reference_cap, n), 150.0, cer, 1e7)
        want_ab, want_f = ab.copy(), f.copy()
        hb, cols = ab.shape[0] - 1, ab.shape[1]
        want_scale = float(np.mean(np.abs(ab[hb])))
        fixed = fem.fixed_dofs(n + 1, bc)
        for k in fixed:
            want_ab[:hb, k] = 0.0
            for off in range(1, hb + 1):
                if k + off < cols:
                    want_ab[hb - off, k + off] = 0.0
            want_ab[hb, k] = want_scale
            want_f[k] = 0.0
        assert fem._apply_bc(ab, f, fixed) == want_scale
        assert np.array_equal(ab, want_ab)
        assert np.array_equal(f, want_f)

    def test_fixed_dofs(self):
        assert fem.fixed_dofs(65, "clamped") == (0, 2, 192, 193, 194)
        assert fem.fixed_dofs(65, "pinned") == (0, 2, 192, 193)


class TestPlateBenchmark:
    """Flat-disk limit against classical thin-plate bending closed forms."""

    R = 1000.0
    T = 10.0
    Q = 1000.0
    NU = 0.3

    @pytest.fixture(scope="class")
    @staticmethod
    def plate_material():
        return gt.Material("plate probe", 70.0, TestPlateBenchmark.NU)

    def center_theory(self, bc: str) -> float:
        e_pa = 70.0e9
        d = e_pa * self.T**3 / (12.0 * (1.0 - self.NU**2))
        w = self.Q * self.R**4 / (64.0 * d)
        if bc == "pinned":
            w *= (5.0 + self.NU) / (1.0 + self.NU)
        return w

    @pytest.mark.parametrize("bc", ["clamped", "pinned"])
    def test_center_deflection(self, plate_material, bc):
        mesh = flat_mesh(self.R, 64)
        sol = fem.solve_case(mesh, self.T, plate_material, self.Q, bc=bc)
        assert sol.u_z_um[0] < 0.0
        assert abs(sol.u_z_um[0]) == pytest.approx(self.center_theory(bc), rel=1e-7)

    def test_support_ratio(self, plate_material):
        mesh = flat_mesh(self.R, 64)
        w_cl = fem.solve_case(mesh, self.T, plate_material, self.Q, "clamped")
        w_ss = fem.solve_case(mesh, self.T, plate_material, self.Q, "pinned")
        ratio = w_ss.apex_deflection_um / w_cl.apex_deflection_um
        assert ratio == pytest.approx((5.0 + self.NU) / (1.0 + self.NU), rel=1e-7)


class TestCapSolution:
    def test_frozen_apex_values(self, clamped_256, cap_mesh, cer):
        assert clamped_256.apex_deflection_um == pytest.approx(
            APEX_CLAMPED_256, rel=APEX_REL_256
        )
        pinned = fem.solve_case(cap_mesh, 150.0, cer, gt.atm_to_pa(100.0), "pinned")
        assert pinned.apex_deflection_um == pytest.approx(
            APEX_PINNED_256, rel=APEX_REL_256
        )
        assert pinned.apex_deflection_um > clamped_256.apex_deflection_um

    @pytest.mark.parametrize("bc", ["clamped", "pinned"])
    def test_matches_oracle_16(self, reference_cap, cer, bc):
        mesh = fem.mesh_cap(reference_cap, 16)
        p_pa = gt.atm_to_pa(100.0)
        sol = fem.solve_case(mesh, 150.0, cer, p_pa, bc)
        want = mp_fem_apex(
            mesh.r_um, mesh.z_um, cer.youngs_modulus_pa, cer.poisson_ratio, 150.0, p_pa, bc
        )
        assert sol.apex_deflection_um == pytest.approx(float(want), rel=1e-11)

    def test_rim_carries_the_whole_axial_load(self, clamped_256, reference_cap):
        b = reference_cap.radius_um * math.sin(reference_cap.base_angle_rad)
        expected_n = gt.atm_to_pa(100.0) * math.pi * b * b * 1e-12
        assert clamped_256.applied_vertical_load_n == pytest.approx(
            expected_n, rel=1e-12
        )
        assert clamped_256.rim_reaction_vertical_n == pytest.approx(
            expected_n, rel=1e-6
        )
        assert clamped_256.equilibrium_residual < 1e-6

    def test_solution_diagnostics(self, clamped_256):
        assert math.isfinite(clamped_256.condition_estimate)
        assert clamped_256.condition_estimate > 1.0
        assert np.all(np.isfinite(clamped_256.u_r_um))
        assert clamped_256.apex_deflection_um == abs(clamped_256.u_z_um[0])

    def test_apex_boundary_conditions_hold(self, clamped_256):
        assert clamped_256.u_r_um[0] == 0.0
        assert clamped_256.rotation_rad[0] == 0.0
        assert clamped_256.u_r_um[-1] == 0.0
        assert clamped_256.u_z_um[-1] == 0.0
        assert clamped_256.rotation_rad[-1] == 0.0

    def test_pinned_rim_can_rotate(self, cap_mesh, cer):
        pinned = fem.solve_case(cap_mesh, 150.0, cer, gt.atm_to_pa(100.0), "pinned")
        assert pinned.u_r_um[-1] == 0.0
        assert pinned.u_z_um[-1] == 0.0
        assert pinned.rotation_rad[-1] != 0.0


class TestLinearityAndLimits:
    def test_doubling_pressure_scales_exactly(self, cap_mesh, cer):
        s1 = fem.solve_case(cap_mesh, 150.0, cer, 1.0e6)
        s2 = fem.solve_case(cap_mesh, 150.0, cer, 2.0e6)
        assert np.array_equal(s2.u_z_um, 2.0 * s1.u_z_um)
        assert np.array_equal(s2.u_r_um, 2.0 * s1.u_r_um)

    def test_general_pressure_scaling(self, cap_mesh, cer):
        s1 = fem.solve_case(cap_mesh, 150.0, cer, 1.0e6)
        s3 = fem.solve_case(cap_mesh, 150.0, cer, 3.7e6)
        scale = np.max(np.abs(s1.u_z_um))
        assert np.max(np.abs(s3.u_z_um - 3.7 * s1.u_z_um)) <= 1e-10 * 3.7 * scale

    def test_zero_pressure_is_identically_zero(self, cap_mesh, cer):
        s0 = fem.solve_case(cap_mesh, 150.0, cer, 0.0)
        assert not np.any(s0.u_r_um)
        assert not np.any(s0.u_z_um)
        assert not np.any(s0.rotation_rad)
        assert s0.apex_deflection_um == 0.0
        assert s0.equilibrium_residual == 0.0


class TestSolveArguments:
    def test_unknown_support(self, coarse_mesh, cer):
        with pytest.raises(InputDomainError, match="bc"):
            fem.solve_case(coarse_mesh, 150.0, cer, 1.0e6, bc="welded")

    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
    def test_bad_thickness(self, coarse_mesh, cer, t):
        with pytest.raises(InputDomainError):
            fem.solve_case(coarse_mesh, t, cer, 1.0e6)

    @pytest.mark.parametrize("p", [-1.0, float("inf"), float("nan")])
    def test_bad_pressure(self, coarse_mesh, cer, p):
        with pytest.raises(InputDomainError):
            fem.solve_case(coarse_mesh, 150.0, cer, p)


class TestStiffnessParts:
    def test_memoized_solve_matches_a_fresh_mesh(
        self, reference_cap, cer, parylene, polyimide
    ):
        p = gt.atm_to_pa(100.0)
        mesh = fem.mesh_cap(reference_cap, 256)
        for material, t in ((polyimide, 400.0), (parylene, 200.0), (cer, 120.0)):
            fem.solve_case(mesh, t, material, p)
        memoized = fem.solve_case(mesh, 150.0, cer, p)
        fresh = fem.solve_case(fem.mesh_cap(reference_cap, 256), 150.0, cer, p)
        assert memoized.apex_deflection_um == fresh.apex_deflection_um
        for name in ("u_r_um", "u_z_um", "rotation_rad"):
            assert np.array_equal(getattr(memoized, name), getattr(fresh, name))

    def test_assembly_does_not_depend_on_the_blas_kernel(self):
        # The factor and the solve do depend on the kernel, but under each
        # kernel numpy's LAPACK and scipy's extension agree to the bit, and
        # every level of a ladder, whose parts come from one pass over all
        # its meshes, is the solve of a lone mesh.
        script = (
            "import hashlib, numpy as np, globtop as gt\n"
            "from globtop import fem\n"
            "from scipy.linalg import get_lapack_funcs\n"
            "cap = gt.REFERENCE_GEOMETRY\n"
            "mesh = fem.mesh_cap(cap, 256)\n"
            "cer = gt.default_library().get('Carbon epoxy resin')\n"
            "ab, f = fem.assemble_system(mesh, 150.0, cer, gt.atm_to_pa(100.0))\n"
            "print(hashlib.sha256(ab.tobytes() + f.tobytes()).hexdigest())\n"
            "pbtrf, pbtrs = get_lapack_funcs(('pbtrf', 'pbtrs'))\n"
            "for bc in fem.BOUNDARY_CONDITIONS:\n"
            "    ab, f = fem.assemble_system(mesh, 150.0, cer, gt.atm_to_pa(100.0))\n"
            "    fem._apply_bc(ab, f, fem.fixed_dofs(mesh.n_nodes, bc))\n"
            "    sol = fem.solve_case(mesh, 150.0, cer, gt.atm_to_pa(100.0), bc)\n"
            "    factor, _ = pbtrf(ab)\n"
            "    x, _ = pbtrs(factor, f)\n"
            "    ladder = fem.converge(cap, 150.0, cer, gt.atm_to_pa(100.0), bc)\n"
            "    lone = [fem.solve_case(fem.mesh_cap(cap, n), 150.0, cer,\n"
            "                           gt.atm_to_pa(100.0), bc).apex_deflection_um\n"
            "            for n in ladder.levels]\n"
            "    print(pbtrf is not fem._PBTRF, np.array_equal(factor, sol.factor),\n"
            "          np.array_equal(x[1::3], sol.u_z_um), list(ladder.apex_um) == lone)\n"
        )
        src = str(Path(gt.__file__).resolve().parents[1])
        procs = []
        for kernel in (None, "Haswell", "Prescott", "Sandybridge", "Nehalem"):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
                )
            )
        outputs = [proc.communicate(timeout=120)[0].splitlines() for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        digests = [lines[0] for lines in outputs]
        assert len(digests[0]) == 64
        assert digests == [digests[0]] * 5
        for lines in outputs:
            assert lines[1:] == ["True True True True"] * 2

    def test_building_the_parts_keeps_its_temporaries_small(self, reference_cap):
        # Large temporaries may be mapped and page-faulted afresh on every
        # build, as the heap's history allows, which makes repeated studies
        # run at different speeds, and malloc trims a heap whose free top
        # grows past twice its largest freed mapping, so the peak is faulted
        # back in by the next build.  Building both parts at once needs
        # 880 kB of temporaries on this mesh; one part at a time, 490 kB; one
        # part at a time into one b, with each part's strain rows and each
        # column's products freed before the next are built, 320 kB; the
        # same steps in one block of 274 kB, adding each column to the band
        # as it is made, 336 kB.
        mesh = fem.mesh_cap(reference_cap, 256)
        fem._element_parts((mesh,), 0.4)
        tracemalloc.start()
        try:
            band, f1 = fem._element_parts((mesh,), 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - band.nbytes - f1.nbytes < 350_000


    @settings(max_examples=25, deadline=None)
    @given(
        nus=st.lists(st.floats(0.30, 0.45), min_size=2, max_size=3, unique=True),
        n=st.integers(4, 256),
        sizes=st.lists(st.integers(4, 64), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_a_pass_over_several_ratios_equals_lone_builds_byte_for_byte(self, nus, n, sizes, data):
        # A study builds its mesh's parts for every ratio of its library in
        # one pass, with a ratio per element, and a ladder builds meshes of
        # several sizes in one pass; a fresh solve of one ratio, as the
        # benchmark's checks make, builds them alone.  The pairs of a pass
        # share one band, so passes that mix sizes and ratios in any order
        # cover each kind of join between two meshes' columns.
        geometry = gt.REFERENCE_GEOMETRY
        mesh = fem.mesh_cap(geometry, n)
        pairs = [(mesh, nu) for nu in nus]
        pairs += [(fem.mesh_cap(geometry, m), data.draw(st.sampled_from(nus))) for m in sizes]
        pairs = data.draw(st.permutations(pairs), label="pairs")
        fem._build_unit_systems(pairs)
        for mesh, nu in pairs:
            lone = fem._unit_system(fem.mesh_cap(geometry, mesh.n_elements), nu)
            assert [a.tobytes() for a in mesh._unit_parts[nu]] == [a.tobytes() for a in lone]


class TestApexSlope:
    # Against a central difference in u = log t with h = 1e-3, on 96
    # elements.  Its truncation, h**2 |g'''| / 6, is at most 9.5e-8 on these
    # cases; the apex's roundoff, about APEX_REL_256 * (96/256)**4 = 4e-10
    # of itself (the condition grows as N**4), adds up to 4e-10 / h = 4e-7.
    # The measured gap is at most 4.3e-7.
    @pytest.mark.parametrize("bc", fem.BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("t", [150.0, 200.0, 250.0])
    def test_matches_a_central_difference(self, reference_cap, bc, t):
        mesh = fem.mesh_cap(reference_cap, 96)
        p = gt.atm_to_pa(100.0)
        h = 1e-3
        for material in gt.default_library():
            def g(u):
                return math.log(fem.solve_case(mesh, math.exp(u), material, p, bc).apex_deflection_um)

            sol = fem.solve_case(mesh, t, material, p, bc)
            exact = t * fem.apex_slope(sol) / sol.apex_deflection_um
            central = (g(math.log(t) + h) - g(math.log(t) - h)) / (2.0 * h)
            assert abs(exact - central) < 1e-7 + 4e-7

    def test_leaves_the_solution_as_it_was(self, clamped_256):
        arrays = (clamped_256.u_z_um, clamped_256.stiffness, clamped_256.factor)
        kept = [a.copy() for a in arrays]
        fem.apex_slope(clamped_256)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))


class TestConditionEstimate:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("bc", ["clamped", "pinned"])
    def test_matches_dense_one_norm_condition(self, reference_cap, cer, n, bc):
        mesh = fem.mesh_cap(reference_cap, n)
        p = gt.atm_to_pa(100.0)
        ab, f = fem.assemble_system(mesh, 150.0, cer, p)
        fem._apply_bc(ab, f, fem.fixed_dofs(mesh.n_nodes, bc))
        kappa = np.linalg.cond(fem.band_to_dense(ab), 1)
        got = fem.solve_case(mesh, 150.0, cer, p, bc).condition_estimate
        assert kappa / 3.0 <= got <= kappa * (1.0 + 1e-6)


class TestAgainstDenseSolve:
    def test_banded_path_matches_reduced_dense_system(self, coarse_mesh, cer):
        p = gt.atm_to_pa(100.0)
        ab, f = fem.assemble_system(coarse_mesh, 150.0, cer, p)
        dense = fem.band_to_dense(ab)
        fixed = fem.fixed_dofs(coarse_mesh.n_nodes, "clamped")
        keep = np.setdiff1d(np.arange(coarse_mesh.n_dof), fixed)
        d_red = np.linalg.solve(dense[np.ix_(keep, keep)], f[keep])
        full = np.zeros(coarse_mesh.n_dof)
        full[keep] = d_red
        sol = fem.solve_case(coarse_mesh, 150.0, cer, p, "clamped")
        assert abs(full[1]) == pytest.approx(sol.apex_deflection_um, rel=1e-9)
        assert np.allclose(full[1::3], sol.u_z_um, rtol=1e-9, atol=1e-12)


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for a symmetric upper-banded K, one diagonal after another."""
    hb = ab.shape[0] - 1
    y = ab[hb] * x
    for off in range(1, hb + 1):
        vals = ab[hb - off, off:]
        y[:-off] += vals * x[off:]
        y[off:] += vals * x[:-off]
    return y


def numpy_lapack():
    """fem's binding of numpy's dpbtrf and dpbtrs; skips where numpy has none."""
    routines = fem._numpy_lapack()
    if routines is None:
        pytest.skip("numpy's LAPACK does not export dpbtrf and dpbtrs")
    return routines


class TestLeanSolve:
    """solve_case calls LAPACK itself and computes only the rim's reaction
    row; its results keep the bits of scipy's banded Cholesky routines and of
    a full banded product."""

    @pytest.mark.parametrize("bc", fem.BOUNDARY_CONDITIONS)
    def test_matches_the_scipy_path_bit_for_bit(self, reference_cap, cer, bc):
        from scipy.linalg import cho_solve_banded, cholesky_banded

        mesh = fem.mesh_cap(reference_cap, 96)
        p = gt.atm_to_pa(100.0)
        fixed = fem.fixed_dofs(mesh.n_nodes, bc)
        rim_uz = 3 * (mesh.n_nodes - 1) + 1
        for t in (40.0, 150.0, 450.0, 2000.0):
            ab0, f0 = fem.assemble_system(mesh, t, cer, p)
            ab, f = ab0.copy(), f0.copy()
            fem._apply_bc(ab, f, fixed)
            factor = cholesky_banded(ab, lower=False)
            d = cho_solve_banded((factor, False), f)
            sol = fem.solve_case(mesh, t, cer, p, bc)
            assert np.array_equal(sol.stiffness, ab)
            assert np.array_equal(sol.factor, factor)
            assert np.array_equal(sol.u_r_um, d[0::3])
            assert np.array_equal(sol.u_z_um, d[1::3])
            assert np.array_equal(sol.rotation_rad, d[2::3])
            reaction = float((band_matvec(ab0, d) - f0)[rim_uz])
            assert sol.rim_reaction_vertical_n == reaction * 1e-12

            dense = fem.band_to_dense(ab0)
            for k in fixed:
                terms = dense[k] * d
                got = fem._row_dot(fem._band_row(ab0, k), d)
                assert abs(got - float(terms.sum())) <= 1e-13 * float(np.abs(terms).sum())

    @pytest.mark.parametrize("bc", fem.BOUNDARY_CONDITIONS)
    @pytest.mark.parametrize("n", [32, 256])
    def test_numpy_lapack_matches_scipy_flapack_bit_for_bit(self, reference_cap, cer, n, bc):
        from scipy.linalg import get_lapack_funcs

        numpy_pbtrf, numpy_pbtrs = numpy_lapack()
        pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
        mesh = fem.mesh_cap(reference_cap, n)
        ab, f = fem.assemble_system(mesh, 150.0, cer, gt.atm_to_pa(100.0))
        fem._apply_bc(ab, f, fem.fixed_dofs(mesh.n_nodes, bc))
        factor, info = numpy_pbtrf(ab)
        expected, expected_info = pbtrf(ab)
        assert info == expected_info == 0
        assert np.array_equal(factor, expected)
        assert factor.flags.f_contiguous
        lower = np.zeros_like(ab)
        for d in range(ab.shape[0]):
            lower[d, : ab.shape[1] - d] = ab[-1 - d, d:]
        lower_factor, info = numpy_pbtrf(lower, lower=1)
        lower_expected, expected_info = pbtrf(lower, lower=1)
        assert info == expected_info == 0
        assert np.array_equal(lower_factor, lower_expected)
        x, info = numpy_pbtrs(factor, f)
        expected, expected_info = pbtrs(expected, f)
        assert info == expected_info == 0
        assert np.array_equal(x, expected)

    def test_scipy_linalg_imported_later_reuses_the_same_lapack(self, clamped_256):
        # Where numpy's LAPACK does not export dpbtrf and dpbtrs, fem loads
        # scipy's LAPACK extension without the scipy.linalg package;
        # importing the package afterwards must find that module, and the
        # solve must keep the bits of numpy's LAPACK.
        script = HIDE_NUMPY_LAPACK + (
            "import hashlib, numpy as np, globtop as gt\n"
            "from globtop import fem\n"
            "from scipy.linalg import get_lapack_funcs\n"
            "mesh = fem.mesh_cap(gt.REFERENCE_GEOMETRY, 256)\n"
            "cer = gt.default_library().get('Carbon epoxy resin')\n"
            "sol = fem.solve_case(mesh, 150.0, cer, gt.atm_to_pa(100.0))\n"
            "pbtrf, pbtrs = get_lapack_funcs(('pbtrf', 'pbtrs'))\n"
            "print(pbtrf is fem._PBTRF, pbtrs is fem._PBTRS)\n"
            "print(hashlib.sha256(sol.factor.tobytes() + sol.u_z_um.tobytes()).hexdigest())\n"
        )
        src = str(Path(gt.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        same, digest = proc.stdout.splitlines()
        assert same == "True True"
        expected = clamped_256.factor.tobytes() + clamped_256.u_z_um.tobytes()
        assert digest == hashlib.sha256(expected).hexdigest()

    def test_without_either_lapack_the_import_error_names_both(self):
        script = HIDE_NUMPY_LAPACK + (
            "import sys\n"
            "sys.modules['scipy'] = None  # as if scipy were not installed\n"
            "try:\n"
            "    import globtop.fem\n"
            "except ImportError as exc:\n"
            "    print(exc.name)\n"
            "    print(exc)\n"
        )
        src = str(Path(gt.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        name, message = proc.stdout.splitlines()
        assert name == "scipy"
        assert "numpy's LAPACK does not export" in message
        assert "scipy" in message.split("numpy's LAPACK")[1]

    def test_threads_solve_at_once(self, cap_mesh, cer, clamped_256):
        # More threads than cores, switching often: a LAPACK argument shared
        # between calls would mix their results.
        p = gt.atm_to_pa(100.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(fem.solve_case, cap_mesh, 150.0, cer, p, bc)
                    for bc in fem.BOUNDARY_CONDITIONS * 8
                ]
                solutions = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        pinned = fem.solve_case(cap_mesh, 150.0, cer, p, "pinned")
        for sol in solutions:
            expected = clamped_256 if sol.bc == "clamped" else pinned
            assert np.array_equal(sol.factor, expected.factor)
            assert np.array_equal(sol.u_z_um, expected.u_z_um)

    def test_a_band_and_a_right_side_of_other_sizes_are_rejected(self):
        # LAPACK reads n values from b: a shorter b must not reach it.
        pbtrf, pbtrs = numpy_lapack()
        factor, info = pbtrf(np.array([[0.0, 2.0, 1.0], [4.0, 5.0, 2.0]]))
        with pytest.raises(ValueError):
            pbtrs(factor, np.ones(2))
        with pytest.raises(ValueError):
            pbtrf(np.ones(3))

    def test_an_indefinite_band_is_a_solver_error(self):
        # K = [[1, 2, 0], [2, 1, 0], [0, 0, 1]] in upper banded form.
        ab = np.array([[0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(SolverError, match="leading minor 2 is not positive definite"):
            fem.cholesky_banded(ab)

    def test_the_factor_has_the_bits_of_an_upper_dpbtrf(self, reference_cap, cer):
        # Factored in the lower layout, read back into the upper one, with
        # the unused corner above the first columns kept from the band.
        for n in (4, 33, 256):
            mesh = fem.mesh_cap(reference_cap, n)
            for bc in fem.BOUNDARY_CONDITIONS:
                ab, f = fem.assemble_system(mesh, 150.0, cer, 1e7)
                fem._apply_bc(ab, f, fem.fixed_dofs(mesh.n_nodes, bc))
                for col in range(fem.HALF_BANDWIDTH):
                    ab[: fem.HALF_BANDWIDTH - col, col] = 7.0
                expected, info = fem._PBTRF(ab)
                assert info == 0
                factor = fem.cholesky_banded(ab)
                assert factor.flags.f_contiguous
                assert factor.tobytes(order="F") == expected.tobytes(order="F")

    def test_the_reference_case_keeps_its_stiffness_and_factor(self):
        # sha256 of the reference case's constrained K (clamped, 150 um,
        # carbon epoxy resin, 100 atm, 256 elements) and of its factor, in
        # memory order.  K does not depend on the BLAS kernel; the factor
        # does, so it is pinned under OpenBLAS's generic x86-64 kernel.
        import platform

        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas or platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"the factor is pinned for OpenBLAS on x86-64, not {blas}")
        script = (
            "import hashlib, globtop as gt\n"
            "from globtop import fem\n"
            "mesh = fem.mesh_cap(gt.REFERENCE_GEOMETRY, 256)\n"
            "cer = gt.default_library().get('Carbon epoxy resin')\n"
            "sol = fem.solve_case(mesh, 150.0, cer, gt.atm_to_pa(100.0))\n"
            "print(hashlib.sha256(sol.stiffness.tobytes()).hexdigest())\n"
            "print(hashlib.sha256(sol.factor.tobytes(order='F')).hexdigest())\n"
        )
        src = str(Path(gt.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Prescott"),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "d2c9da214bb230a07399b0370647569445d6e995cdff192bd85e6a2a570ef661",
            "37c9fb6dddf6f0fa99f13d4a1d3dbf73422fc3035e7b73a989a09c6e1e2f7952",
        ]

    def test_factor_and_back_solve(self):
        # K = [[4, 2, 0], [2, 5, 1], [0, 1, 2]]: the factor keeps K, and the
        # back-solve of K x = b leaves b.
        ab = np.array([[0.0, 2.0, 1.0], [4.0, 5.0, 2.0]])
        kept = ab.copy()
        factor = fem.cholesky_banded(ab)
        assert np.array_equal(ab, kept)
        b = np.array([8.0, 15.0, 8.0])
        x = fem.cho_solve_banded(factor, b)
        assert np.array_equal(b, [8.0, 15.0, 8.0])
        assert np.allclose(x, [1.0, 2.0, 3.0], rtol=1e-14)


class TestConvergenceLadder:
    def test_default_ladder(self, reference_cap, cer):
        report = gt.converge(reference_cap, 150.0, cer, gt.atm_to_pa(100.0))
        assert report.levels == (32, 64, 128, 256)
        assert report.contraction
        assert 1.7 <= report.observed_order <= 2.3
        assert report.final_relative_change < 1e-4
        assert report.extrapolated_um == pytest.approx(
            report.apex_um[-1], rel=1e-5
        )
        # Each refinement moves the apex toward the extrapolated limit.
        gaps = [abs(a - report.extrapolated_um) for a in report.apex_um]
        assert all(hi > lo for hi, lo in zip(gaps, gaps[1:]))

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.floats(1150.0, 1400.0),
        h=st.floats(200.0, 300.0),
        nu=st.floats(0.30, 0.45),
        data=st.data(),
    )
    def test_ladder_parts_equal_lone_builds_byte_for_byte(self, b, h, nu, data):
        # The ladder's one element pass must give each mesh the parts a
        # lone build gives it; tobytes() also tells -0.0 from 0.0.
        n_start = data.draw(st.integers(4, 128), label="n_start")
        top_levels = (fem.FEM_MAX_ELEMENTS // n_start).bit_length()
        n_levels = data.draw(st.integers(3, top_levels), label="n_levels")
        geometry = gt.solve_cap(b, h)
        meshes = []
        mesh_cap = fem.mesh_cap

        def recorded(*args):
            meshes.append(mesh_cap(*args))
            return meshes[-1]

        material = gt.Material("drawn", 4.0, nu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "mesh_cap", recorded)
            report = fem.converge(geometry, 150.0, material, 1e7, n_levels=n_levels, n_start=n_start)
        assert [mesh.n_elements for mesh in meshes] == list(report.levels)
        for mesh in meshes:
            lone = fem._unit_system(mesh_cap(geometry, mesh.n_elements), nu)
            ladder = mesh._unit_parts[nu]
            assert [a.tobytes() for a in ladder] == [a.tobytes() for a in lone]

    @pytest.mark.parametrize("bc", fem.BOUNDARY_CONDITIONS)
    def test_every_level_equals_a_lone_solve_bit_for_bit(self, reference_cap, cer, bc):
        # The benchmark's checks compare only the finest level.
        p = gt.atm_to_pa(100.0)
        report = gt.converge(reference_cap, 150.0, cer, p, bc)
        lone = [
            fem.solve_case(fem.mesh_cap(reference_cap, n), 150.0, cer, p, bc).apex_deflection_um
            for n in report.levels
        ]
        assert list(report.apex_um) == lone

    def test_builds_the_ladders_parts_in_one_element_pass(self, reference_cap, cer, monkeypatch):
        passes = []
        element_parts = fem._element_parts

        def counted(meshes, nu):
            passes.append([mesh.n_elements for mesh in meshes])
            return element_parts(meshes, nu)

        monkeypatch.setattr(fem, "_element_parts", counted)
        gt.converge(reference_cap, 150.0, cer, gt.atm_to_pa(100.0))
        assert passes == [[32, 64, 128, 256]]

    def test_an_overflowing_ladder_mesh_is_a_mesh_error(self, cer):
        geometry = gt.from_radius_angle(1e200, 30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="radius 1e[+]200 um is out of range"):
                gt.converge(geometry, 1.0, cer, 1.0e6, n_levels=3, n_start=8)

    def test_json_shape(self, reference_cap, cer):
        report = gt.converge(
            reference_cap, 150.0, cer, gt.atm_to_pa(100.0), n_levels=3, n_start=8
        )
        doc = report.to_json_dict()
        assert doc["levels"] == [8, 16, 32]
        assert len(doc["apex_um"]) == 3
        assert len(doc["diffs_um"]) == 2
        assert doc["contraction"] in (True, False)
        assert set(doc) == {
            "bc",
            "levels",
            "apex_um",
            "diffs_um",
            "observed_orders",
            "observed_order",
            "extrapolated_um",
            "final_relative_change",
            "contraction",
        }

    def test_a_ladder_may_end_at_the_element_ceiling(self, reference_cap, cer):
        report = gt.converge(reference_cap, 150.0, cer, gt.atm_to_pa(100.0), n_start=64)
        assert report.levels == (64, 128, 256, fem.FEM_MAX_ELEMENTS)
        assert report.contraction

    @pytest.mark.parametrize(
        "n_levels, n_start", [(4, 65), (5, 64), (4, 256), (10**9, 4)]
    )
    def test_a_ladder_past_the_element_ceiling_is_rejected_unbuilt(
        self, reference_cap, cer, monkeypatch, n_levels, n_start
    ):
        monkeypatch.setattr(fem, "mesh_cap", None)
        with pytest.raises(InputDomainError, match="exceeds the 512 elements"):
            gt.converge(reference_cap, 150.0, cer, 1.0e6, n_levels=n_levels, n_start=n_start)

    def test_ladder_argument_validation(self, reference_cap, cer):
        with pytest.raises(InputDomainError):
            gt.converge(reference_cap, 150.0, cer, 1.0e6, n_levels=2)
        with pytest.raises(InputDomainError):
            gt.converge(reference_cap, 150.0, cer, 1.0e6, n_start=2)

    @pytest.mark.parametrize(
        "t, p, bc", [(0.0, 1.0e6, "clamped"), (150.0, -1.0, "clamped"), (150.0, 1.0e6, "glued")]
    )
    def test_a_bad_load_case_is_rejected_unbuilt(self, reference_cap, cer, monkeypatch, t, p, bc):
        monkeypatch.setattr(fem, "mesh_cap", None)
        with pytest.raises(InputDomainError):
            gt.converge(reference_cap, t, cer, p, bc)


class TestSolutionCsv:
    def test_cap_csv(self, clamped_256):
        buf = io.StringIO()
        clamped_256.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "phi_deg,u_um,w_um,rotation_rad"
        assert len(lines) == clamped_256.mesh.n_nodes + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_local_components_at_apex(self, clamped_256):
        u, w = clamped_256.local_components()
        # At the apex the meridian tangent is radial and the normal axial.
        assert u[0] == pytest.approx(clamped_256.u_r_um[0], abs=1e-15)
        assert abs(w[0]) == pytest.approx(clamped_256.apex_deflection_um, rel=1e-15)
