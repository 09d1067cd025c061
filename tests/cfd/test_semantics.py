"""The central correctness suite: IR kernels == NumPy reference.

The paper's optimizations (VEC2, IVEC2, VEC1) must be pure performance
transformations.  These tests interpret the IR kernels of every
optimization level element by element and compare the assembled system
against the NumPy reference semantics -- and all levels against each
other.
"""

import numpy as np
import pytest

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.compiler.transforms import OPT_PASSES

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def mesh():
    return box_mesh(3, 2, 2)  # 12 elements; VS=8 pads the tail chunk


@pytest.fixture(scope="module")
def reference_system(mesh):
    return MiniApp(mesh, vector_size=8, opt="scalar").run_numeric()


@pytest.mark.parametrize("opt", OPT_PASSES)
def test_interpreter_matches_reference(mesh, reference_system, opt):
    app = MiniApp(mesh, vector_size=8, opt=opt)
    interpreted = app.run_interpreted()
    np.testing.assert_allclose(interpreted.rhsid, reference_system.rhsid,
                               rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(interpreted.amatr, reference_system.amatr,
                               rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("opt", tuple(OPT_PASSES)[1:])
def test_all_optimizations_assemble_identically(mesh, reference_system, opt):
    system = MiniApp(mesh, vector_size=8, opt=opt).run_numeric()
    np.testing.assert_allclose(system.rhsid, reference_system.rhsid,
                               rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(system.amatr, reference_system.amatr,
                               rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("vs", [4, 8, 12, 16])
def test_vector_size_does_not_change_results(mesh, vs):
    """VECTOR_SIZE is a packing parameter: the assembled system is
    invariant (including tail-padding configurations)."""
    base = MiniApp(mesh, vector_size=4, opt="vec1").run_numeric()
    other = MiniApp(mesh, vector_size=vs, opt="vec1").run_numeric()
    np.testing.assert_allclose(other.rhsid, base.rhsid, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(other.amatr, base.amatr, rtol=RTOL, atol=ATOL)


def test_assembled_system_is_nontrivial(reference_system):
    assert np.linalg.norm(reference_system.rhsid) > 1e-6
    assert np.linalg.norm(reference_system.amatr) > 1e-6
    assert np.all(np.isfinite(reference_system.rhsid))
    assert np.all(np.isfinite(reference_system.amatr))


def test_padding_elements_do_not_scatter(mesh):
    """12 elements at VS=8 -> 4 padded slots replicating element 11; the
    validity check must keep them out of the global system."""
    padded = MiniApp(mesh, vector_size=8, opt="vec1").run_numeric()
    exact = MiniApp(mesh, vector_size=4, opt="vec1").run_numeric()  # no padding
    np.testing.assert_allclose(padded.rhsid, exact.rhsid, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(padded.amatr, exact.amatr, rtol=RTOL, atol=ATOL)


def test_field_seed_changes_data_not_structure(mesh):
    a = MiniApp(mesh, vector_size=8, opt="vec1", field_seed=0).run_numeric()
    b = MiniApp(mesh, vector_size=8, opt="vec1", field_seed=1).run_numeric()
    assert a.pattern.nnz == b.pattern.nnz
    assert not np.allclose(a.rhsid, b.rhsid)


def test_interpreted_timed_and_numeric_share_kernels(mesh):
    """The timing path compiles exactly the kernels the interpreter ran."""
    app = MiniApp(mesh, vector_size=8, opt="vec1")
    assert len(app.kernels) == 8
    assert len(app.compiled) == 8
    assert [k.phase for k in app.kernels] == list(range(1, 9))
    assert [c.phase for c in app.compiled] == list(range(1, 9))


def test_matrix_diagonal_dominant_sign(reference_system):
    """The assembled operator has positive diagonal (viscous + grad-div
    stabilization dominate on a uniform mesh)."""
    from repro.cfd.csr import diagonal

    diag = diagonal(reference_system.pattern, reference_system.amatr)
    assert np.all(diag > 0)
