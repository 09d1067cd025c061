"""Tests for the mini-app working storage and chunk instances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfd.assembly import MiniApp
from repro.cfd.csr import build_pattern
from repro.cfd.elements import HEX08, NDIME, NGAUS, PNODE
from repro.cfd.kernel_context import (
    CHUNK_BASE,
    DEFAULT_PARAMS,
    MiniAppContext,
    declare_arrays,
    Sizes,
)
from repro.cfd.mesh import box_mesh


@pytest.fixture(scope="module")
def ctx():
    mesh = box_mesh(3, 2, 2)  # 12 elements
    nnz = build_pattern(mesh).nnz
    return MiniAppContext(mesh, vector_size=8, nnz=nnz)


@pytest.fixture(scope="module")
def elpos(ctx):
    pattern = build_pattern(ctx.mesh)
    pad = ctx.padded_nelem - ctx.mesh.nelem
    return np.concatenate(
        [pattern.elpos, np.repeat(pattern.elpos[-1:], pad, axis=0)])


def test_declared_arrays_cover_both_scopes():
    sz = Sizes(vector_size=8, npoin=36, nelem=16, nmate=1, nnz=100)
    arrays = declare_arrays(sz)
    scopes = {a.scope for a in arrays.values()}
    assert scopes == {"global", "local"}
    assert arrays["gpcar"].shape == (8, NDIME, PNODE, NGAUS)
    assert arrays["lnods"].dtype == "i8"
    assert arrays["amatr"].shape == (100,)


def test_padding_to_whole_chunks(ctx):
    assert ctx.padded_nelem == 16  # 12 -> 2 chunks of 8
    assert ctx.lnods.shape == (16, PNODE)
    # padded rows replicate the last element's connectivity ...
    np.testing.assert_array_equal(ctx.lnods[12], ctx.lnods[11])
    # ... but carry an invalid element type
    assert np.all(ctx.ltype[12:] == 0)
    assert np.all(ctx.ltype[:12] == HEX08)


def test_chunks_are_contiguous_and_flag_real_count(ctx):
    chunks = ctx.chunks()
    assert len(chunks) == 2
    np.testing.assert_array_equal(chunks[0].elements, np.arange(8))
    np.testing.assert_array_equal(chunks[1].elements, np.arange(8, 16))
    assert chunks[0].n_real == 8
    assert chunks[1].n_real == 4


def test_layout_globals_before_locals(ctx):
    bases = ctx.layout.bases
    g_max = max(bases[n] for n, a in ctx.arrays.items() if a.scope == "global")
    l_min = min(bases[n] for n, a in ctx.arrays.items() if a.scope == "local")
    assert l_min > g_max


def test_layout_no_overlap(ctx):
    spans = sorted(
        (ctx.layout.bases[n], ctx.layout.bases[n] + a.nbytes)
        for n, a in ctx.arrays.items()
    )
    for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
        assert s1 >= e0


def test_instances_share_addresses_differ_in_chunk_base(ctx, elpos):
    c0, c1 = ctx.chunks()
    i0 = ctx.instance_for_chunk(c0, globals_data={"elpos": elpos})
    i1 = ctx.instance_for_chunk(c1, globals_data={"elpos": elpos})
    assert i0.binding("elunk").base_addr == i1.binding("elunk").base_addr
    assert i0.index_consts[CHUNK_BASE] == 0
    assert i1.index_consts[CHUNK_BASE] == 8


def test_instance_integer_tables_bound_automatically(ctx, elpos):
    inst = ctx.instance_for_chunk(ctx.chunks()[0], globals_data={"elpos": elpos})
    assert inst.data("lnods").shape == (16, PNODE)
    assert inst.data("ltype").shape == (16,)
    assert np.all(inst.data("kfl_sgs") == 1)
    # float arrays carry no data on the timing path
    with pytest.raises(ValueError):
        inst.data("elunk")
    # the solver context binds by the same rule: its i8 table (ellcol)
    # from the context, float arrays address-only
    sctx = MiniApp(ctx.mesh, vector_size=8).build_solver()[0].context
    sinst = sctx.instance_for_chunk(sctx.chunks()[0])
    assert sinst.data("ellcol") is sctx.ellcol
    with pytest.raises(ValueError):
        sinst.data("xvec")


def test_instance_with_data_binds_everything(ctx, elpos):
    inst = ctx.instance_for_chunk(ctx.chunks()[0], with_data=True,
                                  globals_data={"elpos": elpos})
    assert inst.data("elunk").shape == (8, PNODE, 4)
    assert np.all(inst.data("elunk") == 0.0)


def test_elpos_requires_globals_data(ctx):
    with pytest.raises(ValueError, match="elpos"):
        ctx.instance_for_chunk(ctx.chunks()[0])


def _assembly_context(mesh, vs):
    return MiniAppContext(mesh, vs, nnz=build_pattern(mesh).nnz), mesh.nelem


def _solver_context(mesh, vs):
    workload, _ = MiniApp(mesh, vs).build_solver()
    return workload.context, mesh.npoin


@pytest.mark.parametrize("make_context", [_assembly_context, _solver_context],
                         ids=["assembly", "solver"])
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 40))
def test_chunk_invariants(make_context, nx, ny, nz, vs):
    context, n_real = make_context(box_mesh(nx, ny, nz), vs)
    chunks = context.chunks()
    assert sum(c.n_real for c in chunks) == n_real
    assert all(c.size == vs for c in chunks)
    ids = np.concatenate([c.elements for c in chunks])
    np.testing.assert_array_equal(ids, np.arange(len(chunks) * vs))


def test_default_params_contain_stabilization_constants():
    assert DEFAULT_PARAMS["tau_c1"] == 4.0
    assert DEFAULT_PARAMS["tau_c2"] == 2.0
    assert DEFAULT_PARAMS["dtinv"] > 0


def test_params_override(ctx):
    mesh = box_mesh(2, 2, 2)
    nnz = build_pattern(mesh).nnz
    custom = MiniAppContext(mesh, vector_size=8, nnz=nnz,
                            params={"dtinv": 99.0})
    assert custom.params["dtinv"] == 99.0
    assert custom.params["tau_c1"] == 4.0  # defaults preserved


def test_basis_data_shapes(ctx):
    basis = ctx.basis_data()
    assert basis["shapf"].shape == (PNODE, NGAUS)
    assert basis["deriv"].shape == (NDIME, PNODE, NGAUS)
    assert basis["weigp"].shape == (NGAUS,)
