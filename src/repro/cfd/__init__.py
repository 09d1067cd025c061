"""The Alya-like CFD substrate: mesh, elements, assembly mini-app, solver."""

from repro.cfd.elements import HEX08, NDIME, NDOFN, NGAUS, PNODE, hex08_basis
from repro.cfd.mesh import Chunk, Mesh, box_mesh
from repro.cfd.csr import CSRPattern, build_pattern, diagonal, spmv, to_dense
from repro.cfd.solver import SolveResult, bicgstab, cg, jacobi_preconditioner
from repro.cfd.kernel_context import MiniAppContext, Sizes, stabilization_params
from repro.cfd.assembly import AssembledSystem, MiniApp

__all__ = [
    "HEX08", "NDIME", "NDOFN", "NGAUS", "PNODE", "hex08_basis",
    "Chunk", "Mesh", "box_mesh",
    "CSRPattern", "build_pattern", "diagonal", "spmv", "to_dense",
    "SolveResult", "bicgstab", "cg", "jacobi_preconditioner",
    "MiniAppContext", "Sizes", "stabilization_params",
    "AssembledSystem", "MiniApp",
]
