"""Shared benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper on
the full 7680-element mesh.  All artifacts project the same ~50
simulated runs, which are cached in memory and on disk
(``.repro_cache/``), so the first invocation simulates (~10 minutes) and
subsequent ones re-render in seconds.

Set ``REPRO_MESH=quick`` to run the suite on the 960-element mesh
instead (faster, same qualitative shapes except where noted).

Noted exception: ``test_table6`` fails on the quick mesh.  Its phase-1
R^2 measures 0.742 there, under the 0.75 bound; the full mesh gives
0.760 (paper 0.903).  The bound is the paper-shape contract and stays
as it is; the weak phase-1 fit is an open modelling item, not a
quick-mesh tolerance.
"""

from __future__ import annotations

import os

import pytest

from repro import Session
from repro.experiments.config import FULL_MESH, QUICK_MESH


@pytest.fixture(scope="session")
def session() -> Session:
    dims = QUICK_MESH if os.environ.get("REPRO_MESH") == "quick" else FULL_MESH
    return Session(mesh_dims=dims, verbose=True)
