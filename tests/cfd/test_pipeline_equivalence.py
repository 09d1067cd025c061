"""Frozen-fixture equivalence gate: pipeline kernels == hand variants.

Before the hand-written VEC2/IVEC2/VEC1 kernel bodies were deleted from
``cfd/phases.py``, every rung x VECTOR_SIZE combination below was
simulated once and its full counter payload frozen into
``tests/fixtures/pipeline_equivalence.json``.  These tests pin the
pass-pipeline-generated kernels to those counters byte for byte -- the
property "pipeline(baseline) == hand-written variant" survives as a
regression gate even though the hand variants no longer exist.
"""

import json
from pathlib import Path

import pytest

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.cfd.phases import build_baseline_kernels
from repro.compiler.transforms import pipeline_for_opt
from repro.experiments.config import TINY_MESH, RunConfig
from repro.experiments.executor import simulate_to_dict

FIXTURE = Path(__file__).parent.parent / "fixtures" / "pipeline_equivalence.json"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


def _cases(frozen):
    for key, payload in sorted(frozen.items()):
        opt, vs = key.rsplit("-vs", 1)
        yield key, opt, int(vs), payload


def test_fixture_covers_every_rung(frozen):
    opts = {k.rsplit("-vs", 1)[0] for k in frozen}
    assert opts == {"scalar", "vanilla", "vec2", "ivec2", "vec1"}
    assert len(frozen) == 10  # 5 rungs x vs in {16, 64}


@pytest.mark.parametrize("vs", [16, 64])
@pytest.mark.parametrize("opt",
                         ["scalar", "vanilla", "vec2", "ivec2", "vec1"])
def test_pipeline_counters_match_frozen_hand_variants(frozen, opt, vs):
    payload = frozen[f"{opt}-vs{vs}"]
    got = simulate_to_dict(RunConfig(opt=opt, vector_size=vs,
                                     mesh_dims=TINY_MESH))
    assert got == payload


@pytest.mark.parametrize("opt",
                         ["scalar", "vanilla", "vec2", "ivec2", "vec1"])
def test_build_kernels_equals_pipeline_over_baseline(opt):
    """The rung pipeline over the baseline kernels is exactly what
    MiniApp compiles (IR dataclass equality, which implies identical
    compiled programs)."""
    app = MiniApp(box_mesh(4, 4, 4), 16, opt)
    baseline = build_baseline_kernels(app.context.arrays, 16)
    via_pipeline, _ = pipeline_for_opt(opt).run_all(baseline)
    assert via_pipeline == app.kernels


def test_phases_module_has_no_hand_variants():
    """The tentpole's structural guarantee: one canonical builder per
    phase, no per-variant duplicated loop bodies left behind."""
    import inspect

    from repro.cfd import phases

    src = inspect.getsource(phases)
    # the old variant selectors are gone...
    for needle in ("phase2_interchanged_body", "_phase1_fissioned",
                   "_phase2_const", "if cfg.phase2_interchanged",
                   "if cfg.phase1_fissioned"):
        assert needle not in src
    # ...and each builder takes (arrays, vector_size), not a config.
    for builder in phases.PHASE_BUILDERS:
        params = list(inspect.signature(builder).parameters)
        assert params == ["A", "vs"]
