"""The committed warm store under ``.repro_cache/`` is sound.

Read-only: the checks parse the files directly instead of going through
``ResultStore.get``, which would delete a corrupt committed object.
"""

import json
from pathlib import Path

from repro.experiments.executor import MODEL_VERSION
from repro.experiments.store import ResultStore, payload_digest
from repro.metrics.counters import counters_from_dict

STORE = ResultStore(Path(__file__).resolve().parents[2] / ".repro_cache")
SOLVER_PHASES = {9, 10, 11, 12}


def test_committed_links_resolve_to_digest_verified_objects():
    links = sorted(STORE.links.glob("*.json"))
    assert len(links) == 100
    digests = set()
    for path in links:
        name = path.stem
        assert name.startswith(f"v{MODEL_VERSION}-"), name
        link = json.loads(path.read_text())
        assert link["key"] == name
        obj = json.loads(STORE.object_path(link["digest"]).read_text())
        assert obj["__digest__"] == link["digest"] == payload_digest(obj)
        phases = set(counters_from_dict(obj).phases)
        solve = name.endswith("-solve")
        assert phases >= set(range(1, 9)), name
        # phases 9-12 and the convergence record exactly on -solve keys
        assert bool(phases & SOLVER_PHASES) == solve, name
        assert (phases >= SOLVER_PHASES) == solve, name
        assert ("__solve__" in obj) == solve, name
        digests.add(link["digest"])
    assert STORE.object_count() == len(digests)  # no orphan objects
