"""The content-addressed result store: durability, dedup, corruption."""

import json

from repro.experiments.store import SHARD_WIDTH, ResultStore, payload_digest

PAYLOAD = {"1": {"cycles_total": 100.0, "fp_ops_vector": 5.0},
           "2": {"cycles_total": 40.0, "fp_ops_vector": 1.0}}


def test_put_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    got = store.get(digest)
    assert got["1"] == PAYLOAD["1"]
    assert got["__digest__"] == digest == payload_digest(PAYLOAD)


def test_objects_are_sharded_by_digest_prefix(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    path = store.object_path(digest)
    assert path.parent.name == digest[:SHARD_WIDTH]
    assert path.exists()


def test_second_put_is_a_dedup_hit(tmp_path):
    store = ResultStore(tmp_path)
    d1 = store.put(dict(PAYLOAD))
    d2 = store.put(dict(PAYLOAD))
    assert d1 == d2
    assert store.stats.puts == 1
    assert store.stats.dedup_hits == 1
    assert store.object_count() == 1


def test_metadata_keys_do_not_change_the_digest(tmp_path):
    store = ResultStore(tmp_path)
    annotated = {**PAYLOAD, "__validation__": {"ok": True}}
    assert store.put(annotated) == payload_digest(PAYLOAD)
    # stored object keeps only the body + its digest stamp.
    obj = json.loads(store.object_path(payload_digest(PAYLOAD)).read_text())
    assert "__validation__" not in obj


def test_solve_record_survives_the_store(tmp_path):
    # the convergence record is metadata (digest-neutral) but it must
    # come back out of the store so jobs --results can surface it.
    store = ResultStore(tmp_path)
    info = {"method": "bicgstab", "iterations": 3,
            "residual": 7.47e-09, "converged": True}
    digest = store.put({**PAYLOAD, "__solve__": info})
    assert digest == payload_digest(PAYLOAD)
    got = store.get(digest)
    assert got["__solve__"] == info


def test_torn_object_is_discarded_on_read(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    path = store.object_path(digest)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # the torn write
    assert store.get(digest) is None
    assert store.stats.corrupt_discarded == 1
    assert not path.exists()  # quarantined for recomputation


def test_bitrot_with_valid_json_fails_the_digest_check(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    path = store.object_path(digest)
    obj = json.loads(path.read_text())
    obj["1"]["cycles_total"] += 1.0  # parseable, plausible, wrong
    path.write_text(json.dumps(obj, sort_keys=True))
    assert store.get(digest) is None
    assert store.stats.corrupt_discarded == 1


def test_link_lookup_roundtrip(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    store.link("cfg-a", digest)
    assert store.digest_for("cfg-a") == digest
    assert store.lookup("cfg-a")["__digest__"] == digest
    assert store.stats.hits == 1


def test_unlinked_key_lookup_is_none(tmp_path):
    assert ResultStore(tmp_path).lookup("nope") is None


def test_corrupt_link_is_discarded(tmp_path):
    store = ResultStore(tmp_path)
    store.link("cfg-a", store.put(dict(PAYLOAD)))
    store.link_path("cfg-a").write_text("{torn")
    assert store.lookup("cfg-a") is None
    assert store.stats.corrupt_links == 1
    assert not store.link_path("cfg-a").exists()


def test_health_counts_objects_and_links(tmp_path):
    store = ResultStore(tmp_path)
    digest = store.put(dict(PAYLOAD))
    store.link("a", digest)
    store.link("b", digest)  # two configs, one object: dedup
    health = store.health()
    assert health["objects"] == 1
    assert health["links"] == 2
