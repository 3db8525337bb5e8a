"""ResultCache: hit/miss, invalidation, maintenance."""

from repro.network.config import SimulationConfig
from repro.runtime.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runtime.spec import RunSpec, execute_spec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)


def _spec(**overrides) -> RunSpec:
    base = dict(topology="mesh_x1", workload="uniform", rate=0.05,
                config=_CFG, cycles=400, warmup=100)
    base.update(overrides)
    return RunSpec(**base)


def test_get_on_empty_cache_misses(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(_spec()) is None
    assert cache.misses == 1 and cache.hits == 0


def test_put_then_get_round_trips(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    result = execute_spec(spec)
    path = cache.put(spec, result)
    assert path.is_file()
    assert spec.content_hash in path.name
    assert cache.get(spec) == result
    assert cache.hits == 1


def test_different_spec_still_misses(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cache.put(spec, execute_spec(spec))
    assert cache.get(_spec(rate=0.07)) is None


def test_corrupt_blob_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute_spec(spec))
    path.write_text("{ not json", encoding="utf-8")
    assert cache.get(spec) is None


def test_wrong_shaped_result_field_reads_as_miss(tmp_path):
    """Valid JSON whose 'result' is not an object must miss, not crash."""
    import json

    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute_spec(spec))
    blob = json.loads(path.read_text(encoding="utf-8"))
    for bad in (None, [1, 2], "text"):
        blob["result"] = bad
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cache.get(spec) is None


def test_new_result_fields_survive_the_cache_bit_for_bit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec(workload="hotspot64", policy="gsf", mode="window")
    result = execute_spec(spec)
    assert result.deferrals > 0 and len(result.snapshot_sha256) == 64
    cache.put(spec, result)
    fresh = ResultCache(tmp_path).get(spec)
    assert fresh == result and fresh.to_json() == result.to_json()


def test_a_blob_in_the_previous_result_format_is_never_a_result(tmp_path):
    """Results before ``deferrals``/``snapshot_sha256`` were stored under
    schema-1 spec hashes; none of them can answer a current spec."""
    import hashlib
    import json

    from repro.runtime.cache import payload_sha256

    cache = ResultCache(tmp_path)
    spec = _spec(workload="hotspot64", policy="gsf", mode="window")
    old_spec = dict(spec.to_json(), schema=1)
    old_hash = hashlib.sha256(json.dumps(
        old_spec, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    old_result = execute_spec(spec).to_json()
    del old_result["deferrals"], old_result["snapshot_sha256"]
    old_result["spec_hash"] = old_hash
    path = cache.path_for(old_hash)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "cache_version": cache.version, "spec_hash": old_hash,
        "spec": old_spec, "result": old_result,
        "payload_sha256": payload_sha256(old_result),
    }), encoding="utf-8")
    assert spec.content_hash != old_hash
    assert cache.get(spec) is None
    assert cache.quarantined == 0  # a miss, not corruption


def test_version_bump_invalidates(tmp_path):
    spec = _spec()
    old = ResultCache(tmp_path, version="1.0.0")
    old.put(spec, execute_spec(spec))
    new = ResultCache(tmp_path, version="9.9.9")
    assert new.get(spec) is None
    # ... without destroying the old version's entries.
    assert old.get(spec) is not None


def test_default_version_is_the_package_version(tmp_path):
    import repro

    assert ResultCache(tmp_path).version == repro.__version__


def test_info_counts_entries_and_other_versions(tmp_path):
    spec = _spec()
    current = ResultCache(tmp_path, version="2.0.0")
    current.put(spec, execute_spec(spec))
    ResultCache(tmp_path, version="1.0.0").put(spec, execute_spec(spec))
    info = current.info()
    assert info.entries == 1
    assert info.total_bytes > 0
    assert info.other_versions == ("v1.0.0",)


def test_clear_scopes_to_current_version(tmp_path):
    spec = _spec()
    current = ResultCache(tmp_path, version="2.0.0")
    legacy = ResultCache(tmp_path, version="1.0.0")
    current.put(spec, execute_spec(spec))
    legacy.put(spec, execute_spec(spec))
    assert current.clear() == 1
    assert current.info().entries == 0
    assert legacy.get(spec) is not None
    assert legacy.clear(all_versions=True) == 1
    assert legacy.get(spec) is None


def test_clear_all_versions_leaves_foreign_directories_alone(tmp_path):
    """A shared cache root (e.g. ~/.cache) must survive clear()."""
    foreign = tmp_path / "someapp" / "data"
    foreign.mkdir(parents=True)
    (foreign / "settings.json").write_text("{}", encoding="utf-8")
    cache = ResultCache(tmp_path, version="1.0.0")
    spec = _spec()
    cache.put(spec, execute_spec(spec))
    assert cache.clear(all_versions=True) == 1
    assert (foreign / "settings.json").is_file()


def test_clear_sweeps_orphaned_temp_files(tmp_path):
    cache = ResultCache(tmp_path, version="1.0.0")
    spec = _spec()
    path = cache.put(spec, execute_spec(spec))
    orphan = path.parent / f"{spec.content_hash}.tmp.99999"
    orphan.write_text("partial", encoding="utf-8")
    cache.clear()
    assert not orphan.exists()
    assert not cache.version_dir.exists()


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
    assert default_cache_dir() == tmp_path / "store"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().name == "repro"
