"""The ``RunConfig`` JSON wire format (``to_json_dict``/``from_json_dict``).

The service serialises configs across the HTTP boundary, so the wire
format carries the same guarantees as the record itself: every field
survives the round trip byte-identically, unknown fields fail loudly
(the "flag parsed but silently dropped" bug class must not reappear one
layer up), live objects can never leak onto the wire, and partial
payloads fold over a ``base`` config exactly the way the service folds a
request over the server default.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro import RunConfig
from repro.cache import ShardStore

DISTINCT = RunConfig(
    workers=3,
    shards=7,
    retries=2,
    timeout=12.5,
    checkpoint="run.ckpt",
    cache="cache-dir",
    manifest="manifest.json",
    trace="trace.jsonl",
    progress=True,
    transport="shm",
)


class TestRoundTrip:
    def test_every_field_survives_byte_identically(self):
        wire = DISTINCT.to_json_dict()
        rebuilt = RunConfig.from_json_dict(json.loads(json.dumps(wire)))
        assert rebuilt == DISTINCT
        # Byte-identity of the wire form itself, not just record equality.
        assert (json.dumps(rebuilt.to_json_dict(), sort_keys=True)
                == json.dumps(wire, sort_keys=True))

    def test_distinct_config_exercises_every_field(self):
        """The fixture must keep no field at its default, or the
        round-trip test silently weakens when a field is added."""
        defaults = RunConfig()
        for spec in fields(RunConfig):
            assert getattr(DISTINCT, spec.name) != getattr(defaults, spec.name)

    def test_default_config_round_trips(self):
        config = RunConfig()
        assert RunConfig.from_json_dict(config.to_json_dict()) == config

    def test_wire_dict_is_json_native(self):
        wire = DISTINCT.to_json_dict()
        assert set(wire) == {spec.name for spec in fields(RunConfig)}
        json.dumps(wire)  # every value JSON-serialisable

    def test_paths_become_strings(self):
        config = RunConfig(checkpoint=Path("a/run.ckpt"),
                           manifest=Path("m.json"), trace=Path("t.jsonl"))
        wire = config.to_json_dict()
        assert wire["checkpoint"] == str(Path("a/run.ckpt"))
        assert isinstance(wire["manifest"], str)
        assert isinstance(wire["trace"], str)


class TestRejection:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_json_dict({"workerz": 4})

    def test_unknown_field_error_names_known_fields(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig.from_json_dict({"nope": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            RunConfig.from_json_dict({"workers": "four"})

    def test_bool_rejected_where_int_expected(self):
        # bool subclasses int; the wire must not let True mean 1 worker.
        with pytest.raises(TypeError, match="workers"):
            RunConfig.from_json_dict({"workers": True})
        with pytest.raises(TypeError, match="retries"):
            RunConfig.from_json_dict({"retries": False})

    def test_invalid_knob_value_rejected_via_resolve(self):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"shards": -1})
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"transport": "carrier-pigeon"})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(TypeError, match="object"):
            RunConfig.from_json_dict(["workers", 4])


class TestUnsetAndLiveObjects:
    def test_live_checkpoint_not_wire_representable(self, tmp_path):
        checkpoint = ShardStore(tmp_path / "run.ckpt", max_bytes=None)
        with pytest.raises(TypeError, match="checkpoint"):
            RunConfig(checkpoint=checkpoint).to_json_dict()

    def test_live_store_not_wire_representable(self, tmp_path):
        store = ShardStore(tmp_path)
        with pytest.raises(TypeError, match="cache"):
            RunConfig(cache=store).to_json_dict()

    def test_progress_callback_not_wire_representable(self):
        with pytest.raises(TypeError, match="progress"):
            RunConfig(progress=lambda snapshot: None).to_json_dict()


class TestBaseFolding:
    def test_omitted_keys_keep_base_values(self):
        base = RunConfig(workers=4, retries=3, transport="pickle")
        merged = RunConfig.from_json_dict({"workers": 2}, base=base)
        assert merged.workers == 2
        assert merged.retries == 3
        assert merged.transport == "pickle"

    def test_empty_payload_returns_base(self):
        base = RunConfig(workers=4)
        assert RunConfig.from_json_dict({}, base=base) == base

    def test_explicit_none_overrides_base(self):
        base = RunConfig(timeout=30.0)
        merged = RunConfig.from_json_dict({"timeout": None}, base=base)
        assert merged.timeout is None

    def test_default_base_is_default_config(self):
        assert RunConfig.from_json_dict({}) == RunConfig()
