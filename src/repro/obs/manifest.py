"""Run manifests: a durable, validated record of what a run actually did.

A finished estimate is one number; an *auditable* estimate needs the
story behind it — which plan drew the randomness, how long each shard
took, what failed and was retried, what was resumed from a checkpoint,
and what the merged result was.  The manifest is that story as JSON,
written next to the checkpoint journal by the ``RunConfig.manifest``
knob / ``--manifest`` CLI flag.

One manifest **file** holds one document with a ``runs`` list; each
sharded run appends one **run record**, so a multi-model command (the
``thm62`` table runs four estimators) or a re-run lands in the same file
and stays comparable — re-running a fixed-seed plan must reproduce the
``result`` block bit-identically while ``shards[*].seconds`` move.

Document schema (format 1; the annotated example lives in
``docs/OBSERVABILITY.md``):

.. code-block:: text

   {"kind": "repro/run-manifest", "format": 1, "runs": [RUN, ...]}

   RUN = {
     "label":            str   — experiment label (same salt as the checkpoint key)
     "library_version":  str
     "created_unix":     float — wall-clock write time
     "mode":             "sharded" | "serial-legacy"
     "plan":      {"trials": int, "shards": int, "seed": int|null, "key": str|null}
     "execution": {"workers": int, "retries": int, "timeout": float|null,
                   "executed_shards": int, "resumed_shards": int,
                   "pool_recycles": int, "elapsed_seconds": float}
     "shards":    [ShardEvent.as_dict() ... in shard order]
     "retry_ledger": [{"shard": int, "attempt": int, "kind": "error"|"timeout"|"pool",
                       "error": str} ... sorted by (shard, attempt)]
     "metrics":   MetricsRegistry.snapshot()
     "result":    summarise_result(...) | null
     "checkpoint": {"path": str, "key": str} | null
   }

:func:`validate_manifest` checks structure *and* internal consistency
(shard trials sum to the plan's budget, executed/resumed counts match
the shard list) and raises :class:`ManifestError` on drift — the
round-trip ``write -> validate -> load`` is a tested invariant.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_FORMAT",
    "ManifestError",
    "build_run_record",
    "summarise_result",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
]

MANIFEST_KIND = "repro/run-manifest"
MANIFEST_FORMAT = 1


class ManifestError(ValueError):
    """A manifest file or record violates the documented schema."""


def _library_version() -> str:
    # Imported lazily: repro.obs must stay importable mid-way through the
    # package's own import (the stats layer pulls it in).
    try:
        from repro import __version__
        return __version__
    except Exception:  # pragma: no cover - only during exotic partial imports
        return "unknown"


def summarise_result(result: Any) -> dict[str, object] | None:
    """A JSON-ready summary of a merged estimate (duck-typed).

    Recognises the library's result families by shape rather than by
    import (observability sits below every layer that defines them):
    Bernoulli (``successes``/``trials``), categorical and machine PMFs
    (``counts`` or ``final_values``), window measurements
    (``overlap_trials``), and plain dicts; a result with ``to_json_dict``
    (the litmus reports) is summarised as that dict.  Anything else
    falls back to ``repr``.  The summary must be deterministic for a
    fixed plan — it is the field re-runs are compared on.
    """
    if result is None:
        return None
    if hasattr(result, "to_json_dict"):
        result = result.to_json_dict()
    summary: dict[str, object] = {"type": type(result).__name__}
    if isinstance(result, dict):
        summary["value"] = {str(key): value for key, value in sorted(result.items())}
        return summary
    if hasattr(result, "successes") and hasattr(result, "trials"):
        summary.update(
            successes=int(result.successes),
            trials=int(result.trials),
            estimate=result.successes / result.trials if result.trials else None,
        )
    elif hasattr(result, "counts") and hasattr(result, "trials"):
        summary.update(
            counts={str(key): int(value) for key, value in sorted(result.counts.items())},
            trials=int(result.trials),
        )
    elif hasattr(result, "final_values") and hasattr(result, "trials"):
        summary.update(
            final_values={str(key): int(value)
                          for key, value in sorted(result.final_values.items())},
            trials=int(result.trials),
            manifestations=int(result.manifestations),
        )
    elif hasattr(result, "overlap_trials") and hasattr(result, "trials"):
        summary.update(
            trials=int(result.trials),
            overlap_trials=int(result.overlap_trials),
            manifest_trials=int(result.manifest_trials),
            manifest_without_overlap=int(result.manifest_without_overlap),
        )
    else:
        summary["repr"] = repr(result)
    for attribute in ("confidence", "seed", "model", "threads"):
        if hasattr(result, attribute):
            value = getattr(result, attribute)
            if isinstance(value, (int, float, str)) or value is None:
                summary[attribute] = value
    return summary


def build_run_record(
    *,
    label: str,
    mode: str,
    plan: dict[str, object],
    execution: dict[str, object],
    shards: list[dict[str, object]],
    retry_ledger: list[dict[str, object]],
    metrics: dict[str, dict[str, object]],
    result: dict[str, object] | None,
    checkpoint: dict[str, object] | None,
) -> dict[str, object]:
    """Assemble one run record (the observer calls this; tests too)."""
    return {
        "label": label,
        "library_version": _library_version(),
        "created_unix": time.time(),
        "mode": mode,
        "plan": dict(plan),
        "execution": dict(execution),
        "shards": list(shards),
        "retry_ledger": list(retry_ledger),
        "metrics": dict(metrics),
        "result": result,
        "checkpoint": checkpoint,
    }


def write_manifest(path: str | Path, record: dict[str, object]) -> Path:
    """Append one run record to the manifest file at ``path``.

    Creates the document on first write; subsequent writes re-read,
    append to ``runs``, and replace the file atomically
    (write-to-temp + ``os.replace``), so a crash mid-write can never
    leave a torn manifest.  An existing file that is not a valid
    manifest raises :class:`ManifestError` rather than being clobbered.
    """
    target = Path(path)
    if target.exists():
        document = load_manifest(target)
    else:
        document = {"kind": MANIFEST_KIND, "format": MANIFEST_FORMAT, "runs": []}
    document["runs"].append(record)
    validate_manifest(document)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + f".tmp{os.getpid()}")
    scratch.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    os.replace(scratch, target)
    return target.resolve()


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and validate a manifest file; returns the document."""
    target = Path(path)
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ManifestError(f"cannot read manifest {target}: {error}") from error
    validate_manifest(document)
    return document


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


_RUN_KEYS = frozenset(
    ["label", "library_version", "created_unix", "mode", "plan", "execution",
     "shards", "retry_ledger", "metrics", "result", "checkpoint"]
)
_SHARD_KEYS = frozenset(
    ["shard", "trials", "seconds", "attempts", "timeouts", "resumed", "worker"]
)


def validate_manifest(document: Any) -> None:
    """Assert ``document`` obeys the format-1 schema; raise otherwise."""
    _require(isinstance(document, dict), "manifest document must be an object")
    _require(document.get("kind") == MANIFEST_KIND,
             f"manifest kind must be {MANIFEST_KIND!r}, got {document.get('kind')!r}")
    _require(document.get("format") == MANIFEST_FORMAT,
             f"unsupported manifest format {document.get('format')!r}")
    runs = document.get("runs")
    _require(isinstance(runs, list), "manifest 'runs' must be a list")
    for position, run in enumerate(runs):
        _validate_run(run, position)


def _validate_run(run: Any, position: int) -> None:
    where = f"runs[{position}]"
    _require(isinstance(run, dict), f"{where} must be an object")
    missing = _RUN_KEYS - run.keys()
    _require(not missing, f"{where} missing keys: {sorted(missing)}")
    _require(run["mode"] in ("sharded", "serial-legacy"),
             f"{where}.mode must be 'sharded' or 'serial-legacy'")

    plan = run["plan"]
    _require(isinstance(plan, dict), f"{where}.plan must be an object")
    for key in ("trials", "shards"):
        _require(isinstance(plan.get(key), int) and plan[key] >= 1,
                 f"{where}.plan.{key} must be a positive integer")
    _require(plan.get("seed") is None or isinstance(plan["seed"], int),
             f"{where}.plan.seed must be an integer or null")

    execution = run["execution"]
    _require(isinstance(execution, dict), f"{where}.execution must be an object")
    for key in ("workers", "executed_shards", "resumed_shards", "pool_recycles"):
        _require(isinstance(execution.get(key), int) and execution[key] >= 0,
                 f"{where}.execution.{key} must be a non-negative integer")

    shards = run["shards"]
    _require(isinstance(shards, list) and shards, f"{where}.shards must be a non-empty list")
    resumed = 0
    total_trials = 0
    previous = -1
    for entry in shards:
        _require(isinstance(entry, dict) and not (_SHARD_KEYS - entry.keys()),
                 f"{where}.shards entries must carry {sorted(_SHARD_KEYS)}")
        _require(isinstance(entry["shard"], int) and entry["shard"] > previous,
                 f"{where}.shards must be in strictly increasing shard order")
        previous = entry["shard"]
        _require(isinstance(entry["trials"], int) and entry["trials"] >= 0,
                 f"{where}.shards trials must be non-negative integers")
        total_trials += entry["trials"]
        resumed += bool(entry["resumed"])
    _require(total_trials == plan["trials"],
             f"{where}: shard trials sum to {total_trials}, plan says {plan['trials']}")
    _require(resumed == execution["resumed_shards"],
             f"{where}: {resumed} resumed shard entries but execution.resumed_shards="
             f"{execution['resumed_shards']}")
    _require(len(shards) - resumed == execution["executed_shards"],
             f"{where}: {len(shards) - resumed} executed shard entries but "
             f"execution.executed_shards={execution['executed_shards']}")

    ledger = run["retry_ledger"]
    _require(isinstance(ledger, list), f"{where}.retry_ledger must be a list")
    for entry in ledger:
        _require(isinstance(entry, dict)
                 and isinstance(entry.get("shard"), int)
                 and isinstance(entry.get("attempt"), int)
                 and entry.get("kind") in ("error", "timeout", "pool"),
                 f"{where}.retry_ledger entries must carry shard/attempt/kind/error")

    _require(isinstance(run["metrics"], dict), f"{where}.metrics must be an object")
    _require(run["result"] is None or isinstance(run["result"], dict),
             f"{where}.result must be an object or null")
    _require(run["checkpoint"] is None or isinstance(run["checkpoint"], dict),
             f"{where}.checkpoint must be an object or null")
