"""Run manifests: journal completed shards, resume interrupted runs.

A production-scale trial budget can run for hours; an interruption (crash,
preemption, ctrl-C) must not discard the shards that already finished.
Because each shard of a :class:`~repro.stats.parallel.ShardPlan` is a pure
function of ``(seed, shards, i)`` *and the shard kernel*, a completed
shard's result is valid forever — so the engine can journal results as
they arrive and a resumed run can load the finished shards and execute
only the remainder, merging to **exactly** the result of an uninterrupted
run.

The journal is an append-only JSONL file.  Each line carries:

* ``key`` — the hex identity hash of the run (:func:`plan_key`), derived
  from ``(trials, shards, seed)``, a caller label, and — since format 2 —
  the **kernel fingerprint** (:func:`kernel_fingerprint`): a stable
  digest of the shard kernel's qualified name, compiled code, and bound
  closure parameters.  ``load`` ignores records whose key differs, so one
  file can safely accumulate several runs (e.g. one per memory model)
  without cross-contamination.
* ``shard`` — the shard index within the plan.
* ``data`` — the shard result, pickled and base64-encoded (shard results
  are library value objects — ``BernoulliResult``, numpy aggregates —
  not JSON-native).

Torn trailing lines (a crash mid-append) and undecodable payloads are
skipped on load — the affected shard simply re-executes, which is always
safe — and counted in :attr:`ShardCheckpoint.skipped_lines` so the engine
can surface recovery-vs-corruption to operators.

**Why the fingerprint exists.**  Format 1 deliberately omitted the trial
function from the key, so any two experiments colliding on
``(trials, shards, seed, label)`` silently reused each other's journaled
shards and merged wrong numbers.  Format 2 closes that hole: the
fingerprint digests the *computation* (function identity, code, bound
parameters — distinct kernel functions have distinct qualified names),
so a different kernel can never satisfy a shard from another
kernel's journal.  Mismatches are conservative by construction — a false
mismatch merely re-executes a shard; only a collision could merge wrong
numbers, and the fingerprint is a SHA-256 digest of the full closure.
Like any pickle-based format, only load checkpoint files you wrote
yourself.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import pickle
import re
import types
from pathlib import Path
from typing import Any

__all__ = ["CHECKPOINT_FORMAT", "plan_key", "kernel_fingerprint",
           "ShardCheckpoint"]

#: Journal format version, folded into every key: bumping it orphans old
#: records rather than misreading them.  Format 2 added the kernel
#: fingerprint; format-1 journals are orphaned by design (their shards
#: re-execute — always safe).
CHECKPOINT_FORMAT = 2

#: ``repr`` of live objects can embed memory addresses ("... at
#: 0x7f3a...") that change every process; scrub them so fingerprints are
#: stable across runs.
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def plan_key(trials: int, shards: int | None, seed: int | None, label: str = "",
             fingerprint: str = "") -> str:
    """The identity hash a run's journal, cache entries and manifest share.

    Two runs share a key exactly when they share the statistical identity
    ``(trials, shards, seed)``, the caller's ``label`` (free-text
    experiment salt) and the kernel ``fingerprint``
    (:func:`kernel_fingerprint` — the digest of what each shard actually
    computes).  The engine derives it in one place,
    :func:`repro.stats.parallel.run_sharded`, from the plan, the label
    and the kernel it runs.  The label is length-prefixed in the hash
    payload and the fingerprint is pure hex, so no concatenation of
    components can collide structurally with a different split of the
    same characters.
    """
    payload = (f"v{CHECKPOINT_FORMAT}:{trials}:{shards}:{seed!r}"
               f":{len(label)}:{label}:{fingerprint}")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _code_digest(code: types.CodeType) -> str:
    """Stable digest of a compiled function body.

    Hashes the bytecode, referenced names, and constants — recursing into
    nested code objects (comprehensions, inner functions) — while
    scrubbing memory addresses from constant reprs.  Stable across
    processes for a fixed interpreter; a new Python version may change
    bytecode and therefore the digest, which is the safe direction
    (re-execute, never reuse wrongly).
    """
    hasher = hashlib.sha256()

    def feed(obj: types.CodeType) -> None:
        hasher.update(obj.co_name.encode("utf-8"))
        hasher.update(obj.co_code)
        hasher.update(repr(obj.co_names).encode("utf-8"))
        for constant in obj.co_consts:
            if isinstance(constant, types.CodeType):
                feed(constant)
            else:
                hasher.update(_ADDRESS.sub("0x", repr(constant)).encode("utf-8"))

    feed(code)
    return hasher.hexdigest()


def _canonical(value: Any) -> str:
    """A stable, address-free textual form of a kernel parameter.

    Covers the parameter types the estimators actually bind into their
    shard kernels — scalars, containers, numpy arrays, dataclasses
    (memory models, schedulers), and callables — and falls back to a
    scrubbed ``repr`` for anything else.  Collisions here would reuse a
    wrong shard, so types that cannot be distinguished textually (two
    objects whose scrubbed reprs agree) must differ in type tag or field
    values to differ at all; mismatches merely re-execute.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical(item) for item in value)
        return f"{type(value).__name__}:[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_canonical(item) for item in value))
        return f"{type(value).__name__}:{{{inner}}}"
    if isinstance(value, dict):
        inner = ",".join(
            f"{key}={item}"
            for key, item in sorted((_canonical(k), _canonical(v))
                                    for k, v in value.items())
        )
        return f"dict:{{{inner}}}"
    try:
        import numpy as np
        if isinstance(value, np.ndarray):
            digest = hashlib.sha256(value.tobytes()).hexdigest()[:16]
            return f"ndarray:{value.dtype}:{value.shape}:{digest}"
        if isinstance(value, np.generic):
            return f"{type(value).__name__}:{value!r}"
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={_canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__module__}.{type(value).__qualname__}:({fields})"
    if isinstance(value, functools.partial) or callable(value):
        return _describe_callable(value)
    state = getattr(value, "__dict__", None)
    tag = f"{type(value).__module__}.{type(value).__qualname__}"
    if isinstance(state, dict) and state:
        fields = ",".join(f"{name}={_canonical(item)}"
                          for name, item in sorted(state.items()))
        return f"{tag}:({fields})"
    return f"{tag}:{_ADDRESS.sub('0x', repr(value))}"


def _describe_callable(kernel: Any) -> str:
    """Canonical description of a callable, unwrapping ``functools.partial``.

    A partial contributes its bound positional and keyword arguments plus
    the description of the wrapped callable (recursively — the estimators
    nest partials two deep).  Plain functions contribute module, qualified
    name, code digest, defaults, and closure cell contents; bound methods
    add the receiver; callable objects their type and state.
    """
    if isinstance(kernel, functools.partial):
        args = ",".join(_canonical(item) for item in kernel.args)
        keywords = ",".join(
            f"{name}={_canonical(item)}"
            for name, item in sorted(kernel.keywords.items())
        )
        return f"partial:({_describe_callable(kernel.func)};{args};{keywords})"
    if isinstance(kernel, types.MethodType):
        return (f"method:({_describe_callable(kernel.__func__)};"
                f"{_canonical(kernel.__self__)})")
    if isinstance(kernel, types.FunctionType):
        parts = [f"{kernel.__module__}.{kernel.__qualname__}",
                 _code_digest(kernel.__code__)]
        if kernel.__defaults__:
            parts.append(",".join(_canonical(item)
                                  for item in kernel.__defaults__))
        if kernel.__kwdefaults__:
            parts.append(",".join(f"{name}={_canonical(item)}"
                                  for name, item in
                                  sorted(kernel.__kwdefaults__.items())))
        if kernel.__closure__:
            cells = []
            for cell in kernel.__closure__:
                try:
                    cells.append(_canonical(cell.cell_contents))
                except ValueError:  # empty cell
                    cells.append("cell:empty")
            parts.append(",".join(cells))
        return "function:(" + ";".join(parts) + ")"
    if isinstance(kernel, (types.BuiltinFunctionType, types.BuiltinMethodType)):
        return f"builtin:{getattr(kernel, '__module__', '')}.{kernel.__qualname__}"
    tag = f"{type(kernel).__module__}.{type(kernel).__qualname__}"
    state = getattr(kernel, "__dict__", None)
    if isinstance(state, dict) and state:
        fields = ",".join(f"{name}={_canonical(item)}"
                          for name, item in sorted(state.items()))
        return f"callable:{tag}:({fields})"
    return f"callable:{tag}"


def kernel_fingerprint(kernel: Any, extra: Any = None) -> str:
    """A stable hex digest of a shard kernel's computational identity.

    The digest covers the kernel's qualified name, its compiled code, its
    defaults and closure, and — through recursive ``functools.partial``
    unwrapping — every parameter the estimators bound into it (trial
    function, memory model, thread count, batch size, the machine's
    kernel function, ...).  Two kernels that compute different things get
    different fingerprints; the same kernel fingerprints identically
    across processes and machines (memory addresses are scrubbed, hashes
    are SHA-256, no ``PYTHONHASHSEED`` dependence).

    ``extra`` optionally folds additional salt (any :func:`_canonical`-
    representable value) into the digest for callers whose identity is
    not fully captured by the callable itself.
    """
    payload = _describe_callable(kernel)
    if extra is not None:
        payload += "|" + _canonical(extra)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ShardCheckpoint:
    """An append-only JSONL journal of completed shard results for one run.

    ``key`` is the run's :func:`plan_key`; the engine opens the journal
    of a ``checkpoint=`` path as ``ShardCheckpoint(path, run_key)``.

    :attr:`skipped_lines` holds, after each :meth:`load`, the number of
    torn or undecodable journal lines that were dropped — zero for a
    healthy journal, positive when a crash tore the tail or the file was
    corrupted (the affected shards re-execute either way).
    """

    def __init__(self, path: str | Path, key: str):
        self.path = Path(path)
        self.key = key
        self.skipped_lines = 0

    def load(self) -> dict[int, Any]:
        """Completed shard results recorded under this run's key.

        Later records win on duplicate shard indices (an interrupted
        retry may journal a shard twice; both payloads are bit-identical
        by the purity argument, so either is correct).  Torn or
        undecodable lines are skipped and counted in
        :attr:`skipped_lines`; records keyed to other runs are invisible
        (and not counted — sharing one file across runs is normal).
        """
        results: dict[int, Any] = {}
        self.skipped_lines = 0
        if not self.path.exists():
            return results
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:  # torn tail from a crash mid-append
                    self.skipped_lines += 1
                    continue
                if not isinstance(record, dict) or record.get("key") != self.key:
                    continue
                try:
                    value = pickle.loads(base64.b64decode(record["data"]))
                    index = int(record["shard"])
                except Exception:  # undecodable payload: re-execute that shard
                    self.skipped_lines += 1
                    continue
                results[index] = value
        return results

    def record(self, shard: int, result: Any) -> None:
        """Append one completed shard's result (flushed immediately)."""
        payload = base64.b64encode(pickle.dumps(result)).decode("ascii")
        line = json.dumps({"key": self.key, "shard": int(shard), "data": payload})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardCheckpoint(path={str(self.path)!r}, key={self.key!r})"
