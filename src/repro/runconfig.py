"""``repro.runconfig`` — the unified execution context for the engine.

Every trial-based estimator in the library runs on the same sharded
Monte-Carlo engine, and the engine has ten execution knobs:
parallelism (``workers``/``shards``), fault tolerance
(``retries``/``timeout``/``checkpoint``), caching (``cache``),
observability (``manifest``/``trace``/``progress``), and the shard
result channel (``transport``).  Hand-threading
those through every estimator, sweep, and CLI path produced real bugs —
flags parsed but silently dropped on some paths — so :class:`RunConfig`
collapses them into one frozen, validated record with a **single
resolution point** (:meth:`RunConfig.resolve`):

>>> from repro.runconfig import RunConfig
>>> config = RunConfig(workers=4, retries=2)
>>> # estimate_non_manifestation(TSO, 2, 100_000, config=config)

Design rules:

* **One record, one resolve.**  ``resolve()`` validates every knob
  (an unknown ``transport`` name raises), so an invalid value fails
  loudly at the call site instead of being silently ignored downstream.
* **Experiment identity stays out.**  ``trials``/``seed``/model
  parameters are *what* is estimated; ``RunConfig`` is *how* the
  estimation executes.  Of its fields, only the resolved ``shards``
  enters a run's key (:func:`~repro.stats.checkpoint.plan_key`, which
  the engine derives from the plan, the label and the kernel it runs);
  everything else is a scheduling or observability concern that can
  never change a merged number.  Each estimator runs one kernel, so no
  knob picks it (``run_canonical_bug`` takes its machine as an argument
  of its own, ``backend=``).
* **One way in.**  ``config=`` is the only parameter that carries an
  engine knob: every estimator, sweep and engine entry point takes it
  keyword-only, and none takes a knob as a keyword of its own (the
  per-knob keyword aliases of the 1.x series were removed in 2.0).  See
  ``docs/API.md`` ("RunConfig") for the knob table.
* **The CLI builds exactly one.**  The CLI declares each engine flag
  from its field's metadata, :meth:`RunConfig.from_args` maps the parsed
  flags onto the config in one place, and every subcommand handler
  forwards ``args.run_config`` instead of hand-picking keywords, so a
  new knob is one field, not a repo-wide sweep.

This module imports nothing from the rest of the package at module
level (validators and the observer are imported lazily inside methods),
so any layer — stats engine, estimators, CLI, a future service front
end — can depend on it without import cycles.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # real types without runtime import cycles
    from repro.cache.store import ShardStore
    from repro.obs import RunObserver

__all__ = ["RunConfig"]


def positive_int(text: str) -> int:
    """``argparse`` type for count flags: a positive integer."""
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError  # only the CLI parses flags

        raise ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _knob(default: Any, cli: str, args: str | None = None,
          doc: str = "", **extra: Any) -> Any:
    """A ``RunConfig`` field with its CLI binding in the metadata.

    ``cli`` is the command-line flag serving the knob; ``args`` the
    ``argparse`` attribute it parses into when it differs from the field
    name; ``doc`` a one-line summary used to *generate* the flag's
    ``--help`` text, the README flag table and the ``--help`` epilog
    (see :meth:`RunConfig.flag_table_markdown`).
    ``extra`` holds the flag's parse-time ``argparse`` options
    (``type``, ``choices``, ``metavar``, ``action``).  The CLI declares
    every engine flag from this metadata alone, and the docs-consistency
    suite walks it to keep the config, the CLI, and ``docs/API.md`` from
    drifting apart.
    """
    metadata = {"cli": cli, "args": args or cli.lstrip("-").replace("-", "_"),
                "doc": doc}
    metadata.update(extra)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Every execution knob of the sharded engine, in one validated record.

    Fields (all optional — the default config is the historical serial
    behaviour of every estimator):

    ``workers``
        Worker processes (``None`` = one per CPU; ``1`` = serial).
    ``shards``
        Seed-disciplined shard count — part of a run's statistical
        identity.  ``None`` defaults to the fixed
        :data:`~repro.stats.parallel.DEFAULT_SHARDS` whenever
        parallelism is requested, never the worker count.
    ``retries`` / ``timeout``
        Fault tolerance: extra attempts per failed shard, and the
        per-shard pooled timeout in seconds.
    ``checkpoint``
        Directory of a shard store that never evicts: each finished
        shard is stored under the run key, and a re-run resumes.
    ``cache``
        Content-addressed shard result cache (``"auto"``, a directory,
        or a :class:`~repro.cache.ShardStore`).
    ``manifest`` / ``trace`` / ``progress``
        The observability knobs; :meth:`observer` derives the
        :class:`~repro.obs.RunObserver` they imply.
    ``transport``
        Shard result channel (``"auto"``/``"pickle"``/``"shm"``); a
        scheduling concern, absent from every key.
    """

    workers: int | None = _knob(
        1, "--workers", type=positive_int, metavar="N",
        doc="worker processes (`1` = serial; `None` = one per CPU)")
    shards: int | None = _knob(
        None, "--shards", type=positive_int, metavar="S",
        doc="seed-disciplined shard count — part of the run's statistical "
            "identity (unset: 16 fixed shards whenever parallelism is on)")
    retries: int = _knob(
        0, "--retries", type=int, metavar="R",
        doc="extra attempts per failed shard, with exponential backoff")
    timeout: float | None = _knob(
        None, "--shard-timeout", type=float, metavar="SEC",
        doc="per-shard timeout in seconds for pooled execution")
    checkpoint: str | Path | None = _knob(
        None, "--checkpoint", metavar="DIR",
        doc="directory that stores every completed shard and never evicts; "
            "re-runs resume the missing shards only")
    cache: "str | Path | ShardStore | None" = _knob(
        None, "--cache", metavar="DIR",
        doc="content-addressed shard result cache (`\"auto\"` or a directory)")
    manifest: str | Path | None = _knob(
        None, "--manifest", metavar="FILE",
        doc="append a validated run manifest (JSON) to this file")
    trace: str | Path | None = _knob(
        None, "--trace", metavar="FILE",
        doc="write a JSONL span trace of the run to this file")
    progress: bool | Callable[..., None] = _knob(
        False, "--progress", action="store_true",
        doc="live stderr progress line (shards done, trials/s, ETA), or a "
            "snapshot callback")
    transport: str = _knob(
        "auto", "--transport", choices=("auto", "pickle", "shm"),
        doc="shard result channel: `auto`, `pickle`, or `shm` (scheduling "
            "only — never changes a number)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_args(cls, args: Any) -> "RunConfig":
        """The config implied by parsed CLI ``args`` — the one builder.

        Reads each knob's ``argparse`` attribute (from the field
        metadata; missing attributes keep the field default, so the
        builder works for every subcommand regardless of which flags its
        parser declares) and validates the result.  Replaces the
        per-subcommand keyword lists that historically dropped flags.
        """
        values = {
            spec.name: getattr(args, spec.metadata["args"])
            for spec in fields(cls)
            if hasattr(args, spec.metadata["args"])
        }
        return cls(**values).resolve()

    @classmethod
    def cli_bindings(cls) -> dict[str, str]:
        """Field name -> CLI flag."""
        return {spec.name: spec.metadata["cli"] for spec in fields(cls)}

    @classmethod
    def flag_table_markdown(cls) -> str:
        """The canonical engine-knob table, generated from the fields.

        One markdown row per knob — field name, CLI flag, default, and
        the one-line ``doc`` from the field metadata.  The
        README embeds this table verbatim between ``engine-flags`` marker
        comments and the docs-consistency suite regenerates and compares
        it, so the flag table can never again lag a newly added knob
        (``--transport`` shipped with no README mention once).
        """
        lines = ["| knob | CLI flag | default | what it does |",
                 "|---|---|---|---|"]
        for spec in fields(cls):
            default = spec.default
            default_cell = f"`{default!r}`" if default is not None else "`None`"
            lines.append(f"| `{spec.name}` | `{spec.metadata['cli']}` "
                         f"| {default_cell} | {spec.metadata['doc']} |")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Wire format (the service API serialises configs as JSON)
    # ------------------------------------------------------------------

    #: Field name -> JSON types accepted on the wire.  ``bool`` must be
    #: listed before the ``int`` check bites (it subclasses ``int``), so
    #: fields that do not list it reject booleans explicitly.
    _WIRE_TYPES: ClassVar[dict[str, tuple[type, ...]]] = {
        "workers": (int, type(None)),
        "shards": (int, type(None)),
        "retries": (int,),
        "timeout": (int, float, type(None)),
        "checkpoint": (str, type(None)),
        "cache": (str, type(None)),
        "manifest": (str, type(None)),
        "trace": (str, type(None)),
        "progress": (bool,),
        "transport": (str,),
    }

    def to_json_dict(self) -> dict[str, Any]:
        """This config as a JSON-ready wire dict (every field, plain types).

        The wire format carries exactly the ten knob fields with
        JSON-native values: paths become strings, and fields holding
        live objects (a ``ShardStore``, a progress callback) raise
        ``TypeError`` — the wire is for
        configs a *client* can express, and live objects are
        process-local by nature.  The round-trip
        ``from_json_dict(json.loads(json.dumps(to_json_dict())))`` is
        byte-identical (tested field by field).
        """
        wire: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Path):
                value = str(value)
            allowed = self._WIRE_TYPES[spec.name]
            if bool not in allowed and isinstance(value, bool):
                raise TypeError(
                    f"RunConfig.{spec.name}={value!r} is not wire-representable")
            if not isinstance(value, allowed):
                raise TypeError(
                    f"RunConfig.{spec.name}={value!r} is not "
                    "wire-representable; serialise paths as strings and "
                    "keep live objects (stores, callbacks) "
                    "out of wire configs")
            wire[spec.name] = value
        return wire

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any],
                       base: "RunConfig | None" = None) -> "RunConfig":
        """Build (and validate) a config from a wire dict.

        ``payload`` may name any subset of the knob fields; unknown keys
        raise ``ValueError`` (a client typo must fail loudly, not
        silently drop a knob — the exact bug class ``RunConfig`` was
        built to kill) and wrongly-typed values raise ``TypeError``.
        Keys the payload *omits* keep the value from ``base`` (default:
        the all-defaults config) — this is how the service folds a
        request's config over the server's.  The result is validated via
        :meth:`resolve` before it is returned.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"wire config must be an object, got "
                            f"{type(payload).__name__}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown RunConfig field(s) on the wire: "
                             f"{unknown}; known fields: {sorted(known)}")
        for name, value in payload.items():
            allowed = cls._WIRE_TYPES[name]
            if ((bool not in allowed and isinstance(value, bool))
                    or not isinstance(value, allowed)):
                names = "/".join(t.__name__ for t in allowed)
                raise TypeError(f"RunConfig.{name} must be {names} on the "
                                f"wire, got {value!r}")
        start = base if base is not None else cls()
        merged = replace(start, **payload) if payload else start
        return merged.resolve()

    # ------------------------------------------------------------------
    # The single resolution point
    # ------------------------------------------------------------------

    def resolve(self) -> "RunConfig":
        """Validate every knob; returns the config itself.

        This is the engine's **single resolution point**: each driver
        calls it once, before any shard runs.  An unknown ``transport``
        name, non-positive ``workers``/``shards``, a non-positive or
        non-finite ``timeout`` (``nan``/``inf`` would fail every pooled
        shard), and negative ``retries`` raise ``ValueError``; a
        ``checkpoint`` that is not a path raises ``TypeError`` (the
        engine keys the store itself), and one that names an existing
        file — a pre-9.0 JSONL journal — raises ``ValueError``.
        """
        from .stats.transport import resolve_transport

        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got "
                             f"{self.timeout}")
        if not isinstance(self.checkpoint, (str, Path, type(None))):
            raise TypeError(f"checkpoint must be a directory path, got "
                            f"{type(self.checkpoint).__name__}")
        if self.checkpoint is not None and Path(self.checkpoint).is_file():
            raise ValueError(f"checkpoint {str(self.checkpoint)!r} is a file: "
                             "since 9.0 a checkpoint is a directory, and a "
                             "pre-9.0 journal cannot be resumed (delete it)")
        resolve_transport(self.transport)
        return self

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def observer(self, label: str = "") -> "RunObserver | None":
        """The :class:`~repro.obs.RunObserver` the observability knobs imply.

        ``None`` when ``manifest``/``trace``/``progress`` are all off —
        the engine's zero-overhead fast path.
        """
        from .obs import RunObserver

        return RunObserver.from_options(manifest=self.manifest,
                                        trace=self.trace,
                                        progress=self.progress, label=label)

    def resolved_shards(self) -> int:
        """The concrete shard count (``shards`` defaulted machine-independently)."""
        from .stats.parallel import resolve_shards

        return resolve_shards(self.workers, self.shards)
