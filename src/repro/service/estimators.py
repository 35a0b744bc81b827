"""The served estimator catalogue and the request-dedup identity.

The service exposes a *closed* catalogue of estimators — each an entry
in :data:`ESTIMATORS` pairing a name with a typed parameter schema, a
value check and a runner.  Params are validated with the same
strictness as the config wire format: unknown names, wrong types
(including ``bool`` where an ``int`` is expected), missing required
params, and values the library would refuse (an unknown model, a
probability out of range, a backend the machine cannot run) all raise
:class:`~repro.service.schemas.ServiceError` before a job is created.
The value checks are the library's own, so the two cannot drift.

:func:`job_key` is the cross-request dedup identity.  It hashes exactly
what determines the *numbers* a job produces: the estimator name, the
fully-defaulted params (so an omitted default and an explicitly-passed
default collide, as they must; ``canonical_bug``'s ``backend`` is one of
them), and the one config knob that enters the run key (``plan_key``):
the plan's shard field.  Scheduling knobs (workers, retries,
timeout, transport, observability) are deliberately absent: they can
never change a merged number, so they must never split a dedup class.
See ``docs/CACHING.md`` ("Cross-request dedup") for the contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ReproError
from ..runconfig import RunConfig
from .schemas import ServiceError

__all__ = ["ParamSpec", "EstimatorSpec", "ESTIMATORS", "validate_params",
           "job_key", "run_estimator"]


@dataclass(frozen=True)
class ParamSpec:
    """One estimator parameter: name, accepted JSON types, default, doc.

    ``required=True`` params have no default; for the rest ``default``
    is folded into the validated param dict, so every job record carries
    the *full* parameter set (dedup and reproducibility both need the
    defaulted form, not the sparse client payload).
    """

    name: str
    types: tuple[type, ...]
    doc: str
    required: bool = False
    default: Any = None

    def check(self, value: Any) -> Any:
        # bool subclasses int: accept it only where explicitly listed.
        if ((bool not in self.types and isinstance(value, bool))
                or not isinstance(value, self.types)):
            names = "/".join(t.__name__ for t in self.types)
            raise ServiceError(
                400, "bad-param",
                f"param {self.name!r} must be {names}, got {value!r}")
        return value


@dataclass(frozen=True)
class EstimatorSpec:
    """A served estimator: wire name, summary, param schema, check, runner.

    ``check`` takes the fully-defaulted param dict and raises the
    library's own error for a value the runner would refuse; it runs at
    submit, so a bad value never becomes a job.  ``runner`` takes the
    same dict and the job's resolved :class:`RunConfig` and returns the
    library result object (summarised onto the wire via
    :func:`repro.obs.summarise_result`).
    """

    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    check: Callable[[dict[str, Any]], None]
    runner: Callable[[dict[str, Any], RunConfig], Any]

    def describe(self) -> dict[str, Any]:
        """JSON-ready schema for ``GET /v1/estimators``."""
        return {
            "name": self.name,
            "summary": self.summary,
            "params": [
                {
                    "name": spec.name,
                    "types": [t.__name__ for t in spec.types],
                    "required": spec.required,
                    "default": None if spec.required else spec.default,
                    "doc": spec.doc,
                }
                for spec in self.params
            ],
        }


def _check_non_manifestation(params: dict[str, Any]) -> None:
    from ..core.manifestation import _check_joined_arguments
    from ..core.memory_models import get_model
    from ..core.shift import DEFAULT_SHIFT_RATIO
    from ..stats.intervals import _check_confidence
    from ..stats.montecarlo import _check_trials

    get_model(params["model"])
    _check_trials(params["trials"])
    _check_joined_arguments(params["n"], params["store_probability"],
                            DEFAULT_SHIFT_RATIO, params["body_length"])
    _check_confidence(params["confidence"])


def _run_non_manifestation(params: dict[str, Any], config: RunConfig) -> Any:
    from ..core.manifestation import estimate_non_manifestation
    from ..core.memory_models import get_model

    return estimate_non_manifestation(
        get_model(params["model"]),
        params["n"],
        params["trials"],
        seed=params["seed"],
        store_probability=params["store_probability"],
        body_length=params["body_length"],
        confidence=params["confidence"],
        config=config,
    )


def _check_canonical_bug(params: dict[str, Any]) -> None:
    from ..sim.executor import _race_kernel

    _race_kernel(params["model"], params["threads"], params["trials"],
                 params["body_length"], None, params["fenced"],
                 params["atomic"], params["confidence"], params["backend"], {})


def _run_canonical_bug(params: dict[str, Any], config: RunConfig) -> Any:
    from ..sim.executor import run_canonical_bug

    return run_canonical_bug(
        params["model"],
        params["threads"],
        params["trials"],
        seed=params["seed"],
        body_length=params["body_length"],
        fenced=params["fenced"],
        atomic=params["atomic"],
        confidence=params["confidence"],
        backend=params["backend"],
        config=config,
    )


def _check_litmus_explore(params: dict[str, Any]) -> None:
    from ..litmus import get_test
    from ..litmus.explore import _check_random_point, _machine
    from ..litmus.zoo import get_zoo_model
    from ..stats.montecarlo import _check_trials

    if params["mode"] not in ("exhaustive", "random"):
        raise ValueError(f"param 'mode' must be 'exhaustive' or 'random', "
                         f"got {params['mode']!r}")
    test = get_test(params["test"])
    model = get_zoo_model(params["model"])
    if params["mode"] == "random":
        _check_trials(params["trials"])
        _check_random_point(test, model)
    else:
        _machine(test, model)


def _run_litmus_explore(params: dict[str, Any], config: RunConfig) -> Any:
    from ..litmus import explore_exhaustive, explore_random, get_test
    from ..litmus.zoo import get_zoo_model

    if params["mode"] == "exhaustive":
        report = explore_exhaustive([get_test(params["test"])],
                                    [get_zoo_model(params["model"])],
                                    config=config)
        return report.to_json_dict()
    table = explore_random(params["test"], params["model"],
                           params["trials"], seed=params["seed"],
                           config=config)
    return table.to_json_dict()


def _family_spec(params: dict[str, Any]) -> Any:
    from ..litmus import FamilySpec

    return FamilySpec(
        threads=params["threads"],
        ops_per_thread=params["ops_per_thread"],
        addresses=params["addresses"],
        spacing=params["spacing"],
        fence_density=float(params["fence_density"]),
        store_fraction=float(params["store_fraction"]),
    )


def _check_litmus_family(params: dict[str, Any]) -> None:
    from ..litmus import generate_family
    from ..litmus.explore import _check_random_point
    from ..litmus.zoo import get_zoo_model
    from ..stats.intervals import _check_confidence
    from ..stats.montecarlo import _check_trials

    spec = _family_spec(params)
    model = get_zoo_model(params["model"])
    _check_trials(params["trials"])
    _check_confidence(params["confidence"])
    for test in generate_family(spec, params["count"], params["seed"]):
        _check_random_point(test, model)


def _run_litmus_family(params: dict[str, Any], config: RunConfig) -> Any:
    from ..litmus import sweep_family

    report = sweep_family(
        _family_spec(params), [params["model"]], count=params["count"],
        trials=params["trials"], seed=params["seed"],
        confidence=params["confidence"], config=config,
    )
    return report.to_json_dict()


_MODEL = ParamSpec("model", (str,), "memory model name (`SC`/`TSO`/`PSO`/`WO`)",
                   required=True)
_TRIALS = ParamSpec("trials", (int,), "Monte-Carlo trial budget",
                    required=True)
_SEED = ParamSpec("seed", (int,), "root seed of the deterministic run",
                  default=0)
_BODY = ParamSpec("body_length", (int,),
                  "instructions per thread body (the paper's k)", default=8)
_CONFIDENCE = ParamSpec("confidence", (float, int),
                        "Wilson interval confidence level", default=0.99)

#: Wire name -> served estimator.  A closed catalogue: the service never
#: imports estimators by client-supplied dotted path.
ESTIMATORS: dict[str, EstimatorSpec] = {
    "non_manifestation": EstimatorSpec(
        name="non_manifestation",
        summary="Pr[A] that a canonical data race does NOT manifest under "
                "the model's reordering semantics (the paper's §6 pipeline)",
        params=(
            _MODEL,
            _TRIALS,
            ParamSpec("n", (int,), "thread count", default=2),
            _SEED,
            ParamSpec("store_probability", (float, int),
                      "per-slot probability that an instruction is a store",
                      default=0.5),
            ParamSpec("body_length", (int,),
                      "instructions per thread body (the paper's k); the "
                      "served default is 8, where estimate_non_manifestation "
                      "and `repro thm62` use 96, so served numbers are not "
                      "thm62's unless 96 is passed", default=8),
            _CONFIDENCE,
        ),
        check=_check_non_manifestation,
        runner=_run_non_manifestation,
    ),
    "canonical_bug": EstimatorSpec(
        name="canonical_bug",
        summary="manifestation statistics of the canonical increment race "
                "executed on the operational machine model",
        params=(
            _MODEL,
            _TRIALS,
            ParamSpec("threads", (int,), "racing thread count", default=2),
            _SEED,
            _BODY,
            ParamSpec("fenced", (bool,),
                      "insert fences around the critical section",
                      default=False),
            ParamSpec("atomic", (bool,),
                      "make the increment atomic (race eliminated)",
                      default=False),
            _CONFIDENCE,
            ParamSpec("backend", (str,),
                      "the machine: 'scalar' (cycle-accurate, every model "
                      "and variant) or 'vectorized' (whole-array; racy "
                      "SC/TSO/PSO only)", default="scalar"),
        ),
        check=_check_canonical_bug,
        runner=_run_canonical_bug,
    ),
    "litmus_explore": EstimatorSpec(
        name="litmus_explore",
        summary="litmus exploration of one test under one model: the exact "
                "enumerated outcome set ('exhaustive', content-addressed in "
                "the shard cache) or a seed-disciplined outcome frequency "
                "table ('random')",
        params=(
            ParamSpec("test", (str,),
                      "litmus test name (`SB`/`MP`/`LB`/`IRIW`/...)",
                      required=True),
            _MODEL,
            ParamSpec("mode", (str,),
                      "'exhaustive' (exact outcome set) or 'random' "
                      "(sampled frequency table)", default="exhaustive"),
            ParamSpec("trials", (int,),
                      "random-mode trial budget (ignored by 'exhaustive')",
                      default=100_000),
            _SEED,
        ),
        check=_check_litmus_explore,
        runner=_run_litmus_explore,
    ),
    "litmus_family": EstimatorSpec(
        name="litmus_family",
        summary="manifestation brackets of a generated litmus-program "
                "family under one zoo model: seed-disciplined constrained "
                "random programs, sampled weak mass vs the enumerated SC "
                "baseline with Wilson intervals",
        params=(
            ParamSpec("model", (str,),
                      "zoo model name (`SC`/`TSO`/`PSO`/`WO`/`PSO-WB`/"
                      "`SC-NMCA`/`WO-NMCA`)", required=True),
            ParamSpec("threads", (int,), "threads per generated program",
                      default=2),
            ParamSpec("ops_per_thread", (int,),
                      "memory operations per thread (critical pair "
                      "included)", default=4),
            ParamSpec("addresses", (int,), "filler address-pool size",
                      default=2),
            ParamSpec("spacing", (int,),
                      "fillers strictly between the critical store and "
                      "load", default=0),
            ParamSpec("fence_density", (float, int),
                      "probability of a fence between consecutive "
                      "operations", default=0.0),
            ParamSpec("store_fraction", (float, int),
                      "probability a filler is a store", default=0.5),
            ParamSpec("count", (int,), "family members to generate",
                      default=4),
            ParamSpec("trials", (int,),
                      "sampling budget per family member", default=20_000),
            _SEED,
            _CONFIDENCE,
        ),
        check=_check_litmus_family,
        runner=_run_litmus_family,
    ),
}


def validate_params(estimator: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validate and *fully default* an estimator's params.

    Raises :class:`ServiceError` for an unknown estimator, unknown or
    wrongly-typed params, a missing required param, or a value the
    estimator's ``check`` refuses (400 ``bad-param`` carrying the
    library's message).  Returns the complete param dict (every schema
    entry present) — the canonical form both :func:`job_key` and the
    job record store, so dedup never depends on which defaults a client
    spelled out.
    """
    spec = ESTIMATORS.get(estimator)
    if spec is None:
        raise ServiceError(
            404, "unknown-estimator",
            f"unknown estimator {estimator!r}; "
            f"served: {sorted(ESTIMATORS)}")
    known = {p.name for p in spec.params}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ServiceError(
            400, "unknown-param",
            f"unknown param(s) for {estimator!r}: {unknown}; "
            f"known: {sorted(known)}")
    full: dict[str, Any] = {}
    for param in spec.params:
        if param.name in params:
            full[param.name] = param.check(params[param.name])
        elif param.required:
            raise ServiceError(
                400, "missing-param",
                f"estimator {estimator!r} requires param {param.name!r}")
        else:
            full[param.name] = param.default
    try:
        spec.check(full)
    except (ReproError, ValueError, KeyError) as error:
        message = error.args[0] if error.args else str(error)
        raise ServiceError(400, "bad-param", str(message)) from None
    return full


def job_key(estimator: str, params: dict[str, Any], config: RunConfig) -> str:
    """The dedup identity of a submission (sha256[:16], like ``plan_key``).

    Hashes the estimator name, the fully-defaulted params and the plan's
    shard field by the engine's own rule: ``None`` (the one-shard form
    of the default serial run) for ``workers=1`` with ``shards`` unset,
    else :meth:`~repro.runconfig.RunConfig.resolved_shards`.  So ``{}``
    and ``{"shards": 1}`` never share a job, while ``{"workers": 2}``
    and ``{"shards": 16}`` do.  Each estimator runs one kernel, chosen
    by its params alone (``canonical_bug``'s ``backend``), so the key
    never needs a config knob to tell two kernels apart.  Scheduling
    knobs never enter.
    """
    from ..stats.montecarlo import _plan_shards

    identity = {
        "estimator": estimator,
        "params": params,
        "shards": _plan_shards(config),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_estimator(estimator: str, params: dict[str, Any],
                  config: RunConfig) -> Any:
    """Execute a validated job: look up the runner and run it.

    ``params`` must already be the fully-defaulted dict from
    :func:`validate_params`; ``config`` the job's resolved config (the
    service has already folded in its managed checkpoint/cache/manifest
    paths).  Returns the library result object.
    """
    return ESTIMATORS[estimator].runner(params, config)
