"""Docs-consistency checks (tier 2, ``-m docs``).

The observability layer is only useful if its surface is documented: a
metric name you cannot look up, or a CLI flag missing from the API
reference, is operationally invisible.  These checks pin the public
``repro.obs`` surface, the metrics catalogue, and the engine CLI flags
to ``docs/API.md`` / ``docs/OBSERVABILITY.md`` so the docs cannot drift
from the code.  CI runs them as a dedicated step.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import build_parser
from repro.obs import METRICS_CATALOGUE

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = Path(__file__).resolve().parent.parent / "README.md"

pytestmark = pytest.mark.docs


@pytest.fixture(scope="module")
def api_text() -> str:
    return (DOCS / "API.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def obs_text() -> str:
    return (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def kernels_text() -> str:
    return (DOCS / "KERNELS.md").read_text(encoding="utf-8")


def test_every_obs_export_is_documented(api_text, obs_text):
    documented = api_text + obs_text
    missing = [name for name in obs.__all__ if name not in documented]
    assert not missing, (
        f"public repro.obs exports missing from docs/API.md and "
        f"docs/OBSERVABILITY.md: {missing}"
    )


def test_every_metric_is_catalogued_in_docs(obs_text):
    missing = [name for name in METRICS_CATALOGUE if name not in obs_text]
    assert not missing, (
        f"metrics missing from the docs/OBSERVABILITY.md catalogue: {missing}"
    )


def test_engine_cli_flags_are_documented(api_text, obs_text):
    documented = api_text + obs_text
    parser = build_parser()
    flags = [option
             for action in parser._actions
             for option in action.option_strings
             # argparse's automatic --help needs no documentation
             if option.startswith("--") and option != "--help"]
    missing = [flag for flag in flags if flag not in documented]
    assert not missing, f"root CLI flags missing from the docs: {missing}"


def test_observability_flags_in_readme():
    readme = README.read_text(encoding="utf-8")
    for flag in ("--manifest", "--progress"):
        assert flag in readme, f"README lacks the {flag} observe-a-run example"


def test_docs_cross_link_each_other(api_text, obs_text):
    assert "OBSERVABILITY.md" in api_text
    assert "API.md" in obs_text
    readme = README.read_text(encoding="utf-8")
    assert "docs/OBSERVABILITY.md" in readme


def test_every_kernel_export_is_documented(api_text, kernels_text):
    import repro.kernels as kernels

    documented = api_text + kernels_text
    missing = [name for name in kernels.__all__ if name not in documented]
    assert not missing, (
        f"public repro.kernels exports missing from docs/API.md and "
        f"docs/KERNELS.md: {missing}"
    )


def test_kernel_catalogue_matches_kernels_doc(kernels_text):
    from repro.kernels import KERNEL_CATALOGUE

    for kernel, (artifact, _summary) in KERNEL_CATALOGUE.items():
        assert kernel in kernels_text, (
            f"kernel {kernel} missing from docs/KERNELS.md catalogue"
        )
        assert artifact in kernels_text, (
            f"paper artifact {artifact!r} ({kernel}) missing from "
            f"docs/KERNELS.md"
        )


def test_backend_flag_and_e20_documented(api_text, kernels_text):
    from repro.reporting import get_experiment

    e20 = get_experiment("E20")
    assert e20.modules == ("repro.kernels",)
    experiments = (README.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "## E20" in experiments, "EXPERIMENTS.md lacks the E20 section"
    assert e20.bench in experiments
    for text, where in ((api_text, "docs/API.md"),
                        (kernels_text, "docs/KERNELS.md")):
        assert "--backend" in text, f"{where} lacks the --backend flag"
    readme = README.read_text(encoding="utf-8")
    assert "--backend" in readme, "README lacks a --backend example"
    assert "docs/KERNELS.md" in readme


def test_run_event_trials_documented(api_text):
    """``run_event_trials`` is documented; its old alias is not exported."""
    import repro.stats as stats
    import repro.stats.montecarlo as montecarlo

    assert "run_event_trials" in api_text
    assert "estimate_event" in api_text, (
        "docs/API.md should record that the estimate_event alias was removed"
    )
    for module in (stats, montecarlo):
        assert "estimate_event" not in module.__all__
        assert not hasattr(module, "estimate_event")


def test_estimate_event_only_ever_described_as_alias():
    """Prose may mention ``estimate_event`` only as the *removed* alias.

    The alias of ``run_event_trials`` was removed in 2.0.0; any line
    presenting the old name as current API is a regression.  Every line
    naming it must say "removed".
    """
    offenders = []
    for path in sorted(DOCS.glob("*.md")) + [README]:
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if "estimate_event" in line and "removed" not in line.lower():
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert not offenders, (
        "estimate_event mentioned as if it were current API "
        f"(say 'removed' on the same line): {offenders}"
    )


@pytest.fixture(scope="module")
def caching_text() -> str:
    return (DOCS / "CACHING.md").read_text(encoding="utf-8")


def test_cache_surface_is_documented(api_text, caching_text):
    import repro.cache as cache

    documented = api_text + caching_text
    missing = [name for name in cache.__all__ if name not in documented]
    assert not missing, (
        f"public repro.cache exports missing from docs/API.md and "
        f"docs/CACHING.md: {missing}"
    )
    for needle in ("--cache", "repro cache", "kernel_fingerprint",
                   "v2", "v1"):
        assert needle in caching_text, f"docs/CACHING.md lacks {needle!r}"
    # The three maintenance actions of the `repro cache` subcommand.
    for action in ("stats", "clear", "verify"):
        assert f"cache {action}" in caching_text


def test_caching_doc_is_cross_linked(api_text, obs_text, kernels_text,
                                     caching_text):
    for text, where in ((api_text, "docs/API.md"),
                        (obs_text, "docs/OBSERVABILITY.md"),
                        (kernels_text, "docs/KERNELS.md")):
        assert "CACHING.md" in text, f"{where} does not link docs/CACHING.md"
    for target in ("API.md", "KERNELS.md", "OBSERVABILITY.md"):
        assert target in caching_text
    readme = README.read_text(encoding="utf-8")
    assert "docs/CACHING.md" in readme
    assert "--cache" in readme, "README lacks a --cache example"


def test_runconfig_fields_in_api_table_and_cli(api_text):
    """Every RunConfig knob must appear in the docs/API.md "RunConfig"
    table and carry a live CLI flag.

    ``RunConfig.cli_bindings()`` is the source of truth: adding a field
    without documenting it, or binding it to a flag the parser does not
    actually declare, fails here.
    """
    from repro.runconfig import RunConfig

    assert "## RunConfig" in api_text, "docs/API.md lacks a RunConfig section"
    table = api_text[api_text.index("## RunConfig"):]
    parser_flags = {option
                    for action in build_parser()._actions
                    for option in action.option_strings
                    if option.startswith("--")}
    problems = []
    for name, flag in RunConfig.cli_bindings().items():
        if f"`{name}`" not in table:
            problems.append(f"field {name!r} missing from the RunConfig table")
        if flag not in parser_flags:
            problems.append(f"field {name!r} bound to {flag} but the CLI "
                            "parser does not declare that flag")
        if flag not in table:
            problems.append(f"flag {flag} ({name!r}) missing from the "
                            "RunConfig table")
    assert not problems, "; ".join(problems)


def test_runconfig_examples_migrated(api_text, obs_text, caching_text):
    """The canonical docs teach ``config=`` as the one way to pass knobs."""
    readme = README.read_text(encoding="utf-8")
    for text, where in ((readme, "README.md"),
                        (api_text, "docs/API.md"),
                        (obs_text, "docs/OBSERVABILITY.md"),
                        (caching_text, "docs/CACHING.md")):
        assert "RunConfig" in text, f"{where} never mentions RunConfig"
    flat_api = " ".join(api_text.split())
    assert "`config=` is the only way to pass engine knobs" in flat_api, (
        "docs/API.md must state that config= is the only way to pass "
        "engine knobs"
    )
    assert "config=" in readme, "README lacks a config= example"


@pytest.fixture(scope="module")
def litmus_text() -> str:
    return (DOCS / "LITMUS.md").read_text(encoding="utf-8")


def test_litmus_doc_and_e23_documented(litmus_text):
    from repro.reporting import get_experiment

    e23 = get_experiment("E23")
    assert e23.modules == ("repro.litmus.explore", "repro.litmus.robustness")
    experiments = (README.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "## E23" in experiments, "EXPERIMENTS.md lacks the E23 section"
    assert e23.bench in experiments
    # The engine surface a reader must be able to look up.
    for needle in ("explore_exhaustive", "explore_random",
                   "robustness_report", "program_digest",
                   "enumerator_fingerprint", "explore_entry_key",
                   "check_convergence", "test_litmus_law.py",
                   "litmus explore", "--robustness", "--mode", "--trials",
                   "explore.grid_points", "explore.outcomes_total",
                   "litmus_explore", "BENCH_litmus_explore.json"):
        assert needle in litmus_text, f"docs/LITMUS.md lacks {needle!r}"
    readme = README.read_text(encoding="utf-8")
    assert "litmus explore" in readme, "README lacks a litmus explore example"


def test_family_doc_and_e24_documented(litmus_text, api_text):
    from repro.reporting import get_experiment

    e24 = get_experiment("E24")
    assert e24.modules == ("repro.litmus.generate", "repro.litmus.zoo")
    experiments = (README.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "## E24" in experiments, "EXPERIMENTS.md lacks the E24 section"
    assert e24.bench in experiments
    # The generator/zoo surface a reader must be able to look up.
    for needle in ("FamilySpec", "family_member", "generate_family",
                   "family_digests", "sweep_family", "get_zoo_model",
                   "PSO-WB", "SC-NMCA", "WO-NMCA", "model_digest",
                   "GENERATOR_LANE", "enumerate_outcomes_buffered",
                   "test_litmus_oracles.py", "repro.litmus.core",
                   "litmus generate", "--spacing", "--fence-density",
                   "litmus_family", "--family-trials",
                   "BENCH_litmus_family.json"):
        assert needle in litmus_text, f"docs/LITMUS.md lacks {needle!r}"
    # The exports land in the API reference too.
    for needle in ("FamilySpec", "sweep_family", "get_zoo_model",
                   "repro.litmus.core", "model_digest",
                   "ATOMICITY_FLAVORS", "litmus generate"):
        assert needle in api_text, f"docs/API.md lacks {needle!r}"
    # The write-buffer executor is a test oracle, not an export.
    import repro.litmus

    assert "enumerate_outcomes_buffered" not in repro.litmus.__all__
    assert "enumerate_outcomes_buffered" not in api_text, (
        "docs/API.md still lists the write-buffer oracle as an export")
    readme = README.read_text(encoding="utf-8")
    assert "litmus generate" in readme, "README lacks a litmus generate example"
    assert "BENCH_litmus_family.json" in readme


def test_litmus_doc_is_cross_linked(litmus_text, api_text, caching_text,
                                    obs_text):
    for target in ("API.md", "CACHING.md", "OBSERVABILITY.md"):
        assert target in litmus_text
    assert "LITMUS.md" in caching_text or "LITMUS.md" in api_text, (
        "neither docs/API.md nor docs/CACHING.md links docs/LITMUS.md"
    )


def test_cache_flag_and_e21_documented(api_text):
    from repro.reporting import get_experiment

    e21 = get_experiment("E21")
    assert e21.modules == ("repro.cache", "repro.stats.checkpoint")
    experiments = (README.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "## E21" in experiments, "EXPERIMENTS.md lacks the E21 section"
    assert e21.bench in experiments
    assert "--cache" in api_text, "docs/API.md lacks the --cache flag"


# ---------------------------------------------------------------------------
# The estimation service (docs/SERVICE.md) and the generated flag surfaces.


@pytest.fixture(scope="module")
def service_text() -> str:
    return (DOCS / "SERVICE.md").read_text(encoding="utf-8")


def test_service_routes_match_docs_both_ways(service_text):
    """docs/SERVICE.md's route table IS the live route table.

    Every route the server dispatches must appear in SERVICE.md as
    `` `METHOD /v1/path` ``, and every such route string in SERVICE.md
    must exist in ``repro.service.server.ROUTES`` — documenting a
    phantom endpoint fails just like shipping an undocumented one.
    """
    import re

    from repro.service.server import ROUTES

    live = {f"{method} {path}" for method, path, _purpose in ROUTES}
    documented = set(re.findall(r"`((?:GET|POST|PUT|DELETE|PATCH) /v1/[^`]*)`",
                                service_text))
    undocumented = live - documented
    phantom = documented - live
    assert not undocumented, (
        f"routes served but missing from docs/SERVICE.md: {sorted(undocumented)}"
    )
    assert not phantom, (
        f"routes documented in docs/SERVICE.md but not served: {sorted(phantom)}"
    )


def test_every_service_export_is_documented(api_text, service_text):
    import repro.service as service

    documented = api_text + service_text
    missing = [name for name in service.__all__ if name not in documented]
    assert not missing, (
        f"public repro.service exports missing from docs/API.md and "
        f"docs/SERVICE.md: {missing}"
    )


def test_service_metrics_and_states_documented(service_text, obs_text):
    from repro.service import JOB_STATES

    service_metrics = [name for name in METRICS_CATALOGUE
                       if name.startswith("service.")]
    assert service_metrics, "the service.* metrics left the catalogue"
    for name in service_metrics:
        assert name in service_text, f"docs/SERVICE.md lacks metric {name}"
        assert name in obs_text, f"docs/OBSERVABILITY.md lacks metric {name}"
    for state in JOB_STATES:
        assert state in service_text, f"docs/SERVICE.md lacks job state {state!r}"


def test_serve_cli_flags_documented(service_text):
    """Every serve-specific flag appears in docs/SERVICE.md.

    The ``serve`` subparser also inherits the shared engine flags
    (``--workers``, ``--cache``, ...); those are documented centrally
    (README table, docs/API.md) and excluded here.
    """
    import argparse

    from repro.runconfig import RunConfig

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    serve = subparsers.choices["serve"]
    engine_flags = set(RunConfig.cli_bindings().values())
    flags = [option
             for action in serve._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"
             and option not in engine_flags]
    assert "--state-dir" in flags, "serve lost its --state-dir flag"
    missing = [flag for flag in flags if flag not in service_text]
    assert not missing, f"serve flags missing from docs/SERVICE.md: {missing}"


def test_service_doc_is_cross_linked(api_text, obs_text, caching_text,
                                     service_text):
    for text, where in ((api_text, "docs/API.md"),
                        (obs_text, "docs/OBSERVABILITY.md"),
                        (caching_text, "docs/CACHING.md")):
        assert "SERVICE.md" in text, f"{where} does not link docs/SERVICE.md"
    for target in ("API.md", "CACHING.md", "OBSERVABILITY.md"):
        assert target in service_text
    readme = README.read_text(encoding="utf-8")
    assert "docs/SERVICE.md" in readme
    assert "repro serve" in readme, "README lacks a repro serve example"


def test_caching_doc_covers_cross_request_dedup(caching_text):
    assert "## Cross-request dedup" in caching_text, (
        "docs/CACHING.md lost the cross-request dedup section"
    )
    section = caching_text[caching_text.index("## Cross-request dedup"):]
    for needle in ("job_key", "resolved_shards", "backend", "fingerprint",
                   "false merge", "dedup"):
        assert needle in section, (
            f"the CACHING.md dedup section lacks {needle!r}"
        )


def test_readme_flag_table_is_generated(service_text):
    """The README engine-flag table is the exact output of
    ``RunConfig.flag_table_markdown()`` — regenerating is the only way
    to edit it, so it cannot lag the code."""
    from repro.runconfig import RunConfig

    readme = README.read_text(encoding="utf-8")
    begin = "<!-- engine-flags:begin"
    end = "<!-- engine-flags:end -->"
    assert begin in readme and end in readme, (
        "README lost its engine-flags markers"
    )
    start = readme.index(begin)
    start = readme.index("\n", start) + 1
    block = readme[start:readme.index(end)].strip()
    assert block == RunConfig.flag_table_markdown().strip(), (
        "README engine-flag table drifted from "
        "RunConfig.flag_table_markdown() — regenerate the block"
    )


def test_help_epilog_is_generated_from_cli_bindings():
    """``repro --help`` ends with every bound engine flag and its doc
    line, straight from the RunConfig field metadata."""
    from repro.runconfig import RunConfig

    epilog = build_parser().epilog
    assert epilog, "the root parser lost its engine-flags epilog"
    for name, flag in RunConfig.cli_bindings().items():
        assert flag in epilog, (
            f"--help epilog lacks {flag} (RunConfig field {name!r})"
        )


def test_readme_documentation_map_links_every_doc():
    readme = README.read_text(encoding="utf-8")
    assert "## Documentation map" in readme, (
        "README lacks the Documentation map section"
    )
    section = readme[readme.index("## Documentation map"):]
    for doc in sorted(path.name for path in DOCS.glob("*.md")):
        assert f"docs/{doc}" in section, (
            f"README Documentation map does not link docs/{doc}"
        )
