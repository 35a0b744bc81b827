"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
from dataclasses import fields

import pytest

import repro.cli as cli_module
from repro.cli import build_parser, main
from repro.runconfig import RunConfig


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestBadInputsAreUsageErrors:
    """A bad litmus or thm62 input exits 2 with one reason on stderr,
    before printing anything, like a rejected engine config (a
    conflicting family spec: ``test_litmus_generate.py``)."""

    @pytest.mark.parametrize("argv", [
        ["litmus", "generate", "--count", "0"],
        ["litmus", "generate", "--trials", "0"],
        ["litmus", "generate", "--models", "NOPE"],
        ["litmus", "generate", "--ops-per-thread", "16", "--addresses", "16",
         "--store-fraction", "1.0", "--models", "WO", "--count", "1"],
        ["litmus", "explore", "--mode", "random", "--tests", "NOPE"],
        ["litmus", "explore", "--models", "NOPE"],
        ["litmus", "explore", "--mode", "random", "--trials", "0"],
        ["thm62", "--trials", "-5"],
        ["--backend", "fused", "thm62", "--trials", "4000"],
        ["--backend", "vectorized", "thm62", "--trials", "10"],
        ["machine", "--backend", "gpu", "--trials", "10"],
        ["machine", "--backend", "vectorized", "--model", "WO",
         "--trials", "10"],
        ["machine", "--model", "XYZ", "--trials", "10"],
        ["machine", "--fenced", "--atomic", "--trials", "10"],
        ["machine", "--threads", "1", "--trials", "10"],
        ["machine", "--body-length", "-1", "--trials", "10"],
    ], ids=" ".join)
    def test_exits_2_without_output(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_refused_point_is_one_line_naming_the_model(self, capsys, mode):
        # 2+2W observes memory, which non-atomic stores leave undefined.
        with pytest.raises(SystemExit) as excinfo:
            main(["litmus", "explore", "--tests", "2+2W", "--models",
                  "WO-NMCA", "--mode", mode])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "WO-NMCA" in errors[0]

    @pytest.mark.parametrize("argv, flag", [
        (["--backend", "vectorized", "thm62"], "--backend"),
        (["--rng-plan", "philox", "thm62"], "--rng-plan"),
        (["--workers", "1", "--bogus", "thm62"], "--bogus"),
    ], ids=lambda value: value if isinstance(value, str) else " ".join(value))
    def test_unknown_leading_option_is_named(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "invalid choice" not in err

    def test_unknown_name_lists_the_known_ones(self, capsys):
        with pytest.raises(SystemExit):
            main(["litmus", "explore", "--tests", "NOPE"])
        assert "unknown litmus test 'NOPE'; known: 2+2W" \
            in capsys.readouterr().err

    def test_thm62_zero_trials_is_closed_form_only(self, capsys):
        out = run_cli(capsys, "thm62", "--trials", "0")
        assert "Pr[A]" in out and "monte carlo" not in out


class TestCommands:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "ST/LD" in out
        assert "TSO" in out

    def test_window_all_models(self, capsys):
        out = run_cli(capsys, "window", "--max-gamma", "2")
        assert "Pr[B] SC" in out

    def test_window_single_model(self, capsys):
        out = run_cli(capsys, "window", "--model", "wo", "--max-gamma", "3")
        assert "WO" in out
        assert "0.66667" in out

    def test_thm62_exact_only(self, capsys):
        out = run_cli(capsys, "thm62")
        assert "0.166667" in out
        assert "0.129630" in out

    def test_thm62_with_monte_carlo(self, capsys):
        out = run_cli(capsys, "thm62", "--trials", "20000", "--seed", "4")
        assert "monte carlo" in out

    def test_scaling(self, capsys):
        out = run_cli(capsys, "scaling", "--max-n", "8")
        assert "ln Pr[A] SC" in out
        assert "log-ratio" in out

    def test_litmus_matrix(self, capsys):
        out = run_cli(capsys, "litmus")
        assert "SB" in out and "IRIW" in out

    def test_litmus_single(self, capsys):
        out = run_cli(capsys, "litmus", "--test", "MP")
        assert "Message passing" in out
        assert "forbidden" in out

    def test_machine(self, capsys):
        out = run_cli(capsys, "machine", "--model", "SC", "--trials", "50",
                      "--body-length", "2")
        assert "SC n=2" in out

    def test_machine_atomic_never_manifests(self, capsys):
        out = run_cli(capsys, "machine", "--model", "WO", "--trials", "100",
                      "--atomic", "--body-length", "2")
        assert "manifests 0.000000" in out

    def test_fences(self, capsys):
        out = run_cli(capsys, "fences", "--model", "TSO", "--distances", "0", "4")
        assert "0.166667" in out

    def test_fleet(self, capsys):
        out = run_cli(capsys, "fleet", "SC", "WO")
        assert "0.148148" in out

    def test_fleet_approximate_flag(self, capsys):
        out = run_cli(capsys, "fleet", "TSO", "TSO", "SC", "--approximate")
        assert "Pr[A]" in out

    def test_critical_section(self, capsys):
        out = run_cli(capsys, "critical-section", "--lengths", "2", "4")
        assert "SC/WO ratio" in out

    def test_multibug(self, capsys):
        out = run_cli(capsys, "multibug", "--bugs", "1", "8")
        assert "SC/WO ratio" in out
        assert "0.166667" in out

    def test_experiments(self, capsys):
        out = run_cli(capsys, "experiments")
        assert "E1" in out and "E16" in out

    def test_verify(self, capsys):
        out = run_cli(capsys, "verify")
        assert "all 11 checks passed" in out
        assert "FAIL" not in out


class TestFaultToleranceFlags:
    def test_retries_and_timeout_accepted(self, capsys):
        out = run_cli(capsys, "--retries", "2", "--shard-timeout", "30",
                      "--workers", "2", "--shards", "4", "machine",
                      "--model", "SC", "--trials", "50", "--seed", "5")
        assert "bug manifests" in out

    def test_checkpoint_resume_reproduces_output(self, capsys, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        base = ["--shards", "6", "thm62", "--trials", "6000", "--seed", "13"]
        clean = run_cli(capsys, *base)
        first = run_cli(capsys, "--checkpoint", str(checkpoint), *base)
        assert first == clean
        entries = sorted(checkpoint.glob("??/*.pkl"))
        # One entry per shard per model estimate sharing the checkpoint.
        assert len(entries) == 24
        # Simulate an interrupted run: delete half the entries, resume.
        for entry in entries[: len(entries) // 2]:
            entry.unlink()
        resumed = run_cli(capsys, "--checkpoint", str(checkpoint), *base)
        assert resumed == clean
        assert len(list(checkpoint.glob("??/*.pkl"))) == 24

    def test_checkpoint_file_is_refused(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        journal.write_text('{"key": "0123456789abcdef", "shard": 0}\n')
        with pytest.raises(SystemExit) as exit_info:
            main(["--checkpoint", str(journal), "thm62", "--trials", "10"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("repro: error: checkpoint")
        assert "9.0" in error


    def test_cache_stats_on_a_checkpoint_names_no_cap_for_it(self, capsys, tmp_path):
        from repro.cache import DEFAULT_MAX_BYTES

        root = tmp_path / "run.ckpt"
        run_cli(capsys, "--checkpoint", str(root), "--shards", "4",
                "thm62", "--trials", "4000", "--seed", "3")
        lines = run_cli(capsys, "cache", "stats", "--dir", str(root)).splitlines()
        assert "entries       16" in lines
        cap = next(line for line in lines if line.startswith("size cap"))
        assert cap == (f"size cap      {DEFAULT_MAX_BYTES} under --cache; "
                       "none under --checkpoint, which never evicts")
        assert len(list(root.glob("??/*.pkl"))) == 16  # stats evicted nothing


class TestObservabilityFlags:
    def test_manifest_after_subcommand(self, capsys, tmp_path):
        from repro.obs import load_manifest

        manifest = tmp_path / "m.json"
        base = ["thm62", "--trials", "4000", "--seed", "3", "--shards", "4"]
        clean = run_cli(capsys, *base)
        observed = run_cli(capsys, *base, "--manifest", str(manifest))
        assert observed == clean  # manifests never change numbers
        document = load_manifest(manifest)
        assert [run["label"].split(":")[1] for run in document["runs"]] == [
            "SC", "TSO", "PSO", "WO",
        ]
        for run in document["runs"]:
            assert len(run["shards"]) == 4
            assert run["result"]["trials"] == 4000

    def test_manifest_flag_before_subcommand(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        run_cli(capsys, "--manifest", str(manifest), "machine",
                "--model", "SC", "--trials", "50", "--seed", "5",
                "--shards", "2")
        from repro.obs import load_manifest

        document = load_manifest(manifest)
        assert document["runs"][0]["label"].startswith("canonical:SC")

    @pytest.mark.parametrize("argv, progress", [
        pytest.param(["machine", "--model", "SC", "--trials", "50",
                      "--seed", "5", "--shards", "2"], "shards 2/2",
                     id="machine"),
        pytest.param(["thm62", "--trials", "2000", "--seed", "3"],
                     "shards 1/1", id="thm62"),
        pytest.param(["scaling", "--max-n", "3"], "shards 2/2",
                     id="scaling"),
        pytest.param(["critical-section", "--lengths", "2", "4"],
                     "shards 2/2", id="critical-section"),
        pytest.param(["litmus", "explore", "--tests", "SB", "--models", "TSO"],
                     "shards 1/1", id="litmus-explore"),
    ])
    def test_trace_and_progress(self, capsys, tmp_path, argv, progress):
        """Every observed command traces ``run`` > ``shards`` / ``merge``
        once per manifest run record."""
        import json

        from repro.obs import load_manifest

        trace, manifest = tmp_path / "spans.jsonl", tmp_path / "m.json"
        assert main([*argv, "--trace", str(trace), "--manifest",
                     str(manifest), "--progress"]) == 0
        captured = capsys.readouterr()
        runs = load_manifest(manifest)["runs"]
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        # Children close first, so each run is shards, merge, then run.
        assert [span["name"] for span in spans] == \
            ["shards", "merge", "run"] * len(runs)
        for span in spans:
            if span["name"] == "run":
                assert (span["depth"], span["parent"]) == (0, None)
            else:
                assert (span["depth"], span["parent"]) == (1, "run")
        assert progress in captured.err

    def test_scaling_accepts_progress(self, capsys):
        out = run_cli(capsys, "scaling", "--max-n", "4", "--progress")
        assert "ln Pr[A] SC" in out


#: Minimal valid argv per subcommand — one entry for every subcommand the
#: CLI exposes, so the RunConfig regression below cannot silently skip one.
SUBCOMMAND_ARGV = {
    "table1": ["table1"],
    "window": ["window", "--max-gamma", "2"],
    "thm62": ["thm62"],
    "scaling": ["scaling", "--max-n", "4"],
    "litmus": ["litmus"],
    "machine": ["machine", "--model", "SC", "--trials", "50",
                "--body-length", "2"],
    "fences": ["fences", "--distances", "0", "4"],
    "fleet": ["fleet", "SC", "WO"],
    "critical-section": ["critical-section", "--lengths", "2", "4"],
    "multibug": ["multibug", "--bugs", "1", "8"],
    "cache": ["cache", "stats"],
    "experiments": ["experiments"],
    "verify": ["verify"],
    "serve": ["serve", "--port", "0"],
}

#: Global engine flags with distinctive values, given *before* the
#: subcommand (the root parser serves every subcommand).
ENGINE_FLAGS = ["--workers", "2", "--shards", "3", "--retries", "1",
                "--shard-timeout", "30", "--transport", "shm"]


def _assert_probe_config(config: RunConfig) -> None:
    assert config.workers == 2
    assert config.shards == 3
    assert config.retries == 1
    assert config.timeout == 30.0
    assert config.transport == "shm"


class TestRunConfigFromArgs:
    """Every subcommand must carry the global engine flags into one
    RunConfig — the regression net for the historical dropped-flag bugs
    (e.g. ``scaling`` parsing an engine flag but never forwarding it)."""

    def test_every_subcommand_is_covered(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(SUBCOMMAND_ARGV)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_global_flags_reach_run_config(self, command):
        args = build_parser().parse_args(ENGINE_FLAGS + SUBCOMMAND_ARGV[command])
        _assert_probe_config(RunConfig.from_args(args))

    @pytest.mark.parametrize("command",
                             ["thm62", "scaling", "machine", "critical-section"])
    def test_engine_subcommands_accept_flags_after_subcommand(self, command):
        argv = SUBCOMMAND_ARGV[command] + ENGINE_FLAGS
        _assert_probe_config(RunConfig.from_args(build_parser().parse_args(argv)))

    def test_flag_after_subcommand_wins_over_root(self):
        args = build_parser().parse_args(
            ["--transport", "pickle", "thm62", "--transport", "shm"])
        assert RunConfig.from_args(args).transport == "shm"

    def test_invalid_workers_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workers", "0", "thm62"])

    def test_from_args_validates_the_built_config(self):
        args = build_parser().parse_args(["thm62"])
        args.workers = 0  # as if a flag validator were missing
        with pytest.raises(ValueError):
            RunConfig.from_args(args)

    @pytest.mark.parametrize("flag, value", [
        ("--shard-timeout", "nan"), ("--shard-timeout", "inf"),
        ("--shard-timeout", "-1"), ("--retries", "-1"),
    ])
    def test_rejected_config_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value, "thm62", "--trials", "100"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_flags_are_declared_from_the_config_metadata(self):
        parser = build_parser()
        declared = {action.option_strings[0]: action
                    for action in parser._actions if action.option_strings}
        for spec in fields(RunConfig):
            flag = spec.metadata["cli"]
            if flag is None:
                continue
            action = declared[flag]
            assert action.dest == spec.metadata["args"]
            assert action.default == spec.default
            assert action.help == spec.metadata["doc"].replace("`", "")
            assert action.choices == spec.metadata.get("choices")


class _Recording:
    """Delegating wrapper that records the ``config=`` each call received."""

    def __init__(self, real):
        self.real = real
        self.configs = []

    def __call__(self, *args, **kwargs):
        self.configs.append(kwargs.get("config"))
        return self.real(*args, **kwargs)


class TestHandlersForwardRunConfig:
    """Through the real ``main()``: the engine entry point each handler
    calls must receive the parsed flags via ``args.run_config``."""

    ENGINE_CALLS = [
        pytest.param("estimate_non_manifestation",
                     ["thm62", "--trials", "2000"], id="thm62"),
        pytest.param("thread_sweep", ["scaling", "--max-n", "4"], id="scaling"),
        pytest.param("run_canonical_bug",
                     ["machine", "--model", "SC", "--trials", "50",
                      "--body-length", "2"], id="machine"),
        pytest.param("critical_section_sweep",
                     ["critical-section", "--lengths", "2", "4"],
                     id="critical-section"),
    ]

    @pytest.mark.parametrize("entry_point, argv", ENGINE_CALLS)
    def test_handler_forwards_flags(self, capsys, monkeypatch, entry_point,
                                    argv):
        recorder = _Recording(getattr(cli_module, entry_point))
        monkeypatch.setattr(cli_module, entry_point, recorder)
        run_cli(capsys, "--retries", "1", "--shard-timeout", "30",
                "--transport", "pickle", *argv)
        assert recorder.configs  # the handler did call the engine
        for config in recorder.configs:
            assert config is not None
            assert config.retries == 1
            assert config.timeout == 30.0
            assert config.transport == "pickle"


class TestMachineBackend:
    """``repro machine --backend`` is run_canonical_bug's own argument,
    not an engine knob: it reaches the driver, never the RunConfig."""

    def test_backend_reaches_the_driver(self, capsys, monkeypatch):
        seen = []
        real = cli_module.run_canonical_bug

        def recording(*args, **kwargs):
            seen.append(kwargs["backend"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "run_canonical_bug", recording)
        argv = ["machine", "--model", "TSO", "--trials", "200"]
        scalar = run_cli(capsys, *argv)
        vectorized = run_cli(capsys, *argv, "--backend", "vectorized")
        # Both machines may print the same count, so the recorded
        # backends, not the printed lines, tell the two calls apart.
        assert seen == ["scalar", "vectorized"]
        assert scalar.strip() == str(real("TSO", 2, 200, backend="scalar"))
        assert vectorized.strip() == str(
            real("TSO", 2, 200, backend="vectorized"))
        assert not hasattr(RunConfig.from_args(build_parser().parse_args(
            argv + ["--backend", "vectorized"])), "backend")


class TestTransportFlag:
    def test_shm_transport_output_matches_pickle(self, capsys):
        base = ["--workers", "2", "--shards", "4", "machine", "--model", "SC",
                "--trials", "50", "--seed", "5", "--body-length", "2"]
        via_pickle = run_cli(capsys, "--transport", "pickle", *base)
        via_shm = run_cli(capsys, "--transport", "shm", *base)
        assert via_shm == via_pickle

    def test_shm_transport_thm62(self, capsys):
        base = ["thm62", "--trials", "4000", "--seed", "3", "--shards", "4"]
        clean = run_cli(capsys, *base)
        via_shm = run_cli(capsys, "--transport", "shm", *base)
        assert via_shm == clean
