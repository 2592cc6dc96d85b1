"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestAlgos:
    def test_lists_registered_algorithms(self, capsys) -> None:
        assert main(["algos"]) == 0
        out = capsys.readouterr().out
        for name in ("pef3+", "pef2", "pef1", "keep-direction"):
            assert name in out


class TestRun:
    def test_run_prints_report(self, capsys) -> None:
        code = main(
            [
                "run",
                "--algo",
                "pef3+",
                "--n",
                "6",
                "--k",
                "3",
                "--schedule",
                "eventually-missing@0",
                "--rounds",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "covered: True" in out
        assert "towers:" in out

    def test_run_with_diagram(self, capsys) -> None:
        code = main(
            [
                "run",
                "--algo",
                "pef1",
                "--n",
                "2",
                "--k",
                "1",
                "--schedule",
                "static",
                "--rounds",
                "20",
                "--diagram",
            ]
        )
        assert code == 0
        assert "t " in capsys.readouterr().out

    def test_unknown_schedule_fails_cleanly(self, capsys) -> None:
        code = main(
            ["run", "--algo", "pef1", "--n", "4", "--k", "1", "--schedule", "nope"]
        )
        assert code == 2
        assert "unknown schedule" in capsys.readouterr().err


class TestVerify:
    def test_explorable_instance(self, capsys) -> None:
        assert main(["verify", "--algo", "pef2", "--n", "3", "--k", "2"]) == 0
        assert "EXPLORES" in capsys.readouterr().out

    def test_trapped_instance_prints_certificate(self, capsys) -> None:
        assert main(["verify", "--algo", "pef1", "--n", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "TRAPPED" in out
        assert "cycle" in out

    def test_save_writes_replayable_certificate(self, tmp_path, capsys) -> None:
        target = tmp_path / "trap.json"
        code = main(
            ["verify", "--algo", "pef1", "--n", "3", "--k", "1", "--save", str(target)]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out

        from repro.robots.algorithms import PEF1
        from repro.serialize import loads
        from repro.verification.certificates import TrapCertificate, validate_certificate

        restored = loads(target.read_text())
        assert isinstance(restored, TrapCertificate)
        validate_certificate(restored, PEF1())

    def test_save_on_explorable_instance_warns(self, tmp_path, capsys) -> None:
        target = tmp_path / "none.json"
        code = main(
            ["verify", "--algo", "pef1", "--n", "2", "--k", "1", "--save", str(target)]
        )
        assert code == 0
        assert "nothing to save" in capsys.readouterr().err
        assert not target.exists()

    def test_ssync_scheduler_flag(self, tmp_path, capsys) -> None:
        # pef2 with k=2 explores the 3-ring under FSYNC but loses to the
        # SSYNC activation adversary; the saved certificate must carry
        # the activation sets and re-validate through the SSYNC engine.
        target = tmp_path / "ssync-trap.json"
        code = main(
            ["verify", "--algo", "pef2", "--n", "3", "--k", "2",
             "--scheduler", "ssync", "--save", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TRAPPED" in out
        assert "[ssync]" in out
        assert "activations" in out

        from repro.robots.algorithms import PEF2
        from repro.serialize import loads
        from repro.verification.certificates import validate_certificate

        restored = loads(target.read_text())
        assert restored.scheduler == "ssync"
        validate_certificate(restored, PEF2())


class TestSweep:
    def test_single_robot_sweep_smoke(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "1", "--n", "3", "--backend", "packed",
             "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "256/256 trapped" in out
        assert "ALL TRAPPED" in out

    def test_two_robot_sampled_sweep_with_json(self, tmp_path, capsys) -> None:
        target = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--robots", "2", "--n", "4", "--sample", "8",
             "--jobs", "2", "--json", str(target)]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out

        import json

        payload = json.loads(target.read_text())
        assert payload["total"] == 8
        assert payload["trapped"] == 8
        assert payload["all_trapped"] is True
        # --backend defaults to auto; the payload records the *resolved*
        # substrate so the JSON names what actually ran.
        from repro.verification.backends import resolve_solver_backend

        assert payload["backend"] == resolve_solver_backend("auto")

    def test_json_records_resolved_jobs_when_omitted(self, tmp_path) -> None:
        # Like the backend, the payload names the worker count that ran,
        # not the unset flag.
        from repro.verification.families import available_cpus

        target = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--robots", "1", "--n", "3", "--json", str(target)]
        ) == 0
        import json

        payload = json.loads(target.read_text())
        assert payload["jobs"] == available_cpus()
        assert payload["total"] == 256

    def test_one_seed_flag(self, capsys) -> None:
        # --rng-seed is the only sampling seed; --seed belongs to `run`.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--robots", "2", "--n", "4", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_ssync_sweep_smoke(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "2", "--n", "4", "--sample", "6",
             "--scheduler", "ssync", "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6/6 trapped" in out
        assert "[ssync]" in out

    def test_object_backend_selectable(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "2", "--n", "4", "--sample", "2",
             "--backend", "object", "--jobs", "1"]
        )
        assert code == 0
        assert "2/2 trapped" in capsys.readouterr().out

    def test_memory2_sampling_mode(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "2", "--n", "4", "--memory", "2",
             "--sample", "6", "--rng-seed", "99", "--jobs", "1"]
        )
        assert code == 0
        assert "memory-2" in capsys.readouterr().out

    def test_memory2_requires_two_robots(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "1", "--n", "3", "--memory", "2",
             "--sample", "4", "--jobs", "1"]
        )
        assert code == 2
        assert "--robots 2" in capsys.readouterr().err

    def test_memory2_refuses_full(self, capsys) -> None:
        code = main(
            ["sweep", "--robots", "2", "--n", "4", "--memory", "2",
             "--full", "--jobs", "1"]
        )
        assert code == 2
        assert "cannot be exhausted" in capsys.readouterr().err


class TestCampaign:
    def test_list_names_registered_scenarios(self, capsys) -> None:
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("thm51-single-n3", "thm41-two-n5", "selfstab-ill-two-n4",
                     "live-two-n4"):
            assert name in out

    def test_run_status_report_cycle(self, tmp_path, capsys) -> None:
        store = str(tmp_path / "campaigns")
        args = ["--store", store, "--jobs", "1"]
        code = main(["campaign", "run", "thm51-single-n3", *args])
        assert code == 0
        assert "256/256 trapped" in capsys.readouterr().out

        assert main(["campaign", "status", "thm51-single-n3", *args]) == 0
        assert "complete" in capsys.readouterr().out

        assert main(["campaign", "report", "thm51-single-n3", *args]) == 0

        import json

        report = json.loads(capsys.readouterr().out)
        assert report["all_trapped"] is True
        assert report["total"] == 256

        # A repeat run is a cache hit: zero chunks re-verified.
        assert main(["campaign", "run", "thm51-single-n3", *args]) == 0
        assert "ran 0 chunks, 8 cached" in capsys.readouterr().out

    def test_sliced_run_reports_progress(self, tmp_path, capsys) -> None:
        store = str(tmp_path / "campaigns")
        args = ["--store", store, "--jobs", "1"]
        code = main(
            ["campaign", "run", "thm51-single-n3", "--max-chunks", "3", *args]
        )
        assert code == 1  # incomplete campaigns exit non-zero
        assert "3/8 chunks" in capsys.readouterr().out
        code = main(["campaign", "report", "thm51-single-n3", *args])
        assert code == 1
        assert "incomplete" in capsys.readouterr().err

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys) -> None:
        code = main(
            ["campaign", "run", "thm0-nope", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_status_on_corrupt_store_fails_cleanly(self, tmp_path, capsys) -> None:
        store = str(tmp_path / "campaigns")
        args = ["--store", store, "--jobs", "1"]
        assert main(
            ["campaign", "run", "thm51-single-n3", "--max-chunks", "2", *args]
        ) == 1
        capsys.readouterr()
        from repro.scenarios import ResultStore, get_scenario

        log = ResultStore(store).chunks_path(get_scenario("thm51-single-n3"))
        lines = log.read_text().splitlines()
        log.write_text('{"torn\n' + "\n".join(lines) + "\n")
        code = main(["campaign", "status", "thm51-single-n3", *args])
        assert code == 3  # EXIT_CORRUPT: operator intervention (fsck)
        assert "corrupt" in capsys.readouterr().err

    def test_fsck_salvages_corrupt_store_and_run_resumes(
        self, tmp_path, capsys
    ) -> None:
        store = str(tmp_path / "campaigns")
        args = ["--store", store, "--jobs", "1"]
        assert main(
            ["campaign", "run", "thm51-single-n3", "--max-chunks", "2", *args]
        ) == 1
        capsys.readouterr()
        from repro.scenarios import ResultStore, get_scenario

        log = ResultStore(store).chunks_path(get_scenario("thm51-single-n3"))
        lines = log.read_text().splitlines()
        log.write_text('{"torn\n' + "\n".join(lines) + "\n")
        assert main(["campaign", "fsck", "thm51-single-n3", *args]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out and ".corrupt-1" in out
        # The strict paths work again, and the run completes cleanly.
        assert main(["campaign", "status", "thm51-single-n3", *args]) == 0
        assert main(["campaign", "run", "thm51-single-n3", *args]) == 0

    def test_degraded_run_report_and_retry_failed(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        import json

        from repro.scenarios import FAULT_PLAN_ENV_VAR

        store = str(tmp_path / "campaigns")
        args = ["--store", store, "--jobs", "1"]
        monkeypatch.setenv(
            FAULT_PLAN_ENV_VAR, json.dumps({"seed": 1, "crash_chunks": [5]})
        )
        code = main(
            ["campaign", "run", "thm51-single-n3", "--max-attempts", "2", *args]
        )
        assert code == 4  # EXIT_DEGRADED, not a crash
        assert "quarantined [5]" in capsys.readouterr().out
        # A clean report is withheld; the partial one is explicit.
        assert main(["campaign", "report", "thm51-single-n3", *args]) == 4
        assert "retry-failed" in capsys.readouterr().err
        assert main(
            ["campaign", "report", "thm51-single-n3", "--allow-degraded", *args]
        ) == 0
        partial = json.loads(capsys.readouterr().out)
        assert partial["degraded"] is True
        assert partial["failed_chunks"] == [5]
        assert partial["all_trapped"] is False
        # retry-failed under no plan heals exactly the quarantined chunk.
        monkeypatch.delenv(FAULT_PLAN_ENV_VAR)
        assert main(["campaign", "retry-failed", "thm51-single-n3", *args]) == 0
        assert "ran 1 chunks, 7 cached" in capsys.readouterr().out
        assert main(["campaign", "report", "thm51-single-n3", *args]) == 0
        healed = json.loads(capsys.readouterr().out)
        assert healed["all_trapped"] is True and "degraded" not in healed


class TestTrap:
    def test_fig3(self, capsys) -> None:
        code = main(
            ["trap", "--kind", "fig3", "--algo", "pef1", "--n", "5", "--rounds", "60"]
        )
        assert code == 0
        assert "confined=True" in capsys.readouterr().out

    def test_fig2(self, capsys) -> None:
        code = main(
            ["trap", "--kind", "fig2", "--algo", "pef2", "--n", "5", "--rounds", "80"]
        )
        assert code == 0
        assert "confined=True" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            main([])


class TestErrorBoundary:
    """Every verb maps library errors onto exit codes, never tracebacks."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--robots", "2", "--n", "3", "--jobs", "1"],
             "rings of size >= 4"),
            (["sweep", "--robots", "1", "--n", "3", "--jobs", "0"],
             "jobs must be >= 1"),
            (["verify", "--algo", "pef3+", "--n", "3", "--k", "3"],
             "need k < n"),
            (["verify", "--algo", "nope", "--n", "4", "--k", "2"],
             "unknown algorithm"),
            (["run", "--algo", "pef1", "--n", "1", "--k", "1"],
             "at least 2 nodes"),
            (["trap", "--kind", "fig2", "--algo", "pef2", "--n", "2"],
             "rings of size < 4"),
            (["campaign", "run", "thm41-two-n4", "--jobs", "0"],
             "jobs must be >= 1"),
        ],
    )
    def test_library_error_is_usage_exit(
        self, argv, message, tmp_path, capsys
    ) -> None:
        if argv[0] == "campaign":
            argv = argv + ["--store", str(tmp_path / "store")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_zero_round_trap_is_an_empty_run(self, kind, capsys) -> None:
        # fig3's window is anchored before the first round, as fig2's is.
        argv = ["trap", "--kind", kind, "--algo", "pef3+", "--n", "5",
                "--rounds", "0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"{kind}[pef3+ n=5]: visited [0" in captured.out
        assert "over 0 rounds" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "knob,message",
        [
            (["--threshold", "2"], "threshold must be in [0, 1), got 2.0"),
            (["--threshold", "-0.5"], "threshold must be in [0, 1)"),
            (["--derate", "0"], "derate must be in (0, 1], got 0.0"),
            (["--derate", "1.5"], "derate must be in (0, 1]"),
        ],
    )
    def test_analyze_knob_out_of_range_is_usage_exit(
        self, knob, message, tmp_path, capsys
    ) -> None:
        # Each knob is range-checked even without the flag that reads it
        # (--baseline for --threshold, --write-baseline for --derate), and
        # before the trace is read: nothing is printed to stdout.
        assert main(["campaign", "analyze", str(tmp_path), *knob]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--algo", "pef1", "--n", "3", "--k", "1"], "--save"),
            (["sweep", "--robots", "1", "--n", "3", "--jobs", "1"], "--json"),
        ],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
    def test_unwritable_output_is_usage_exit(
        self, argv, flag, where, tmp_path, capsys
    ) -> None:
        # The result is computed, but its file cannot be opened: one
        # stderr line naming the path and exit 2, not EXIT_INCOMPLETE's 1.
        target = tmp_path / "missing" / "out.json"
        if where == "is-a-dir":
            target = tmp_path
        assert main(argv + [flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert f"cannot write {target}" in err
