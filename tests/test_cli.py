"""Tests for the command-line interface (busytime.cli)."""

import json

import pytest

from busytime.cli import build_parser, main
from busytime.io import (
    load_instance,
    load_schedule,
    load_solve_report,
    save_instance,
    save_traffic,
)
from busytime.generators import uniform_random_instance, uniform_traffic


@pytest.fixture
def instance_file(tmp_path):
    inst = uniform_random_instance(12, g=2, seed=1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("generate", "schedule", "compare", "groom", "info", "algorithms"):
            args = parser.parse_args(
                [command] + (["x"] if command in ("schedule", "compare", "info") else [])
                + (["--output", "o.json"] if command == "generate" else [])
            )
            assert args.command == command

    def test_serve_exposes_every_admission_limit(self):
        args = build_parser().parse_args(
            ["serve", "--max-jobs", "50000", "--max-forced-jobs", "9000",
             "--max-time-limit", "10"]
        )
        assert args.max_jobs == 50000
        assert args.max_forced_jobs == 9000
        assert args.max_time_limit == 10.0


class TestGenerate:
    @pytest.mark.parametrize("family", ["uniform", "proper", "clique", "bounded"])
    def test_generates_loadable_instance(self, tmp_path, capsys, family):
        out = tmp_path / f"{family}.json"
        rc = main(
            ["generate", "--family", family, "--n", "15", "--g", "3", "--seed", "2", "--output", str(out)]
        )
        assert rc == 0
        inst = load_instance(out)
        assert inst.n >= 1
        assert "wrote" in capsys.readouterr().out

    def test_generate_defaults_without_n_and_seed(self, tmp_path):
        out = tmp_path / "default.json"
        assert main(["generate", "--family", "uniform", "--g", "2", "--output", str(out)]) == 0
        assert load_instance(out).n == 50

    def test_fig4_determined_by_g(self, tmp_path, capsys):
        out = tmp_path / "fig4.json"
        rc = main(["generate", "--family", "fig4", "--g", "3", "--output", str(out)])
        assert rc == 0
        inst = load_instance(out)
        assert inst.n == 3 * 4  # g * (g + 1) jobs, no randomness

    @pytest.mark.parametrize("extra", [["--n", "15"], ["--seed", "2"]])
    def test_fig4_rejects_inapplicable_arguments(self, tmp_path, extra):
        out = tmp_path / "fig4.json"
        with pytest.raises(SystemExit, match="fig4"):
            main(["generate", "--family", "fig4", "--g", "3", "--output", str(out)] + extra)


class TestSchedule:
    def test_schedule_prints_table_and_writes(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        rc = main(["schedule", str(instance_file), "--algorithm", "first_fit", "--output", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "first_fit" in text and "busy_time" in text
        sched = load_schedule(out)
        assert sched.algorithm == "first_fit"

    def test_schedule_csv_requires_g(self, tmp_path):
        csv_path = tmp_path / "jobs.csv"
        csv_path.write_text("start,end\n0,5\n1,6\n")
        with pytest.raises(SystemExit):
            main(["schedule", str(csv_path)])

    def test_schedule_csv_with_g(self, tmp_path, capsys):
        csv_path = tmp_path / "jobs.csv"
        csv_path.write_text("start,end\n0,5\n1,6\n")
        assert main(["schedule", str(csv_path), "--g", "2"]) == 0
        assert "busy_time" in capsys.readouterr().out

    def test_unknown_algorithm_errors(self, instance_file, capsys):
        rc = main(["schedule", str(instance_file), "--algorithm", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "busytime: error:" in err and "nope" in err

    def test_schedule_with_objective(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        rc = main(
            ["schedule", str(instance_file), "--objective", "machines_plus_busy",
             "--output", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "machines_plus_busy" in text and "objective_value" in text

    def test_unknown_objective_is_a_parse_error(self, instance_file):
        with pytest.raises(SystemExit):
            main(["schedule", str(instance_file), "--objective", "nope"])

    def test_schedule_demand_instance_file(self, tmp_path, capsys):
        from busytime.core.instance import Instance
        from busytime.core.intervals import Interval, Job

        demanding = Instance(
            jobs=tuple(
                Job(id=i, interval=Interval(i, i + 4.0), demand=1 + i % 2)
                for i in range(8)
            ),
            g=3,
            name="cli-demand",
        )
        path = tmp_path / "demand.json"
        save_instance(demanding, path)
        out = tmp_path / "sched.json"
        rc = main(["schedule", str(path), "--output", str(out)])
        assert rc == 0
        sched = load_schedule(out)
        assert any(j.demand != 1 for j in sched.instance.jobs)
        sched.validate()  # demand-aware oracle on the round-tripped schedule

    def test_compare_default_lineup_filters_by_objective(self, instance_file, capsys):
        # proper_greedy/best_fit don't declare machines_plus_busy; the
        # default line-up must skip them instead of exiting 2, and --exact
        # must be skipped (the exact solver optimises busy time).
        rc = main(
            ["compare", str(instance_file), "--objective", "machines_plus_busy",
             "--exact"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "first_fit" in out and "auto" in out
        assert "proper_greedy" not in out and "best_fit" not in out
        assert "--exact is skipped" in out and "OPT=" not in out

    def test_demand_instance_with_non_aware_algorithm_errors(self, tmp_path, capsys):
        from busytime.core.instance import Instance
        from busytime.core.intervals import Interval, Job

        demanding = Instance(
            jobs=tuple(
                Job(id=i, interval=Interval(i, i + 4.0), demand=2)
                for i in range(6)
            ),
            g=3,
            name="cli-demand",
        )
        path = tmp_path / "demand.json"
        save_instance(demanding, path)
        rc = main(["schedule", str(path), "--algorithm", "machine_min"])
        assert rc == 2
        assert "not demand-aware" in capsys.readouterr().err


class TestSolve:
    @pytest.fixture
    def batch_dir(self, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        for seed in range(3):
            save_instance(
                uniform_random_instance(10, g=2, seed=seed), batch / f"inst{seed}.json"
            )
        return batch

    def test_solve_batch_directory(self, batch_dir, capsys):
        rc = main(["solve", "--batch", str(batch_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "solved 3 instances" in text
        assert "inst0.json" in text and "inst2.json" in text

    def test_solve_batch_writes_reports(self, batch_dir, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = main(
            ["solve", "--batch", str(batch_dir), "--exact", "--output-dir", str(out_dir)]
        )
        assert rc == 0
        reports = sorted(out_dir.glob("*.report.json"))
        assert len(reports) == 3
        report = load_solve_report(reports[0])
        assert report.cost >= report.lower_bound - 1e-9
        assert report.optimum is not None

    def test_solve_explicit_files_and_workers(self, batch_dir, capsys):
        files = sorted(str(p) for p in batch_dir.glob("*.json"))
        rc = main(["solve", *files, "--workers", "2", "--algorithm", "first_fit"])
        assert rc == 0
        assert "first_fit" in capsys.readouterr().out

    def test_solve_requires_input(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_solve_rejects_non_directory_batch(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", "--batch", str(tmp_path / "missing")])

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["solve", "{path}", "--policy", "learned"], "invalid choice: 'learned'"),
            (["train-selector"], "invalid choice: 'train-selector'"),
            (["solve", "{path}", "--selector", "m.json"], "unrecognized arguments: --selector"),
            (["serve", "--selector", "m.json"], "unrecognized arguments: --selector"),
        ],
        ids=["policy-learned", "train-selector", "solve-selector", "serve-selector"],
    )
    def test_learned_selector_names_are_usage_errors(
        self, instance_file, capsys, argv, refused
    ):
        """There is no learned selector: its policy name, its command and
        its ``--selector`` flag are argparse usage errors (exit 2)."""
        with pytest.raises(SystemExit) as exited:
            main([arg.format(path=instance_file) for arg in argv])
        assert exited.value.code == 2
        assert refused in capsys.readouterr().err


class TestCompare:
    def test_compare_with_exact(self, instance_file, capsys):
        rc = main(["compare", str(instance_file), "--exact", "--exact-limit", "14"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ratio_vs_opt" in text
        assert "auto" in text

    def test_compare_explicit_algorithms(self, instance_file, capsys):
        rc = main(["compare", str(instance_file), "--algorithms", "first_fit", "singleton"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "singleton" in text


class TestGroom:
    def test_groom_generated_traffic(self, tmp_path, capsys):
        out = tmp_path / "assignment.json"
        rc = main(
            ["groom", "--family", "uniform", "--nodes", "20", "--lightpaths", "30",
             "--g", "3", "--seed", "4", "--output", str(out)]
        )
        assert rc == 0
        assert "regenerators" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert len(data["colors"]) == 30

    def test_groom_from_file(self, tmp_path, capsys):
        traffic = uniform_traffic(15, 20, g=2, seed=8)
        path = tmp_path / "traffic.json"
        save_traffic(traffic, path)
        rc = main(["groom", "--traffic", str(path)])
        assert rc == 0
        assert "wavelengths" in capsys.readouterr().out


class TestInfoAndAlgorithms:
    def test_info(self, instance_file, capsys):
        assert main(["info", str(instance_file)]) == 0
        text = capsys.readouterr().out
        assert "clique number" in text
        assert "dispatcher choice" in text

    def test_info_with_g_override(self, instance_file, capsys):
        assert main(["info", str(instance_file), "--g", "7"]) == 0
        assert "7" in capsys.readouterr().out

    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        text = capsys.readouterr().out
        assert "first_fit" in text and "Section 2" in text


class TestSimulate:
    def test_simulate_surfaces_all_three_policy_reports(self, capsys):
        rc = main(
            ["simulate", "--family", "poisson", "--n", "60", "--g", "3",
             "--seed", "2", "--churn", "0.3"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        for policy in ("never_migrate", "rolling_horizon", "migration_budget"):
            assert policy in text
        assert "realized_cost" in text and "gap_vs_offline" in text

    def test_simulate_writes_report_json(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        rc = main(
            ["simulate", "--family", "uniform", "--n", "40", "--seed", "1",
             "--output", str(out)]
        )
        assert rc == 0
        reports = json.loads(out.read_text())
        assert [r["policy"] for r in reports] == [
            "never_migrate", "rolling_horizon", "migration_budget",
        ]
        assert all(r["realized_cost"] >= 0 for r in reports)
        assert all(r["oracle_checks"] >= 1 for r in reports)

    def test_simulate_from_instance_file(self, instance_file, capsys):
        rc = main(
            ["simulate", "--instance", str(instance_file), "--churn", "0.5",
             "--algorithm", "auto"]
        )
        assert rc == 0
        assert "dynamic replay" in capsys.readouterr().out

    def test_simulate_unknown_algorithm_errors(self, capsys):
        rc = main(["simulate", "--n", "10", "--algorithm", "nope"])
        assert rc == 2
        assert "unknown scheduler" in capsys.readouterr().err


class TestErrorPaths:
    """User-facing failures exit non-zero with a one-line message, never a
    traceback (the satellite contract of the service PR)."""

    def test_missing_instance_file(self, capsys):
        rc = main(["schedule", "no-such-file.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("busytime: error:")
        assert err.count("\n") == 1  # exactly one line

    def test_unknown_algorithm_lists_available(self, instance_file, capsys):
        rc = main(["schedule", str(instance_file), "--algorithm", "definitely_not"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scheduler" in err and "first_fit" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all")
        rc = main(["schedule", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("busytime: error:")
        assert "Traceback" not in err

    def test_wrong_document_format(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": "something-else", "version": 1}))
        rc = main(["schedule", str(wrong)])
        assert rc == 2
        assert "busytime-instance" in capsys.readouterr().err

    def test_non_object_json_document(self, tmp_path, capsys):
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2, 3]")
        rc = main(["schedule", str(listy)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "expected a JSON object" in err and "Traceback" not in err

    def test_broken_pipe_is_a_silent_success(self):
        # `busytime ... | head` truncating output is not an error: exit 0,
        # no "Exception ignored" from the interpreter's exit-time re-flush.
        # Run as a subprocess — the handler redirects the real stdout fd,
        # which must not happen inside the pytest process.
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [_sys.executable, "-m", "busytime.cli", "algorithms"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader disappears immediately
        rc = proc.wait(timeout=60)
        stderr = proc.stderr.read().decode()
        assert rc == 0, stderr
        assert "Exception ignored" not in stderr
        assert "Traceback" not in stderr

    def test_internal_infeasibility_keeps_its_traceback(self, instance_file, monkeypatch):
        # The oracle rejecting a schedule is a bug report, not user error:
        # it must escape the one-line handler with its traceback intact.
        import busytime.cli as cli
        from busytime.core.schedule import InfeasibleScheduleError

        def boom(args):
            raise InfeasibleScheduleError("machine 0 exceeds parallelism")

        monkeypatch.setattr(cli, "_cmd_schedule", boom)
        with pytest.raises(InfeasibleScheduleError):
            main(["schedule", str(instance_file)])

    def test_info_missing_file(self, capsys):
        rc = main(["info", "missing.json"])
        assert rc == 2
        assert "busytime: error:" in capsys.readouterr().err

    def test_submit_unreachable_service(self, instance_file, capsys):
        # Port 1 is never serving; the client error must stay one line.
        rc = main(
            ["submit", str(instance_file), "--url", "http://127.0.0.1:1",
             "--timeout", "1"]
        )
        assert rc == 2
        assert "busytime: error:" in capsys.readouterr().err
