import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcc_lab import codec, dft_code, harness, localization
from alcc_lab.assignment import AssignmentProblem, relative_error_baseline
from alcc_lab.cli import main
from alcc_lab.harness import TRIAL_CSV_HEADER, write_sweep_csv
from alcc_lab.scenario import SweepSpec, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_tiny_config(path):
    path.write_text(
        "[scenario]\n"
        "n_workers = 15\nk = 3\nt = 1\nsigma_pad = 10\n"
        "precision_var = 0\nbyzantine_count = 2\n"
        "trials = 2\nmaster_seed = 6\n"
        "[sweep]\nbyzantine_counts = 0,2\n"
    )


class TestSweepCommand:
    def test_writes_contracted_csv(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario", "seed", "A", "sigma_p2", "strategy",
                           "e_rel", "e_rel_db", "loc_correct"]
        assert len(rows) == 1 + 4  # 2 grid points x 2 trials
        assert (out.parent / (out.name + ".agg.csv")).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_misnamed_sweep_section_exits_one(self, tmp_path, capsys):
        # misnamed, the section used to be skipped: the sweep exited 0 after
        # running only the base point
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace("[sweep]", "[Sweep]"))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "[Sweep]" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_config_exits_one_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[scenario]\ntrials = 3\ntrials = 4\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config file ")
        assert not out.exists()

    def test_paired_joint_sweep_keeps_its_rows_on_a_guard_trip(self, tmp_path, monkeypatch,
                                                                capsys):
        # no joint search fits a budget of zero subsets: the independent point's
        # row is written, then the joint point, on the same seed, trips the guard
        monkeypatch.setattr(localization, "_MAX_SUBSETS", 0)
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(
            "[scenario]\nsigma_pad = 1\nprecision_mode = locator\ntrials = 1\n"
            "[sweep]\nbyzantine_counts = 1\nprecision_vars = 1e-3\n"
            "strategies = independent, joint\npaired_axes = strategies\n"
        )
        out = tmp_path / "joint.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("guard: joint search over C(")
        with open(out) as fh:
            table = list(csv.reader(fh))
        assert [row[2:5] for row in table] == [["A", "sigma_p2", "strategy"],
                                               ["1", "0.001", "independent"]]

    def test_missing_aggregate_directory_fails_before_any_trial(self, tmp_path, monkeypatch,
                                                                capsys):
        # the aggregate file used to be opened after every trial had run
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda sc, seed: calls.append(seed))
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--agg-out", str(tmp_path / "missing" / "agg.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]
        assert calls == []
        assert out.read_text() == ""

    def test_missing_config_exits_one(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "ghost.cfg"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


@pytest.mark.parametrize("cfg", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.stem)
def test_shipped_config_simulates_one_trial(tmp_path, cfg):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert table[0] == list(TRIAL_CSV_HEADER)
    assert len(table) == 2


class TestSimulateCommand:
    def test_writes_trials(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--trials", "3"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4

    @staticmethod
    def _tripping_config(tmp_path):
        # at this seed the independent detections of 8 weak colluders under
        # heavy locator noise span 23 indices, and C(23, 8) is over the budget
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(
            "[scenario]\n"
            "sigma_pad = 1\nbyzantine_count = 8\nbase_matrix = weak\n"
            "weak_zero_prob = 0.3\nprecision_mode = locator\nprecision_var = 0.1\n"
            "localization = joint\ntrials = 1\nmaster_seed = 0\n"
        )
        return cfg

    def test_joint_search_budget_exits_two(self, tmp_path, capsys):
        cfg = self._tripping_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "guard:" in capsys.readouterr().err

    def test_guard_trip_leaves_the_header(self, tmp_path):
        # the output is opened before the first trial, and the one point's
        # rows would be written when its trials finish
        out = tmp_path / "sim.csv"
        cfg = self._tripping_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text().splitlines() == [",".join(TRIAL_CSV_HEADER)]


class TestOutputBytes:
    """Every CSV a command writes is the same bytes on stdout and in --out."""

    def test_simulate_is_the_one_point_sweep(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        out, swept = tmp_path / "sim.csv", tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        scenario, _ = load_config(cfg)
        write_sweep_csv(scenario, SweepSpec(), swept)
        assert out.read_bytes() == swept.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{cfg}", "--trials", "3"],
        ["bounds", "--n", "11", "--count", "2", "--support", "0,3"],
        ["attack-design", "--mode", "strong", "--rows", "9", "--colluders", "4"],
        ["attack-design", "--mode", "weak", "--rows", "7", "--colluders", "3", "--seed", "5"],
    ], ids=["simulate", "bounds", "attack-design-strong", "attack-design-weak"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, argv):
        cfg = tmp_path / "case.cfg"
        write_tiny_config(cfg)
        argv = [arg.format(cfg=cfg) for arg in argv]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}"],
    ["bounds", "--n", "11", "--count", "2"],
    ["sweep", "--config", "{cfg}"],
], ids=["simulate", "bounds", "sweep"])
def test_directory_as_output_exits_one_with_one_line(tmp_path, capsys, argv):
    cfg = tmp_path / "case.cfg"
    write_tiny_config(cfg)
    taken = tmp_path / "taken"
    taken.mkdir()
    argv = [arg.format(cfg=cfg) for arg in argv]
    assert main(argv + ["--out", str(taken)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]
    assert captured.out == ""
    # a sweep opens its aggregate file only after the trial file
    assert sorted(path.name for path in tmp_path.iterdir()) == ["case.cfg", "taken"]


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["selftest", "--warp", "9"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert main(["transmogrify"]) == 1


class TestBoundsCommand:
    def test_emits_grid(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--n", "31", "--count", "4",
                     "--sigma-grid", "1e-3,1e-2", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert len(rows) == 3

    def test_support_sets_the_rows(self, capsys):
        code = main(["bounds", "--n", "11", "--count", "2", "--support", "0,3",
                     "--sigma-grid", "1e-2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("11,2,")

    @pytest.mark.parametrize(
        "count,support,message",
        [("3", "0,1", "--support lists 2 indices but --count is 3"),
         ("2", "3,3", "distinct indices in 0..10"),
         ("2", "0,20", "distinct indices in 0..10")],
    )
    def test_bad_support_exits_one(self, capsys, count, support, message):
        code = main(["bounds", "--n", "11", "--count", count, "--support", support,
                     "--sigma-grid", "1e-2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_one_naming_the_flag(self, capsys, count):
        assert main(["bounds", "--n", "11", "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --count must be at least 1, got {count}\n"
        assert captured.out == ""


    @pytest.mark.parametrize(
        "flags,field",
        [(["--eta", "-1"], "eta"), (["--sigma-grid", "nan"], "sigma_p_sq")],
        ids=["negative-eta", "nan-sigma"],
    )
    def test_bad_noise_parameter_exits_one(self, capsys, flags, field):
        assert main(["bounds", "--n", "11", "--count", "2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be finite and positive")
        assert captured.out == ""

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # 3,000 grid points make about 170 kB of CSV, more than a pipe holds,
        # so the writes after the reader has gone meet a closed pipe
        grid = ",".join(f"{1e-4 * (1 + i):g}" for i in range(3000))
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "alcc_lab.cli", "bounds", "--n", "15", "--count", "2",
             "--sigma-grid", grid],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert first.startswith(b"n,count,")
        assert (proc.returncode, err) == (1, b"")


class TestOptimizeAssignmentCommand:
    def test_reports_reported_class(self, capsys):
        code = main(["optimize-assignment", "--n", "11", "--mu", "5",
                     "--count", "2", "--sigma-p2", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(1, 3, 6, 9, 11)" in out

    def test_guard_trips_exit_two(self):
        code = main(["optimize-assignment", "--n", "40", "--mu", "20",
                     "--count", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags,field",
        [(["--eta", "0"], "eta"), (["--sigma-p2", "-1"], "sigma_p_sq")],
        ids=["zero-eta", "negative-sigma"],
    )
    def test_bad_noise_parameter_exits_one(self, capsys, flags, field):
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be finite and positive")
        assert captured.out == ""

    @pytest.mark.parametrize("count,message", [
        ("0", "byzantine_count must be at least 1 to score a subset, got 0"),
        ("-1", "byzantine_count must be at least 0, got -1"),
    ])
    def test_count_below_one_exits_one_naming_the_field(self, capsys, count, message):
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", count])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_zero_beam_width_exits_one(self, capsys):
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--search", "beam", "--beam-width", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: beam_width")

    def test_table_out_compares_solver_and_contiguous(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--table-out", str(out)]) == 0
        with open(out) as fh:
            table = list(csv.reader(fh))
        assert table == [["label", "subset", "log_objective"],
                         ["solver", "0 2 5 8 10", "-20.690748"],
                         ["contiguous", "0 1 2 3 4", "-1.388572"]]

    def test_table_rows_match_a_monte_carlo_objective(self, tmp_path, capsys):
        # C(17, 6) > 10,000 supports, so the objective averages random draws:
        # every row must be scored as the solver scored its one candidate
        out = tmp_path / "table.csv"
        assert main(["optimize-assignment", "--n", "17", "--mu", "17", "--count", "6",
                     "--table-out", str(out)]) == 0
        assert "(log -140.565351)" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["log_objective"] for row in rows] == ["-140.565351"] * 2

    @staticmethod
    def _study_config(path, **changes):
        fields = {"n_workers": 11, "k": 3, "t": 1, "sigma_pad": 1.0, "byzantine_count": 2,
                  "precision_var": 0.01, "localization": "restricted",
                  "trials": 2, "master_seed": 7, **changes}
        path.write_text("[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                        + "[sweep]\nbyzantine_counts = 0, 1\n")
        return path

    def test_config_adds_the_scan_rows(self, tmp_path, capsys):
        cfg = self._study_config(tmp_path / "study.cfg")
        out = tmp_path / "table.csv"
        assert main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--config", str(cfg), "--table-out", str(out)]) == 0
        printed = capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["label", "subset", "log_objective", "mean_e_rel_db"]
        assert [row["label"] for row in rows] == ["solver", "contiguous", "empirical-best"]
        assert rows[0]["subset"] == "0 2 5 8 10" and rows[1]["subset"] == "0 1 2 3 4"
        # the [sweep] section is ignored: the scan runs grid index 0's seeds
        scenario, _ = load_config(cfg)
        prob = AssignmentProblem(n_workers=11, unreliable_count=5, byzantine_count=2)
        scan = relative_error_baseline(prob, scenario, 2, 7)
        assert rows[2]["subset"] == " ".join(map(str, scan.subset))
        for row in rows:
            subset = tuple(int(i) for i in row["subset"].split())
            assert row["mean_e_rel_db"] == f"{codec.db(scan.table[subset]):.3f}"
            assert f"{row['label']:<14} {subset}: {row['mean_e_rel_db']} dB" in printed

    def test_config_contradicting_the_problem_exits_one(self, tmp_path, capsys):
        cfg = self._study_config(tmp_path / "study.cfg", n_workers=13)
        out = tmp_path / "table.csv"
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--config", str(cfg), "--table-out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: scenario n_workers=13 contradicts the problem's 11\n"
        assert captured.out == "" and not out.exists()

    def test_scan_over_the_guard_exits_two_before_any_trial(self, tmp_path, capsys,
                                                            monkeypatch):
        def refuse(*args):
            raise AssertionError("a trial ran before the guard")

        monkeypatch.setattr(harness, "run_trial", refuse)
        cfg = self._study_config(tmp_path / "study.cfg", trials=300)
        out = tmp_path / "table.csv"
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--config", str(cfg), "--table-out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("guard: 462 subsets x 300 trials")
        assert not out.exists()


class TestAttackDesignCommand:
    def test_strong_design_csv(self, tmp_path):
        out = tmp_path / "beff.csv"
        code = main(["attack-design", "--mode", "strong", "--rows", "9",
                     "--colluders", "4", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        weights = sorted(sum(int(x) for x in row) for row in rows)
        assert weights == [3] * 8 + [4]

    def test_weak_defaults_to_optimal_p(self, tmp_path, capsys):
        out = tmp_path / "beff.csv"
        code = main(["attack-design", "--mode", "weak", "--rows", "5",
                     "--colluders", "8", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "0.257" in header


class TestSelftestCommand:
    def test_reduced_run_passes(self, capsys):
        code = main(["selftest", "--values-per-support", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_failed_decodes_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(dft_code, "correct_codeword", lambda r, locations, values: r)
        assert main(["selftest", "--values-per-support", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "supports=2034 decodes=2034 failures=2034")

    @pytest.mark.parametrize("values", ["0", "-1"])
    def test_values_below_one_exit_one(self, values, capsys):
        code = main(["selftest", "--values-per-support", values])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: values_per_support")
