import csv

import pytest

from alcc_lab.cli import main


def write_tiny_config(path):
    path.write_text(
        "[scenario]\n"
        "n_workers = 15\nk = 3\nt = 1\nsigma_pad = 10\n"
        "precision_var = 0\nbyzantine_count = 2\n"
        "trials = 2\nmaster_seed = 6\n"
        "[sweep]\nbyzantine_counts = 0,2\ntrials = 2\nmaster_seed = 6\n"
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

    def test_missing_config_exits_one(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "ghost.cfg"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


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

    def test_joint_search_budget_exits_two(self, tmp_path, capsys):
        # at this seed the independent detections of 8 weak colluders under
        # heavy locator noise span 23 indices, and C(23, 8) is over the budget
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(
            "[scenario]\n"
            "sigma_pad = 1\nbyzantine_count = 8\nbase_matrix = weak\n"
            "weak_zero_prob = 0.3\nprecision_mode = locator\nprecision_var = 0.1\n"
            "localization = joint\ntrials = 1\nmaster_seed = 0\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "guard:" in capsys.readouterr().err


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
        rows = list(csv.reader(open(out)))
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

    def test_zero_beam_width_exits_one(self, capsys):
        code = main(["optimize-assignment", "--n", "11", "--mu", "5", "--count", "2",
                     "--search", "beam", "--beam-width", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: beam_width")


class TestAttackDesignCommand:
    def test_strong_design_csv(self, tmp_path):
        out = tmp_path / "beff.csv"
        code = main(["attack-design", "--mode", "strong", "--rows", "9",
                     "--colluders", "4", "--out", str(out)])
        assert code == 0
        rows = [r for r in csv.reader(open(out)) if not r[0].startswith("#")]
        weights = sorted(sum(int(x) for x in row) for row in rows)
        assert weights == [3] * 8 + [4]

    def test_weak_defaults_to_optimal_p(self, tmp_path, capsys):
        out = tmp_path / "beff.csv"
        code = main(["attack-design", "--mode", "weak", "--rows", "5",
                     "--colluders", "8", "--out", str(out)])
        assert code == 0
        header = open(out).readline()
        assert "0.257" in header


class TestSelftestCommand:
    def test_reduced_run_passes(self, capsys):
        code = main(["selftest", "--values-per-support", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    @pytest.mark.parametrize("values", ["0", "-1"])
    def test_values_below_one_exit_one(self, values, capsys):
        code = main(["selftest", "--values-per-support", values])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: values_per_support")
