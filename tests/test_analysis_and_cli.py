"""Tests for the reporting helpers, experiment registry and CLI."""

import os

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.fig3 import SCALES, figure_3d
from repro.analysis.report import ExperimentTable, format_table, write_csv
from repro.cli import main
from repro.errors import ConfigurationError


class TestReport:
    def test_format_table_alignment(self):
        text = format_table([[1, 2.5], [30, 4.25]], ["a", "bb"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_experiment_table_roundtrip(self):
        table = ExperimentTable("figX", "caption", ["x", "y"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        table.add_note("a note")
        rendered = table.render()
        assert "figX" in rendered and "a note" in rendered
        assert table.to_dicts() == [{"x": 1, "y": 2}, {"x": 3, "y": 4}]

    def test_write_csv(self, tmp_path):
        table = ExperimentTable("figX", "caption", ["x", "y"])
        table.add_row(1, 2)
        path = tmp_path / "out.csv"
        write_csv(table, str(path))
        content = path.read_text().strip().splitlines()
        assert content[0] == "x,y"
        assert content[1] == "1,2"


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        expected = {"fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
                    "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
                    "contention", "pareto"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_unknown_scale_rejected(self):
        from repro.analysis.fig3 import _sizes

        with pytest.raises(ConfigurationError):
            _sizes("enormous")

    def test_scales_defined(self):
        assert {"tiny", "small", "medium", "paper"} <= set(SCALES)

    def test_headline_point_config_accepts_only_full(self):
        # perfbench passes "full" as the third positional argument.
        from repro.analysis.headline import point_system_config
        from repro.system.config import SystemKind

        assert (point_system_config(SystemKind.PACK, 100, "full")
                == point_system_config(SystemKind.PACK, 100))
        with pytest.raises(ConfigurationError):
            point_system_config(SystemKind.PACK, 100, "half")

    def test_run_analytic_experiment(self):
        table = run_experiment("fig5c")
        assert table.experiment == "fig5c"
        assert len(table.rows) == 6

    def test_run_simulated_experiment_tiny(self):
        table = figure_3d(dimensions=[8, 16], bus_bits=(256,))
        assert len(table.rows) == 2
        assert all(row[4] > 0 for row in table.rows)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "fig5c" in out

    def test_run_command_with_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "fig4b.csv")
        assert main(["run", "fig4b", "--csv", csv_path]) == 0
        assert os.path.exists(csv_path)
        out = capsys.readouterr().out
        assert "fig4b" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])

    def test_workloads_command_small(self, capsys):
        assert main(["workloads", "--size", "12", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "ismt" in out and "sssp" in out
        # The full registry runs by default, with a note for the workloads
        # the paper-figure grids exclude.
        assert "csrspmv" in out
        assert "excluded from the paper-figure grids" in out

    def test_workloads_filter_selects_registry_names(self, capsys):
        assert main(["workloads", "--size", "12", "--no-verify",
                     "--workloads", "gemv", "csrspmv"]) == 0
        out = capsys.readouterr().out
        assert "gemv" in out and "csrspmv" in out
        assert "ismt" not in out

    def test_workloads_filter_rejects_unknown_name(self, capsys):
        assert main(["workloads", "--workloads", "nosuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_workloads_command_multi_engine(self, capsys):
        assert main(["workloads", "--size", "12", "--workloads", "spmv",
                     "--engines", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 engines" in out and "spmv" in out

    def test_run_contention_tiny(self, capsys, tmp_path):
        csv_path = str(tmp_path / "contention.csv")
        assert main(["run", "contention", "--scale", "tiny",
                     "--csv", csv_path]) == 0
        assert os.path.exists(csv_path)
        out = capsys.readouterr().out
        assert "contention" in out and "engines" in out
