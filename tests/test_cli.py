"""Tests for the repro-rlir command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("generate-trace", "trace-info", "convert", "fig4a",
                        "fig4b", "fig4c", "fig5", "placement", "extensions",
                        "localize", "cache"):
            # smallest valid invocation parses
            args = {"generate-trace": [command, "--out", "x.npz"],
                    "trace-info": [command, "x.npz"],
                    "convert": [command, "a.npz", "b.csv"],
                    "cache": [command, "info"]}.get(command, [command])
            assert parser.parse_args(args).command == command

    def test_runner_flags_on_experiment_subcommands(self):
        parser = build_parser()
        for command in ("fig4a", "fig4b", "fig4c", "fig5", "placement",
                        "extensions", "localize"):
            args = parser.parse_args([command, "--jobs", "4", "--no-cache"])
            assert args.jobs == 4
            assert args.no_cache is True

    def test_backend_flags_on_experiment_subcommands(self):
        parser = build_parser()
        for command in ("fig4a", "fig4b", "fig4c", "fig5", "placement",
                        "extensions", "localize"):
            args = parser.parse_args([command])
            assert args.backend == "auto" and args.broker is None
            args = parser.parse_args(
                [command, "--backend", "distributed", "--jobs", "2"])
            assert args.backend == "distributed"
            args = parser.parse_args([command, "--broker", "host:7077"])
            assert args.broker == "host:7077"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4a", "--backend", "threads"])

    def test_worker_and_broker_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--connect", "h:7077",
                                  "--heartbeat", "0.5", "--cache-dir", "c"])
        assert args.command == "worker"
        assert args.connect == "h:7077"
        assert args.heartbeat == 0.5
        assert args.cache_dir == "c"
        with pytest.raises(SystemExit):
            parser.parse_args(["worker"])  # --connect is required
        args = parser.parse_args(["broker", "--listen", ":7077",
                                  "--max-retries", "1"])
        assert args.command == "broker"
        assert args.listen == ":7077"
        assert args.max_retries == 1


class TestTraceCommands:
    def test_generate_and_info_npz(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        assert main(["generate-trace", "--packets", "500", "--duration", "0.2",
                     "--out", out]) == 0
        assert main(["trace-info", out]) == 0
        captured = capsys.readouterr().out
        assert "packets:" in captured
        assert "flows:" in captured

    def test_generate_csv(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        assert main(["generate-trace", "--packets", "200", "--duration", "0.2",
                     "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_convert_roundtrip(self, tmp_path, capsys):
        npz = str(tmp_path / "t.npz")
        csv = str(tmp_path / "t.csv")
        back = str(tmp_path / "u.npz")
        main(["generate-trace", "--packets", "200", "--duration", "0.2",
              "--out", npz])
        assert main(["convert", npz, csv]) == 0
        assert main(["convert", csv, back]) == 0
        from repro.traffic.trace import Trace
        assert len(Trace.load(npz)) == len(Trace.load(back))

    @pytest.mark.parametrize("command", ["trace-info", "convert"])
    def test_malformed_trace_is_an_error_not_a_traceback(self, command,
                                                         tmp_path, capsys):
        good = tmp_path / "t.csv"
        main(["generate-trace", "--packets", "50", "--duration", "0.2",
              "--out", str(good)])
        header, row = good.read_text().splitlines()[:2]
        cut = header.split(",").index("dport") + 1
        short = tmp_path / "short.csv"
        short.write_text(f"{header}\n{','.join(row.split(',')[:cut])}\n")
        capsys.readouterr()
        args = [str(short)] if command == "trace-info" else [
            str(short), str(tmp_path / "out.npz")]
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro-rlir {command}: error: ")
        assert "line 2" in captured.err
        assert "Traceback" not in captured.err


class TestAnalysisCommands:
    def test_placement(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # default .repro-cache lands here
        assert main(["placement", "--k", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "ToR pair" in out
        assert "4480" in out  # full deployment at k=8

    def test_fig4a_tiny(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        monkeypatch.chdir(tmp_path)  # default .repro-cache lands here
        assert main(["fig4a", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "adaptive, 93%" in out

    def test_fig5_tiny(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", "--seeds", "1", "--no-plot"]) == 0
        assert "adaptive diff" in capsys.readouterr().out

    def test_fig4c_with_plot(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        monkeypatch.chdir(tmp_path)
        assert main(["fig4c"]) == 0
        out = capsys.readouterr().out
        assert "relative error (log)" in out  # the ascii plot rendered

    def test_localize(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # default .repro-cache lands here
        assert main(["localize", "--packets", "3000"]) == 0
        out = capsys.readouterr().out
        assert "culprit" in out

    def test_localize_parallel_cached_rerun_matches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["localize", "--packets", "2000", "--jobs", "2",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # warm: answered from the cache
        assert capsys.readouterr().out == first
        # the serial, uncached path prints the identical report
        assert main(["localize", "--packets", "2000", "--no-cache"]) == 0
        assert capsys.readouterr().out == first

    def test_extensions_selected_studies(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        monkeypatch.chdir(tmp_path)
        assert main(["extensions", "ptp", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "ptp: residual sync error" in out
        assert "multihop" not in out

    def test_extensions_rejects_unknown_study(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["extensions", "warp-drive"]) == 2
        assert "unknown studies" in capsys.readouterr().err

    def test_extensions_parallel_matches_serial(self, capsys, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        cache_dir = str(tmp_path / "cache")
        assert main(["extensions", "multihop", "--jobs", "2",
                     "--cache-dir", cache_dir]) == 0
        parallel = capsys.readouterr().out
        assert main(["extensions", "multihop", "--no-cache"]) == 0
        assert capsys.readouterr().out == parallel

    def test_fig4a_parallel_cached_rerun_matches(self, capsys, monkeypatch,
                                                 tmp_path):
        """--jobs 2 and a cached re-run print the exact same table."""
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        cache_dir = str(tmp_path / "cache")
        argv = ["fig4a", "--no-plot", "--jobs", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # now answered from the cache
        assert capsys.readouterr().out == first
        assert main(["fig4a", "--no-plot", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == first  # serial path identical

    def test_explicit_backends_print_identical_tables(self, capsys,
                                                      monkeypatch):
        """--backend serial and --backend process agree byte for byte (the
        distributed backend's identical-output guarantee is asserted by
        tests/test_distrib.py and the CI distrib-smoke lane)."""
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert main(["fig4a", "--no-plot", "--no-cache",
                     "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig4a", "--no-plot", "--no-cache",
                     "--backend", "process", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_info_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        cache_dir = str(tmp_path / "cache")
        main(["placement", "--k", "4", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:   1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestModuleInvocation:
    def test_python_dash_m_repro(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(repro.__file__).resolve().parent.parent)]
            + sys.path)  # absolute: the child runs from tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "placement", "--k", "4"],
            capture_output=True, text=True, timeout=120,
            cwd=tmp_path, env=env)  # default .repro-cache lands here
        assert proc.returncode == 0
        assert "ToR pair" in proc.stdout
