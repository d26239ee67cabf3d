"""CLI: argument parsing, cost planner, train/meta, TCP serve/predict."""

import socket
import subprocess
import sys
import threading

import pytest

from repro.cli import build_parser, main


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cost_args(self):
        args = build_parser().parse_args(["cost", "--eta", "6"])
        assert args.eta == 6 and args.batch == 1

    def test_predict_requires_input_or_demo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--meta", "m", "--port", "1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--model", "m.npz", "--port", "1"],
            ["predict", "--meta", "m.json", "--port", "1", "--demo", "1"],
        ],
    )
    def test_serving_commands_refuse_a_seed(self, argv):
        """A fixed client seed repeats the input mask across runs, so the
        serving commands take no ``--seed``; only ``train`` does."""
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--seed", "5"])


class TestCost:
    def test_prints_ranking(self, capsys):
        assert main(["cost", "--eta", "4", "--batch", "1", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "optimal:" in out
        assert "(2,2)" in out

    def test_multibatch_changes_optimum(self, capsys):
        main(["cost", "--eta", "8", "--batch", "128"])
        out = capsys.readouterr().out
        assert "8(2,2,2,2)" in out

    def test_prints_the_wire_price_and_the_split_run(self, capsys):
        assert main(["cost", "--eta", "8", "--batch", "8", "--ring", "22", "--top", "1"]) == 0
        out = capsys.readouterr().out
        # (2,2,2,2): Table 1 4 x (8*22*4 + 256); wire 4 x (8*22*3 + 192)
        assert "(2,2,2,2)      4      4         3840       2880" in out
        # binary fragments at o * l = 176: 8 x (8*22 + 128) bits
        assert "protocol runs: 8(1,1,1,1,1,1,1,1) (2432 wire bits per weight)" in out

    def test_eta_out_of_range_is_one_error_line(self, capsys):
        assert main(["cost", "--eta", "0"]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eta must be in [1, 16]")
        assert captured.out == ""


class TestTrainMeta:
    def test_train_writes_bundle_and_meta(self, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        meta_path = tmp_path / "meta.json"
        code = main(
            [
                "train", "--out", str(model_path), "--meta-out", str(meta_path),
                "--scheme", "ternary", "--hidden", "16", "--epochs", "2",
                "--samples", "300",
            ]
        )
        assert code == 0
        assert model_path.exists() and meta_path.exists()
        out = capsys.readouterr().out
        assert "quantized (ternary) accuracy" in out

    def test_meta_command(self, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        main(
            [
                "train", "--out", str(model_path), "--scheme", "binary",
                "--hidden", "8", "--epochs", "1", "--samples", "200",
            ]
        )
        capsys.readouterr()
        meta_path = tmp_path / "meta.json"
        assert main(["meta", "--model", str(model_path), "--out", str(meta_path)]) == 0
        assert meta_path.exists()

    def test_unknown_scheme_refused_before_training(self, tmp_path, capsys):
        code = main(
            ["train", "--out", str(tmp_path / "m.npz"), "--scheme", "bogus", "--epochs", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "training" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown scheme 'bogus'")
        assert not (tmp_path / "m.npz").exists()

    def test_malformed_model_is_one_error_line(self, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        model_path.write_text("not a model bundle")
        code = main(["meta", "--model", str(model_path), "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: model bundle ")


@pytest.mark.slow
class TestReport:
    def test_demo_report_checks_and_saves_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "report", "--demo", "--save-trace", str(trace_path), "--check",
                "--hidden", "6", "--batch", "1", "--scheme", "ternary",
            ]
        )
        assert code == 0
        assert trace_path.exists()
        out = capsys.readouterr().out
        assert "measured vs predicted" in out
        assert "conformance: all modeled spans within tolerance" in out
        assert "FAIL" not in out

        # the saved trace re-renders identically through --trace
        assert main(["report", "--trace", str(trace_path), "--check"]) == 0
        out2 = capsys.readouterr().out
        assert "measured vs predicted" in out2

    def test_report_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "abnn2-trace/999"}')
        assert main(["report", "--trace", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_unreadable_trace_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["report", "--trace", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: trace {path} ")


class TestServePredict:
    @staticmethod
    def _train(tmp_path):
        model_path = tmp_path / "m.npz"
        meta_path = tmp_path / "meta.json"
        assert (
            main(
                [
                    "train", "--out", str(model_path), "--meta-out", str(meta_path),
                    "--scheme", "ternary", "--hidden", "16", "--epochs", "2",
                    "--samples", "300",
                ]
            )
            == 0
        )
        return model_path, meta_path

    @staticmethod
    def _serve(model_path, port, rounds, exit_after, *extra):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--model", str(model_path),
                "--port", str(port), "--batch", "2",
                "--rounds", str(rounds), "--exit-after", str(exit_after), *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    @staticmethod
    def _predict(meta_path, port, *extra):
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "predict", "--meta", str(meta_path),
                "--port", str(port), "--demo", "2", *extra,
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_tcp_roundtrip_subprocesses(self, tmp_path):
        """Full deployment: two OS processes over a real socket."""
        model_path, meta_path = self._train(tmp_path)
        port = _free_port()
        server = self._serve(model_path, port, rounds=1, exit_after=1)
        try:
            client = self._predict(meta_path, port)
            assert client.returncode == 0, client.stderr
            assert "predictions:" in client.stdout
            server_out, _ = server.communicate(timeout=60)
            assert "saw only shares" in server_out
        finally:
            if server.poll() is None:
                server.kill()

    def test_server_survives_reconnecting_clients(self, tmp_path):
        """Regression: one server process, two sequential client sessions.

        The pre-serve cmd_serve exited (or wedged) after its first
        client; now the listener stays up and every banked round is
        servable without a restart.
        """
        model_path, meta_path = self._train(tmp_path)
        port = _free_port()
        server = self._serve(model_path, port, rounds=2, exit_after=2)
        try:
            first = self._predict(meta_path, port)
            assert first.returncode == 0, first.stderr
            assert "predictions:" in first.stdout
            second = self._predict(meta_path, port)
            assert second.returncode == 0, second.stderr
            assert "predictions:" in second.stdout
            server_out, _ = server.communicate(timeout=60)
            assert "served 2 session(s), 2 prediction(s)" in server_out
            assert "saw only shares" in server_out
        finally:
            if server.poll() is None:
                server.kill()
