"""Tests for the CLI front-end."""

import json

import pytest

from repro.cli import CliSession, main, serve_main
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource


@pytest.fixture(scope="module")
def session_factory():
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=50)))

    def make():
        return CliSession(dbgpt)

    return make


class TestCliSession:
    def test_chat_goes_to_active_app(self, session_factory):
        session = session_factory()
        output = session.handle("How many orders are there?")
        assert "SELECT COUNT(*) FROM orders" in output

    def test_switch_app(self, session_factory):
        session = session_factory()
        assert "switched to chat2data" in session.handle("/app chat2data")
        assert session.handle("How many orders are there?") == (
            "The answer is 50."
        )

    def test_apps_lists_and_marks_active(self, session_factory):
        session = session_factory()
        listing = session.handle("/apps")
        assert "-> chat2db" in listing
        assert "chat2viz" in listing

    def test_unknown_app(self, session_factory):
        session = session_factory()
        assert "no app named" in session.handle("/app teleporter")

    def test_app_without_argument(self, session_factory):
        assert "usage" in session_factory().handle("/app")

    def test_help_and_unknown_command(self, session_factory):
        session = session_factory()
        assert "/apps" in session.handle("/help")
        assert "unknown command" in session.handle("/frobnicate")

    def test_metrics(self, session_factory):
        session = session_factory()
        session.handle("How many users are there?")
        assert "sql-coder" in session.handle("/metrics")

    def test_quit_ends_session(self, session_factory):
        session = session_factory()
        assert session.handle("/quit") == "bye"
        assert session.done

    def test_empty_line_ignored(self, session_factory):
        assert session_factory().handle("   ") == ""

    def test_failed_turn_flagged(self, session_factory):
        session = session_factory()
        output = session.handle("please walk my dog")
        assert output.startswith("(failed) ")

    def test_run_commands_stops_at_quit(self, session_factory):
        session = session_factory()
        outputs = session.run_commands(
            ["/apps", "/quit", "never reached"]
        )
        assert len(outputs) == 2


class TestCliMain:
    def test_command_mode(self, capsys):
        exit_code = main(["--command", "/apps", "--command", "/quit"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "chat2db" in captured.out

    def test_csv_mode(self, tmp_path, capsys):
        (tmp_path / "pets.csv").write_text("name,legs\nrex,4\nnemo,0\n")
        exit_code = main(
            [
                "--csv", str(tmp_path),
                "--command", "How many pets are there?",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2" in captured.out


class TestServeCommand:
    def test_json_output_is_one_object_showing_a_cancellation(self, capsys):
        exit_code = serve_main(["--requests", "4", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        stats = json.loads(captured.out)
        assert stats["mode"] == "continuous"
        # The abandoned stream was still generating when it closed,
        # and its batch retired before the stats were read.
        assert stats["cancelled"] >= 1
        assert stats["inflight_batches"] == 0
        assert "driving 4 concurrent turns" in captured.err

    def test_there_is_no_mode_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--mode", "windowed"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
