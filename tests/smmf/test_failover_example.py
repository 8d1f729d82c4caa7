"""``examples/private_serving_smmf.py`` end to end: its injected crash
reaches a replica and is failed over, and the demo says so."""

import pathlib
import runpy

EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "examples"
    / "private_serving_smmf.py"
)


def test_the_demo_crash_is_failed_over(capsys):
    runpy.run_path(str(EXAMPLE))["main"]()
    out = capsys.readouterr().out
    assert out.count(": 2 requests") == 3  # round-robin, no cache hits
    assert "crashed; answer: The answer is" in out
    assert "retries recorded: 1" in out
    assert "without token: HTTP 401" in out
