"""The suite's own pytest settings, run against a deliberately failing test."""

import subprocess
import sys


def test_failing_hypothesis_test_reports_its_falsifying_example(request, tmp_path):
    # The repository's warning filters, in a scratch project of their own.
    filters = "".join(f"\n    {line}" for line in request.config.getini("filterwarnings"))
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings ={filters}\n")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = proc.stdout + proc.stderr
    assert proc.returncode == 1, report
    assert "Falsifying example" in report
    assert "INTERNALERROR" not in report
