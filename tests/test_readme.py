"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library in one minute", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["v3", "+γ^1"]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        env=child_env(PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
