"""The README's library example runs against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", library_example()], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
