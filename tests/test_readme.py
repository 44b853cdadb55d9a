import os
import re
import subprocess
import sys
from pathlib import Path

from beamsteer.config import SCHEMA

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the documented API must keep working: run the README's python block as is
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_configuration_block_names_every_schema_key():
    (block,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.S | re.M))
    assert list(sections) == list(SCHEMA)
    for name, keys in SCHEMA.items():
        for key in keys:
            assert re.search(rf"(^|, ){key}( =|,|$)", sections[name], re.M), (name, key)
