import importlib.util
import json
import subprocess
import sys
from pathlib import Path

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "gen_campaigns.py"


def _generator():
    spec = importlib.util.spec_from_file_location("gen_campaigns", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_campaigns_match_generator():
    gen = _generator()
    names = []
    for build in gen.BUILDERS:
        obj = build()
        path = gen.DATA / f"{obj['name']}.json"
        assert path.read_bytes() == (json.dumps(obj, indent=1) + "\n").encode(), path.name
        names.append(path.name)
    assert sorted(names) == sorted(p.name for p in gen.DATA.glob("*.json"))


def test_generator_refuses_arguments_without_writing():
    data = _generator().DATA
    before = {p.name: p.stat().st_mtime_ns for p in data.glob("*.json")}
    proc = subprocess.run(
        [sys.executable, str(GENERATOR), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and not proc.stdout
    assert {p.name: p.stat().st_mtime_ns for p in data.glob("*.json")} == before
