"""tools/payload_digests.py: the payload digests of one tree, and two processes of it agreeing."""

import importlib.util
import re
import shutil
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "payload_digests.py"


def _tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_two_processes_of_one_tree_agree():
    done = _tool("--tiny", "--against", str(ROOT))
    assert done.returncode == 0, done.stdout + done.stderr
    match = re.fullmatch(r"0 of (\d+) records differ from .*\n", done.stdout)
    assert match and int(match.group(1)) > 0


def test_a_refusal_is_digested_by_its_error_text():
    done = _tool()
    assert done.returncode == 0, done.stderr
    lines = [line.rsplit(" ", 1) for line in done.stdout.splitlines()]
    digests = dict(lines)
    assert len(digests) == len(lines)
    payloads = [label for label in digests if not label.endswith("/csv")]
    # 7 commands x 7 sources x 2 seeds, before the workloads and probes
    assert len([label for label in payloads if label.count("/") == 2]) == 98
    text = "ValueError: this command needs instance.family of kind 'miller'"
    assert digests["family/circle-16/seed0"] == sha256(text.encode()).hexdigest()[:16]
    # the CSV bytes of a record that runs are digested too, and a refusal has none
    assert "family/miller-48/seed0/csv" in digests
    assert "family/circle-16/seed0/csv" not in digests
    assert all(re.fullmatch(r"[0-9a-f]{16}", d) for d in digests.values())


def test_a_version_bump_alone_changes_no_digest(tmp_path):
    # the same package under another version number: every payload names
    # its version, which is blanked before digesting
    shutil.copytree(ROOT / "src" / "sendovlab", tmp_path / "src" / "sendovlab")
    init = tmp_path / "src" / "sendovlab" / "__init__.py"
    text = init.read_text()
    assert text.count('__version__ = "') == 1
    init.write_text(re.sub(r'__version__ = "[^"]*"', '__version__ = "0.0.0+other"', text))
    done = _tool("--tiny", "--against", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    match = re.fullmatch(r"0 of (\d+) records differ from .*\n", done.stdout)
    assert match and int(match.group(1)) > 0


def test_the_workloads_run_at_full_size_outside_tiny(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # configs() puts bench/ on it
    spec = importlib.util.spec_from_file_location("payload_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    full = [label for label, _ in tool.configs(tiny=False) if "/full/" in label]
    assert {label.split("/")[0] for label in full} == {"family-scale", "ensemble-small", "kernels"}
    assert all(label.split("/")[2] == "seed0" for label in full)
    assert "kernels/full/seed0/balayage-origin-512" in full
    assert not [label for label, _ in tool.configs(tiny=True) if "/full/" in label]
