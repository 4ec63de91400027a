"""The lint that keeps numbering per run (scripts/check_process_counters.py)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CHECK = ROOT / "scripts/check_process_counters.py"


def check(tree):
    return subprocess.run(
        [sys.executable, str(CHECK), str(tree)],
        capture_output=True, text=True,
    )


def test_the_tree_holds_no_process_wide_counter():
    result = check(ROOT / "src/repro")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("source,line", [
    ("import itertools\n_ids = itertools.count(1)\n", 2),
    ("import itertools as it\n\n_ids = it.count()\n", 3),
    ("from itertools import count\nnext_id = count(5).__next__\n", 2),
    ("from itertools import count as c\n"
     "class Frame:\n"
     "    ids = c(1)\n", 3),
    ("import itertools\n"
     "def make(ids=itertools.count()):\n"
     "    return next(ids)\n", 2),
])
def test_an_import_time_counter_fails_the_lint(tmp_path, source, line):
    (tmp_path / "mod.py").write_text(source)
    result = check(tmp_path)
    assert result.returncode == 1
    assert f"mod.py:{line}: itertools.count() made at import time" \
        in result.stderr


def test_a_counter_an_object_owns_passes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import itertools\n"
        "from itertools import count\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._ids = itertools.count(1)\n"
        "        self._xids = count()\n"
        "        self._next = (lambda: itertools.count())()\n"
        "def counts():\n"
        "    return [x for x in itertools.count()]\n"
    )
    assert check(tmp_path).returncode == 0
