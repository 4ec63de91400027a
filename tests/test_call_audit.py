"""The call audit (scripts/call_audit.py) on a small fixture package:
each function lands in the right column and the ratchet fires when the
count no entry point reaches rises.  The full audit is ``make audit``."""

import shlex
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import call_audit  # noqa: E402

FIXTURE = '''\
import functools


def entry():
    return K().cached() + stub_pass()


def tested():
    return 2


def dead():
    return 3


def stub_pass():
    pass


def stub_raise():
    """Subclasses answer."""
    raise NotImplementedError("abstract")


class K:
    @functools.lru_cache()
    def cached(self):
        return 4

    def __repr__(self):
        return "K"
'''


def python(code):
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"


@pytest.fixture
def fixture(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(FIXTURE)
    traces = tmp_path / "traces"
    entries = [python("import pkg.mod; pkg.mod.entry()")]
    tests = python("import pkg.mod; pkg.mod.tested()")
    return src, traces, entries, tests


def audit(capsys, fixture, ceiling, verdicts, reuse=True):
    src, traces, entries, tests = fixture
    status = call_audit.audit(src, traces, entries, tests, ceiling,
                              verdicts, reuse=reuse)
    out, err = capsys.readouterr()
    return status, out, err


def test_each_function_lands_in_its_column(capsys, fixture):
    verdicts = {"pkg.mod:dead": "keep: the fixture's unreached function"}
    status, out, _ = audit(capsys, fixture, 2, verdicts, reuse=False)
    assert status == 0
    row = next(line for line in out.splitlines()
               if line.startswith("pkg.mod "))
    # entry() and the decorated K.cached; tested(); dead(); and the
    # three stubs -- stub_pass runs under an entry and still counts as
    # a stub, as does __repr__.
    assert row.split() == ["pkg.mod", "2/5", "1/2", "1/2", "3/7"]
    assert ("7 functions: 2 entry, 1 test-only (14.3%), 1 unreached,"
            " 3 stubs; 2 no entry point reaches (ceiling 2)") in out


def test_the_ratchet_fires_when_the_count_rises(capsys, fixture):
    verdicts = {"pkg.mod:dead": "keep: the fixture's unreached function"}
    audit(capsys, fixture, 2, verdicts, reuse=False)
    status, _, err = audit(capsys, fixture, 1, verdicts)
    assert status == 1
    assert "2 functions no entry point reaches, above the ceiling of 1" in err
    status, out, _ = audit(capsys, fixture, 3, verdicts)
    assert status == 0
    assert "lower CEILING to 2" in out


def test_an_unreached_function_needs_a_verdict(capsys, fixture):
    status, _, err = audit(capsys, fixture, 2, {}, reuse=False)
    assert status == 1
    assert "pkg.mod:dead is reached by nothing and has no verdict" in err
    # A verdict on the enclosing module covers it.
    status, _, _ = audit(capsys, fixture, 2, {"pkg.mod": "keep: fixture"})
    assert status == 0


def test_a_verdict_must_name_a_function(capsys, fixture):
    verdicts = {"pkg.mod:dead": "keep: fixture", "pkg.mod:gone": "keep: x"}
    status, _, err = audit(capsys, fixture, 2, verdicts, reuse=False)
    assert status == 1
    assert "verdict for pkg.mod:gone names no function" in err


def test_the_committed_verdicts_name_live_code():
    found = call_audit.functions(call_audit.SRC)
    assert call_audit.stale_verdicts(found, call_audit.VERDICTS) == []
    for key, verdict in call_audit.VERDICTS.items():
        assert verdict.split(":")[0] in ("wire", "keep", "delete"), key
