"""``scripts/mutants.py`` runs each mutant of ``src/fedgate`` against the tests that reach it.

Its full sweep takes about 40 minutes on a 2-CPU host, so it is not part of tier-1. This runs
it, in a subprocess, over one small module and one probe test, and checks that
every key of its ``EQUIVALENT`` table and of ``scripts/unreached.py``'s
``ALLOWED`` table still names a statement of ``src/fedgate``.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

from mutants import EQUIVALENT, SRC, mutants
from unreached import ALLOWED, statements

PROBE = """
import pytest

from fedgate.claims import VerifiableClaim
from fedgate.errors import ValidationError


def test_a_claim_that_expires_before_it_is_issued_is_refused():
    with pytest.raises(ValidationError):
        VerifiableClaim("role", "x", "did:efed:a", "did:efed:b", 10, 5, b"")
"""


def test_the_sweep_kills_a_mutant_the_probe_sees_and_fails_on_one_it_does_not(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutants.py"), "fedgate/claims.py", "--", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "fedgate/claims.py: 1 killed, 1 survived" in run.stdout, run.stdout + run.stderr
    # turning the check off is killed; the probe's claim expires before it is
    # issued, so it cannot tell ``>=`` from ``>``, which is not in EQUIVALENT
    survivor = "fedgate/claims.py:36 VerifiableClaim.__post_init__: if self.issued_at >= self.expires_at: [>= -> >]"
    assert f"{survivor} (not in EQUIVALENT)" in run.stdout.splitlines()
    assert run.returncode == 1


def test_each_equivalent_key_names_a_mutant_and_each_allowed_key_a_statement():
    listed, made = set(), set()
    for path in sorted((SRC / "fedgate").rglob("*.py")):
        module, text = path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")
        for _, qualname, stmt, _, node in statements(path):
            listed.add((module, qualname, stmt))
            made.update((module, qualname, stmt, operator) for _, operator, _ in mutants(text, node))
    assert set(EQUIVALENT) <= made
    assert set(ALLOWED) <= listed
