"""Output bytes of four short runs against ``tests/golden.json``.

Criteria 3 and 11 compare two runs of the same code, so they cannot see
a change that moves both sides.  This test compares against bytes
written by ``tests/make_golden.py``.  They are only comparable on the
platform that wrote them, so it skips, naming the difference, where the
platform fingerprint does not match.
"""

import json

import pytest

from make_golden import GOLDEN, digests, fingerprint


def test_output_bytes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    mismatch = {key: (golden["fingerprint"][key], here[key])
                for key in here if golden["fingerprint"].get(key) != here[key]}
    if mismatch:
        pytest.skip(f"platform differs from golden.json (golden, here): "
                    f"{mismatch}")
    got = digests()
    moved = sorted(name for name in golden["digests"]
                   if got.get(name) != golden["digests"][name])
    assert not moved, f"output bytes moved: {moved}"
    assert got.keys() == golden["digests"].keys()
