"""Byte-for-byte checks of `fgl` stdout against frozen golden files.

Each file under tests/golden/ is the stdout of `python -m hondafgl <argv>`
at commit b26005e, before the CLI and the p-series were rewritten.  A
change to any of these outputs is a change of behaviour, not a refactor:
the files are not to be regenerated to make this test pass.
"""

from pathlib import Path

import pytest

from hondafgl.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "witt-p2-j3.txt": "witt --p 2 --jmax 3",
    "witt-p2-j3-modp.txt": "witt --p 2 --jmax 3 --mod-p",
    "witt-p3-j2.json": "witt --p 3 --jmax 2 --json",
    "compute-p2-s2-l5-all.txt": "compute --p 2 --s 2 --level 5 --coeff-table --verify-degree-bound --regrade",
    "compute-p3-s2-l3-all.json": "compute --p 3 --s 2 --level 3 --coeff-table --verify-degree-bound --regrade --json",
    "compute-p2-s3-l2.txt": "compute --p 2 --s 3 --level 2",
    "pseries-p2-s2-l5-k0.txt": "pseries --p 2 --s 2 --level 5 --k 0",
    "pseries-p2-s2-l5-k1.txt": "pseries --p 2 --s 2 --level 5 --k 1",
    "pseries-p2-s2-l5-k3.txt": "pseries --p 2 --s 2 --level 5 --k 3",
    "pseries-p3-s2-l4-k2.txt": "pseries --p 3 --s 2 --level 4 --k 2",
    "pseries-p2-s2-l5-k2.json": "pseries --p 2 --s 2 --level 5 --k 2 --json",
    "oracle-p2-s1-d9-pseries.json": "oracle --p 2 --s 1 --degree 9 --check-pseries --json",
    "oracle-p2-s2-d17-checks.txt": "oracle --p 2 --s 2 --degree 17 --check-associativity --check-pseries",
    "verify-p2-s2-l3.txt": "verify --p 2 --s 2 --level 3",
    "verify-p3-s2-l2-d19.json": "verify --p 3 --s 2 --level 2 --degree 19 --json",
    "chern-p2-s2-k1.txt": "chern --p 2 --s 2 --k 1",
    "chern-p3-s2-k1.json": "chern --p 3 --s 2 --k 1 --json",
}


def test_every_golden_file_is_listed():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("FGL_MAX_TERMS", raising=False)
    status = main(GOLDEN[name].split())
    captured = capsys.readouterr()
    assert status == 0, captured.err
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN_DIR / name).read_bytes()
