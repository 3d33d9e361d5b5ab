"""CLI reports compared byte for byte with stored ones.

Each case runs ``voliso.cli.main`` from ``tests/data`` on an input file
there and compares stdout with ``tests/data/<name>.expected``.  The
expected files were written by the same commands before the identity
decompositions of ``john``, ``brascamp_lieb`` and ``lp_spaces`` were
merged into ``BLSystem``, so they pin the report format and every figure
in it.
"""
from pathlib import Path

import pytest

from voliso.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "john_cube_symmetric": ["john", "--input", "cube.json", "--symmetric"],
    "john_simplex_vfile": ["john", "--input", "simplex.json"],
    "bl_mixed_densities": ["bl", "--input", "system.json", "--densities",
                           "densities.json", "--samples", "20000",
                           "--seed", "3"],
    "bl_mixed_densities_csv": ["bl", "--input", "system.json", "--densities",
                               "densities.json", "--samples", "20000",
                               "--seed", "3", "--format", "csv"],
    "lp_subspace_p1": ["lp", "--input", "subspace_p1.json", "--samples",
                       "20000", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_stored(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)      # reports embed the input path as given
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / f"{name}.expected").read_text(encoding="utf-8")
