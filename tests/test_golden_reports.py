"""CLI reports compared byte for byte with stored ones.

Each case runs ``voliso.cli.main`` from ``tests/data`` on an input file
there and compares stdout with ``tests/data/<name>.expected``.  The
expected files were written by the same commands before the identity
decompositions of ``john``, ``brascamp_lieb`` and ``lp_spaces`` were
merged into ``BLSystem``, so they pin the report format and every figure
in it.  The three Monte Carlo reports were re-pinned when the Student-t
proposal came to be drawn from normals and uniforms: the ``bl`` ratio went
0.7294087 +- 0.0126008 -> 0.7338748 +- 0.0126173 (z = +0.25 on the
combined error) in both formats, the ``lp`` volume ratio 1.1194538 +-
0.0042097 -> 1.1175733 +- 0.0042497 (z = -0.31), and both still pass.
They were re-pinned again when each Student-t coordinate came to be drawn
from the median of three uniforms, one row block at a time: the ``bl``
ratio went 0.7338748 +- 0.0126173 -> 0.7253673 +- 0.0125557 (z = -0.48) in
both formats and the ``lp`` volume ratio 1.1175733 +- 0.0042497 ->
1.1166519 +- 0.0042155 (z = -0.15); both still pass.  The ``lp`` report
was re-pinned once more when vr(l_p^n) came to be evaluated in log space,
with no Monte Carlo figure moved: ``l1_bound.exact`` went, being
vr(l_1^n) = ``reference_vr`` itself, and ``reference_vr`` moved by 1 ulp,
1.1283791670955126 -> 1.1283791670955128, the value ``l1_bound.exact``
had.  It was re-pinned again when the gauge integral came to subtract the
log density the Student-t draw returns instead of ``logpdf`` of its rows:
the volume ratio moved by 1 ulp, 1.1166518643256849 -> 1.116651864325685
(+2.0e-16), its std_error kept its bits, and both ``bl`` reports kept
theirs.  The ``lp`` report was re-pinned when the Lewis sweep came to take
the step 4 / (p + 2) instead of 0.5: it stops at another point of the
fixed point, whose frame is turned by 1.3e-4 rad, so ``lewis_residual``
went 8.034383107514591e-11 -> 5.71799411788746e-11, the volume ratio
1.116651864325685 -> 1.1166518059013497 (-5.2e-8 relative, 1.4e-5 of its
std_error) and its std_error 0.004215545382779356 -> 0.00421562600911398
(+1.9e-5 relative).
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
