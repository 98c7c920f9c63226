"""Default-grid figure CSVs must stay byte-identical to the stored output of
`chancompat figure --id N -o tests/data/figN.csv`. The records come from the
sweeps the acceptance suite already caches, so these tests add no solves.

The `measure` goldens replay two stored runs through `cli.main`: the default
`chancompat measure` (tests/data/measure.txt), and
`chancompat measure --family amplitude-damping --noise cd --t-step 0.02
-o tests/data/measure_ad_cd.csv` with its stdout in measure_ad_cd.txt. The
teleport goldens are `chancompat teleport --family amplitude-damping -o
tests/data/teleport_ad.csv` and `--family eternal -o
tests/data/teleport_eternal.csv`, the two families whose Pauli correlations
are not those of a depolarizing map (figure 7 pins that case).

Figures 5 and 6 have no closed form, and a grid golden cannot see a refined
regression that stays inside a certified cell, so their refined curves are
pinned too: `chancompat figure --id N --refine --t-step 0.05 -o
tests/data/figN_refine.csv`. A refined value is accurate to about the
solver's 1e-9, so its r columns are compared within 1e-8 and the other
columns exactly."""

from pathlib import Path

import pytest

from chancompat.cli import _sweep_to_csv, main
from chancompat.figures import FIGURES
from chancompat.validation import _figure_records

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("fig", [1, 2, 3, 4, 5, 6, 7])
def test_figure_csv_is_byte_identical(fig):
    # figure 7 sweeps the maps of figure 4 and adds its teleportation columns
    records = _figure_records(4 if fig == 7 else fig)
    text = "\n".join(_sweep_to_csv(records, FIGURES[fig].teleport_columns)) + "\n"
    assert text.encode() == (DATA / f"fig{fig}.csv").read_bytes()


@pytest.mark.parametrize("fig", [5, 6])
def test_refined_figure_csv_matches_within_solver_accuracy(tmp_path, fig):
    path = tmp_path / "refined.csv"
    assert main(["figure", "--id", str(fig), "--refine", "--t-step", "0.05", "-o", str(path)]) == 0
    got = [line.split(",") for line in path.read_text().splitlines()]
    want = [line.split(",") for line in (DATA / f"fig{fig}_refine.csv").read_text().splitlines()]
    assert got[0] == want[0] == ["t", "r_generic", "r_cd", "trace_distance"]
    assert len(got) == len(want) == 22
    for row, ref in zip(got[1:], want[1:]):
        assert (row[0], row[3]) == (ref[0], ref[3])
        assert all(abs(float(a) - float(b)) <= 1e-8 for a, b in zip(row[1:3], ref[1:3])), (row, ref)


def test_measure_stdout_is_byte_identical(capsys):
    assert main(["measure"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "measure.txt").read_bytes()


def test_measure_curve_csv_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    argv = ["measure", "--family", "amplitude-damping", "--noise", "cd", "--t-step", "0.02", "-o", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / "measure_ad_cd.txt").read_bytes()
    assert path.read_bytes() == (DATA / "measure_ad_cd.csv").read_bytes()


@pytest.mark.parametrize("family,name", [("amplitude-damping", "ad"), ("eternal", "eternal")])
def test_teleport_csv_is_byte_identical(tmp_path, family, name):
    path = tmp_path / "teleport.csv"
    assert main(["teleport", "--family", family, "-o", str(path)]) == 0
    assert path.read_bytes() == (DATA / f"teleport_{name}.csv").read_bytes()
