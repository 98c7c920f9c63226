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
are not those of a depolarizing map (figure 7 pins that case)."""

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
    text = "\n".join(_sweep_to_csv(records, "both", FIGURES[fig].teleport_columns)) + "\n"
    assert text.encode() == (DATA / f"fig{fig}.csv").read_bytes()


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
