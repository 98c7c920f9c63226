"""Default-grid figure CSVs must stay byte-identical to the stored output of
`chancompat figure --id N -o tests/data/figN.csv`. The records come from the
sweeps the acceptance suite already caches, so these tests add no solves."""

from pathlib import Path

import pytest

from chancompat.cli import _sweep_to_csv
from chancompat.figures import FIGURES
from chancompat.validation import _figure_records

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("fig", [1, 2, 3, 4, 5, 6, 7])
def test_figure_csv_is_byte_identical(fig):
    # figure 7 sweeps the maps of figure 4 and adds its teleportation columns
    spec = FIGURES[fig]
    teleport_map = spec.map2 if spec.teleport_columns else None
    records = _figure_records(4 if fig == 7 else fig)
    text = "\n".join(_sweep_to_csv(records, "both", teleport_map)) + "\n"
    assert text.encode() == (DATA / f"fig{fig}.csv").read_bytes()
