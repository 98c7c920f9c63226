import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from chancompat import sdp
from chancompat.channels import DynamicalMap, amplitude_damping_choi, identity_channel
from chancompat.cli import main
from conftest import channel_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_numpy_only():
    # the library runs on numpy alone: no scipy, and no process pool
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import chancompat, chancompat.cli;"
        " print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_sweep_smoke_two_rows(capsys):
    code, out, err = run_cli(
        [
            "sweep", "--family", "identity", "--family2", "depolarizing-indiv",
            "--t-step", "0.5", "--t-max", "0.5",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,r_generic,r_cd,trace_distance"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_figure_row_count_and_determinism(tmp_path, capsys):
    args = [
        "figure", "--id", "1", "--t-step", "0.25", "--t-max", "0.75",
        "--output", str(tmp_path / "a.csv"),
    ]
    assert main(args) == 0
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert len(lines) - 1 == int(np.floor(0.75 / 0.25)) + 1


def test_figure_seven_has_teleport_columns(capsys):
    code, out, _ = run_cli(
        ["figure", "--id", "7", "--t-step", "0.5"], capsys
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "t,r_generic,r_cd,trace_distance,n_value,f_max"
    first = out.splitlines()[1].split(",")
    assert first[-2] == "3" and first[-1] == "1"


def test_figure_seven_evaluates_each_map_once_per_time(tmp_path, monkeypatch):
    # the teleportation columns read map2's channel from the sweep's records
    calls = []
    evaluate = DynamicalMap.evaluate

    def counted(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(DynamicalMap, "evaluate", counted)
    path = tmp_path / "f.csv"
    assert main(["figure", "--id", "7", "--t-step", "0.1", "-o", str(path)]) == 0
    assert len(calls) == 22
    golden = Path(__file__).parent / "data" / "fig7.csv"
    assert set(path.read_text().splitlines()) <= set(golden.read_text().splitlines())


def test_noise_selection_controls_columns(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--family", "identity", "--family2", "eternal",
            "--t-step", "1", "--t-max", "1", "--noise", "cd",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "t,r_cd,trace_distance"


def test_nine_significant_digits(capsys):
    code, out, _ = run_cli(
        ["teleport", "--family", "depolarizing-div", "--t-step", "0.1", "--t-max", "0.1"],
        capsys,
    )
    assert code == 0
    row = out.splitlines()[2].split(",")
    # n = 3*exp(-0.05) to nine significant digits
    assert row[1] == format(3 * np.exp(-0.05), ".9g")


def test_custom_choi_input(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(channel_json(amplitude_damping_choi(0.3)))
    code, out, _ = run_cli(
        [
            "sweep", "--family", "custom", "--choi", str(path),
            "--family2", "identity", "--t-step", "1", "--t-max", "1",
        ],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_qutrit_pair_sweeps_its_trace_distance(tmp_path, capsys):
    # the trace distance evolves |0><0| and |1><1| of map2's own input dimension
    path = tmp_path / "q3.json"
    path.write_text(channel_json(identity_channel(3)))
    code, out, err = run_cli(
        [
            "sweep", "--family", "custom", "--choi", str(path),
            "--family2", "custom", "--choi2", str(path), "--t-max", "0",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["t,r_generic,r_cd,trace_distance", "0,0.5,0.6,1"]


def test_custom_without_choi_is_usage_error(capsys):
    # each position names its own channel file flag
    for argv, phrase in [
        (["--family", "custom", "--family2", "identity"], "--family custom requires a --choi JSON file"),
        (["--family", "identity", "--family2", "custom"], "--family2 custom requires a --choi2 JSON file"),
    ]:
        with pytest.raises(SystemExit) as err:
            main(["sweep", *argv])
        assert err.value.code == 2
        assert phrase in capsys.readouterr().err


@pytest.mark.parametrize("position", ["", "2"], ids=["choi", "choi2"])
def test_stray_choi_is_usage_error(position, capsys):
    # a channel file that no custom family reads is refused before it is opened
    argv = ["sweep", "--family", "identity", "--family2", "identity", "--t-max", "0"]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"--choi{position}", "/nonexistent.json"])
    out = capsys.readouterr()
    assert (err.value.code, out.out) == (2, "")
    assert f"--choi{position} is read only with --family{position} custom" in out.err


@pytest.mark.parametrize(
    "fig, family1, family2",
    [
        (1, "depolarizing-div", "depolarizing-div"),
        (2, "depolarizing-indiv", "depolarizing-indiv"),
        (3, "depolarizing-div", "depolarizing-indiv"),
        (4, "identity", "depolarizing-indiv"),
        (5, "identity", "amplitude-damping"),
        (6, "identity", "eternal"),
    ],
)
def test_figure_is_the_sweep_of_its_family_pair(fig, family1, family2, capsys):
    # the paper's pairs at the default parameters, written out rather than read from the table
    step = ["--t-step", "0.25"]
    figure = run_cli(["figure", "--id", str(fig), *step], capsys)
    pair = run_cli(["sweep", "--family", family1, "--family2", family2, *step], capsys)
    assert figure == pair
    assert figure[0] == 0 and len(figure[1].splitlines()) == 6


def test_malformed_choi_returns_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"din": 2}))
    code, _, err = run_cli(
        ["sweep", "--family", "custom", "--choi", str(path), "--family2", "identity"],
        capsys,
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spelling", ['2.7', '"2"', "true"], ids=["fraction", "string", "bool"])
def test_choi_dimensions_must_be_json_integers(tmp_path, capsys, spelling):
    text = channel_json(identity_channel(2)).replace('"din": 2', f'"din": {spelling}')
    path = tmp_path / "chan.json"
    path.write_text(text)
    code, out, err = run_cli(
        ["sweep", "--family", "custom", "--choi", str(path), "--family2", "identity"], capsys
    )
    assert (code, out) == (2, "")
    assert "din and dout must be integers" in err


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["figure"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--family", "bogus", "--family2", "identity"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--id", "1", "--t-max", "0.02"],
        ["sweep", "--family", "identity", "--family2", "identity", "--t-max", "0"],
        ["measure"],
    ],
    ids=["figure", "sweep", "measure"],
)
def test_grid_step_is_not_a_flag(argv, capsys):
    # the robustness grid step is the constant robustness.DR, not a setting
    with pytest.raises(SystemExit) as err:
        main([*argv, "--dr", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --dr 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, phrase",
    [
        (["teleport", "--t-step", "0"], 2, "t_step must be positive"),
        (["teleport", "--t-min", "1", "--t-max", "0.5"], 2, "below t_min"),
        (["teleport", "--family", "amplitude-damping", "--alpha", "-0.5"], 2, "outside [0, 1]"),
        (["teleport", "-o", "."], 1, "I/O error"),
        (["figure", "--id", "1", "--t-max", "0", "-o", "."], 1, "I/O error"),
        (["teleport", "--t-max", "inf"], 2, "t_max must be finite"),
        (["teleport", "--t-min", "nan"], 2, "t_min must be finite"),
        (["figure", "--id", "1", "--t-step", "nan"], 2, "t_step must be finite"),
        (["figure", "--id", "1", "--t-step", "5e-324"], 2, "t_step 5e-324 over the span 1.0 gives inf steps"),
        (["teleport", "--t-min=-1e308", "--t-max", "1e308"], 2, "t_step 0.01 over the span inf gives"),
        # an input that cannot be read exits 2 naming its flag, an output that
        # cannot be written exits 1, whatever the OSError
        (["sweep", "--family", "custom", "--choi", ".", "--family2", "identity"], 2, "error: --choi: [Errno"),
        (["sweep", "--family", "custom", "--choi", "/nonexistent.json", "--family2", "identity"], 2,
         "error: --choi: [Errno"),
        (["sweep", "--family", "identity", "--family2", "custom", "--choi2", "."], 2, "error: --choi2: [Errno"),
        (["teleport", "--t-max", "0", "-o", "/nonexistent/dir/x.csv"], 1, "I/O error"),
    ],
    ids=["zero-step", "reversed-range", "negative-alpha", "teleport-to-dir", "figure-to-dir",
         "t-max-inf", "t-min-nan", "t-step-nan", "t-step-overflow", "t-span-overflow",
         "choi-is-dir", "choi-missing", "choi2-is-dir", "output-dir-missing"],
)
def test_bad_input_exits_with_message(argv, code, phrase, capsys):
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    assert phrase in err


def test_measure_command(capsys):
    code, out, _ = run_cli(
        [
            "measure", "--family", "depolarizing-div", "--t-step", "0.25",
            "--t-max", "0.5",
        ],
        capsys,
    )
    assert code == 0
    assert "measure_raw:     0" in out
    assert "reference:       identity" in out


def test_unconverged_figure_is_flagged_not_aborted(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
    path = tmp_path / "f.csv"
    code, _, err = run_cli(
        ["figure", "--id", "4", "--t-step", "0.1", "-o", str(path)], capsys
    )
    assert code == 1
    assert len(path.read_text().splitlines()) - 1 == 11
    assert "indeterminate solves at t = [" in err


def test_unconverged_measure_is_flagged(capsys, monkeypatch):
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
    code, out, err = run_cli(["measure", "--t-step", "0.02", "--t-max", "0.2"], capsys)
    assert code == 1
    assert "measure_raw:" in out
    assert "indeterminate solves at t = [" in err


def test_measure_undersampled_grid_is_error(capsys):
    code, _, err = run_cli(
        ["measure", "--family", "depolarizing-indiv", "--t-step", "0.1"],
        capsys,
    )
    assert code == 2
    assert "undersamples" in err


def test_validate_only_filter(capsys):
    code, out, _ = run_cli(["validate", "--only", "teleportation_curve"], capsys)
    assert code == 0
    assert "[PASS] teleportation_curve" in out
    assert "1/1 checks passed" in out


def test_validate_unknown_filter(capsys):
    code, _, err = run_cli(["validate", "--only", "nonexistent_check"], capsys)
    assert code == 2
    assert "no check matches" in err


def test_validate_reports_failure_with_nonzero_exit(capsys, monkeypatch):
    from chancompat import validation

    def broken():
        return False, "forced failure", []

    monkeypatch.setitem(validation.CHECKS, "teleportation_curve", broken)
    code, out, _ = run_cli(["validate", "--only", "teleportation_curve"], capsys)
    assert code == 1
    assert "[FAIL] teleportation_curve" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize(
    "check", ["upward_closure", "measurement_channel_bound", "identity_self_robustness"]
)
def test_validate_fails_on_unconverged_solves(check, capsys, monkeypatch):
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
    code, out, err = run_cli(["validate", "--only", check], capsys)
    assert code == 1
    assert f"[FAIL] {check}" in out
    assert "indeterminate" in out or "did not converge" in out
    assert "Traceback" not in err


def test_measure_signs_fails_on_unconverged_sweeps(capsys, monkeypatch):
    from chancompat import validation

    # a private record cache: the 2-iteration records and sweep times never
    # reach the shared ones that the golden-CSV and closed-form tests read. At
    # 3 iterations the identity pair's generic bracket already lies inside one
    # grid cell.
    private = lru_cache(maxsize=None)(validation._figure_records.__wrapped__)
    monkeypatch.setattr(validation, "_figure_records", private)
    monkeypatch.setattr(validation, "_SWEEP_SECONDS", {})
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 2)
    code, out, _ = run_cli(["validate", "--only", "measure_signs"], capsys)
    assert code == 1
    assert "[FAIL] measure_signs" in out
    assert "('divisible', 0.0)" in out and "(4, 0.0)" in out and "(5, 0.0)" in out
