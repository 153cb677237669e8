"""Tests for the CLI, the npz persistence, and the scorecard."""

import numpy as np
import pytest

from repro.analysis.dataset import FlowFrame
from repro.analysis.validation import Check, build_scorecard
from repro.cli import main


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory, small_frame):
    path = tmp_path_factory.mktemp("cli") / "capture.npz"
    small_frame.save_npz(path)
    return path


# --- persistence -----------------------------------------------------------


def test_npz_round_trip(small_frame, tmp_path):
    path = tmp_path / "frame.npz"
    small_frame.save_npz(path)
    loaded = FlowFrame.load_npz(path)
    assert len(loaded) == len(small_frame)
    assert loaded.countries == small_frame.countries
    assert loaded.domains == small_frame.domains
    assert np.array_equal(loaded.bytes_down, small_frame.bytes_down)
    nan_mask = np.isnan(small_frame.sat_rtt_ms)
    assert np.array_equal(np.isnan(loaded.sat_rtt_ms), nan_mask)
    assert np.array_equal(loaded.sat_rtt_ms[~nan_mask], small_frame.sat_rtt_ms[~nan_mask])


# --- scorecard ---------------------------------------------------------------


def test_check_semantics():
    good = Check("x", paper=10.0, measured=11.0, tolerance=2.0)
    bad = Check("y", paper=10.0, measured=15.0, tolerance=2.0)
    assert good.passed and not bad.passed
    assert bad.error == 5.0


def test_scorecard_on_dataset(small_frame):
    scorecard = build_scorecard(small_frame)
    assert scorecard.total >= 20
    # the small session fixture should satisfy most headline claims
    assert scorecard.passed >= scorecard.total - 4, [
        (c.name, c.paper, round(c.measured, 2)) for c in scorecard.failing()
    ]
    text = scorecard.render()
    assert "Calibration scorecard" in text
    assert f"{scorecard.passed}/{scorecard.total}" in text


# --- CLI ------------------------------------------------------------------------


def test_cli_generate_and_report(tmp_path, capsys):
    out = tmp_path / "cap.npz"
    code = main(
        ["generate", "--customers", "60", "--days", "1", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out

    code = main(["report", "--dataset", str(out), "--which", "table1,fig10"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Table 1" in printed
    assert "Figure 10" in printed


def test_cli_report_rejects_unknown(capture_path, capsys):
    code = main(["report", "--dataset", str(capture_path), "--which", "fig99"])
    assert code == 2


def test_cli_report_all(capture_path, capsys):
    code = main(["report", "--dataset", str(capture_path), "--which", "all"])
    assert code == 0
    printed = capsys.readouterr().out
    for marker in ("Table 1", "Figure 4", "Figure 8a", "Figure 11", "Table 2"):
        assert marker in printed


def test_cli_scorecard(capture_path, capsys):
    main(["scorecard", "--dataset", str(capture_path)])
    assert "Calibration scorecard" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", [["scorecard"], ["report", "--which", "table1,fig8"]], ids=lambda c: c[0]
)
def test_cli_workload_flags_match_set_overrides(command, tmp_path, monkeypatch, capsys):
    """``--customers/--days/--seed`` name the same capture as the
    ``--set`` spelling: same stdout bytes, same exit code."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    by_flags = main(command + ["--customers", "120", "--days", "3", "--seed", "11"])
    flags_out = capsys.readouterr().out
    by_set = main(
        command
        + [
            "--set", "population.n_customers=120",
            "--set", "workload.days=3",
            "--set", "workload.seed=11",
        ]
    )
    assert (by_flags, flags_out) == (by_set, capsys.readouterr().out)
    assert flags_out


def test_cli_errant(capture_path, capsys):
    code = main(["errant", "--dataset", str(capture_path), "--country", "Spain", "--netem"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "geo-satcom-spain" in printed
    assert "netem" in printed


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", ["generate", "stream"])
@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
def test_cli_rejects_bad_worker_counts(command, value, capsys):
    argv = [command, "--workers", value]
    if command == "stream":
        argv += ["--dir", "unused"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage error
    assert "--workers" in capsys.readouterr().err


def test_cli_workers_accepts_auto_and_positive():
    from repro.cli import _worker_count

    assert _worker_count("auto") == 0  # 0 = one per core downstream
    assert _worker_count("AUTO") == 0
    assert _worker_count("4") == 4


def test_cli_mixed_sim(capsys):
    code = main(["mixed-sim", "--n", "1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "tcp/https" in printed
    assert "RTP mouth-to-ear" in printed


# --- capture auto-detection and diagnostics -------------------------------


def test_cli_report_missing_dataset(tmp_path, capsys):
    assert main(["report", "--dataset", str(tmp_path / "void.npz")]) == 2
    assert "no such capture" in capsys.readouterr().err


def test_cli_report_unrecognized_npz(tmp_path, capsys):
    path = tmp_path / "junk.npz"
    np.savez(path, junk=np.arange(4))
    assert main(["report", "--dataset", str(path)]) == 2
    assert "neither a frame capture" in capsys.readouterr().err


def test_cli_scorecard_missing_dataset(tmp_path, capsys):
    assert main(["scorecard", "--dataset", str(tmp_path / "void.npz")]) == 2
    assert "no such capture" in capsys.readouterr().err


def test_cli_report_and_scorecard_accept_capture_dir(tmp_path, capsys):
    directory = str(tmp_path / "cap")
    assert main([
        "stream", "--customers", "60", "--days", "1", "--seed", "3",
        "--no-compress", "--dir", directory,
    ]) == 0
    capsys.readouterr()
    assert main(["report", "--dataset", directory, "--which", "table1,fig6"]) == 0
    printed = capsys.readouterr().out
    assert "Table 1" in printed and "Figure 6" in printed
    main(["scorecard", "--dataset", directory])
    assert "Calibration scorecard" in capsys.readouterr().out


def test_cli_report_from_bare_rollup(tmp_path, capsys):
    directory = tmp_path / "cap"
    assert main([
        "stream", "--customers", "60", "--days", "1", "--seed", "3",
        "--no-compress", "--dir", str(directory),
    ]) == 0
    capsys.readouterr()
    rollup = str(directory / "rollup.npz")
    assert main(["report", "--dataset", rollup, "--which", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out
    # frame-only reports cannot run from sketches
    assert main(["report", "--dataset", rollup, "--which", "web-qoe"]) == 2
    assert "needs flow records" in capsys.readouterr().err
