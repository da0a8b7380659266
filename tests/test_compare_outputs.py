"""``tools/compare_outputs.py`` on fabricated output directories.

The commands themselves are not run here: the comparison is checked on
hand-written reports, CSVs and manifests.
"""

import importlib.util
import json
from pathlib import Path

from nelsonlab import cli

spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _outputs(root: Path, timestamp: str) -> Path:
    root.mkdir()
    (root / "mourre_report.json").write_text('{"min_r_g0": 0.125}\n')
    (root / "mourre_sweep.csv").write_text("g,min_r,fitted_C,config_hash\n0.01,0.1,0.2,ab\n")
    (root / "mourre_manifest.json").write_text(json.dumps(
        {"command": "mourre", "timestamp": timestamp, "stats": {"dim": 45}}))
    return root


def test_runs_every_command_with_report_last():
    assert set(compare_outputs.COMMANDS) == set(cli.COMMANDS)
    assert compare_outputs.COMMANDS[-1] == "report"


def test_manifests_compare_without_their_timestamp(tmp_path):
    parent = _outputs(tmp_path / "parent", "2026-01-01T00:00:00Z")
    change = _outputs(tmp_path / "change", "2026-01-02T00:00:00Z")
    assert compare_outputs.compare_dirs(parent, change) == []
    (change / "mourre_manifest.json").write_text(json.dumps(
        {"command": "mourre", "timestamp": "x", "stats": {"dim": 46}}))
    assert compare_outputs.compare_dirs(parent, change) == ["mourre_manifest.json"]


def test_reports_and_csvs_compare_byte_for_byte(tmp_path):
    parent = _outputs(tmp_path / "parent", "t")
    change = _outputs(tmp_path / "change", "t")
    # the same JSON value, written differently, is a difference
    (change / "mourre_report.json").write_text('{"min_r_g0": 1.25e-1}\n')
    (change / "mourre_sweep.csv").write_text("g,min_r,fitted_C,config_hash\n0.01,0.1,0.2,ac\n")
    (change / "evolve_track.csv").write_text("t\n")
    assert compare_outputs.compare_dirs(parent, change) == [
        "evolve_track.csv", "mourre_report.json", "mourre_sweep.csv"]
