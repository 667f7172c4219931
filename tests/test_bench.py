"""Smoke tests of the benchmark harness internals (cheap experiments only;
the expensive paper-scale runs live in benchmarks/)."""

import pytest

from repro.bench import (
    ablation_sim_distribution,
    ablation_transfer_modes,
    format_table,
)
from repro.bench.experiments import lnni_levels
from repro.bench.tables import TableResult
from repro.sim.calibration import ReuseLevel


def test_format_table_alignment():
    text = format_table(["col", "value"], [["a", 1], ["longer", 22]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "col" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    assert len(lines) == 5
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows aligned


def test_table_result_holds_values():
    r = TableResult(experiment="x", text="t", values={"a": 1})
    assert r.values["a"] == 1


def test_ablation_transfer_values_consistent():
    r = ablation_transfer_modes(n_workers=20, object_mb=50)
    assert r.values["peer"] < r.values["manager-only"]
    assert "cluster-aware_2c" in r.values


def test_ablation_sim_distribution_small():
    r = ablation_sim_distribution(n_invocations=500)
    assert r.values["L3_peer"] <= r.values["L3_manager-only"]


def test_lnni_levels_memoizes():
    a = lnni_levels(n_invocations=200, n_workers=5, levels=(ReuseLevel.L3,))
    b = lnni_levels(n_invocations=200, n_workers=5, levels=(ReuseLevel.L3,))
    assert a["L3"] is b["L3"]  # cached RunResult object


def test_cli_list(capsys):
    from repro.bench.__main__ import main

    assert main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "fig6" in listed and "table5" in listed
    # Performance numbers come from benchmarks/ladder/run.py only; the
    # perf experiments this CLI once carried are unknown ids now.
    removed = {"dispatch", "payload", "shard", "policy", "telemetry", "slo"}
    assert not removed & set(listed)
    with pytest.raises(SystemExit):
        main(["dispatch"])


def test_cli_rejects_unknown():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["not-an-experiment"])
