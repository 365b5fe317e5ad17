"""Micro-scale runs of the remaining experiment modules.

Each experiment must execute end-to-end and produce structurally sound
tables; the directional claims are covered by test_integration.py at a
larger scale.
"""

import dataclasses

import pytest

from repro.experiments.common import ExperimentConfig, get_experiment

MICRO = ExperimentConfig(scale=0.0625, frames_per_app=1, cache_dir=None)


def _single_app_config():
    """One application only: monkeying frames() would be invasive, so
    these heavier experiments run at micro scale with 12 frames."""
    return MICRO


@pytest.mark.parametrize("experiment_id", ["fig05", "fig06", "fig07", "fig09"])
def test_characterization_figures_run(experiment_id):
    tables = get_experiment(experiment_id).run(_single_app_config())
    for table in tables:
        assert table.rows
        assert table.rows[-1][0] == "Average"


def test_fig05_three_panels_ordered():
    tables = get_experiment("fig05").run(MICRO)
    assert len(tables) == 3
    # OPT's texture hit rate beats NRU's on average (paper's headline gap).
    tex = tables[0]
    average = tex.rows[-1]
    belady, nru = average[1], average[3]
    assert belady > nru


def test_fig06_consumption_bounded():
    upper, lower = get_experiment("fig06").run(MICRO)
    for row in lower.rows:
        for cell in row[1:]:
            assert 0.0 <= cell <= 100.0


def test_fig07_death_ratios_bounded():
    _, lower = get_experiment("fig07").run(MICRO)
    for row in lower.rows:
        for cell in row[1:]:
            assert 0.0 <= cell <= 1.0


def test_fig11_reference_column_zero():
    table = get_experiment("fig11").run(MICRO)[0]
    reference = table.column("t=16")
    for value in reference:
        assert value == pytest.approx(0.0)


def test_fig12_has_all_policies():
    table = get_experiment("fig12").run(MICRO)[0]
    assert "GSPC+UCD" in table.headers
    assert len(table.rows) == 13  # 12 apps + average


def test_fig13_rates_bounded():
    table = get_experiment("fig13").run(MICRO)[0]
    for row in table.rows:
        for cell in row[1:]:
            assert 0.0 <= cell <= 100.0


def test_fig14_iso_overhead_policies():
    table = get_experiment("fig14").run(MICRO)[0]
    assert table.headers[1:] == ["LRU", "DRRIP4", "GS-DRRIP4", "GSPC+UCD"]


def test_fig15_speedups_positive():
    table = get_experiment("fig15").run(MICRO)[0]
    for row in table.rows:
        for cell in row[1:]:
            assert cell > 0.0
    # Every fig15 policy has a kernel, so auto times each on the fast engine.
    assert table.provenance["timing_engines"] == {
        "drrip+ucd": "fast",
        "nru+ucd": "fast",
        "gs-drrip+ucd": "fast",
        "gspc+ucd": "fast",
    }


def test_fig16_uses_16mb():
    big = dataclasses.replace(MICRO, llc_mb=16)
    assert big.system().llc.params.capacity_bytes > MICRO.system().llc.params.capacity_bytes


def test_fig17_two_panels():
    tables = get_experiment("fig17").run(MICRO)
    assert len(tables) == 2
    assert "DDR3-1867" in tables[0].title
    assert "64 cores" in tables[1].title


def test_ablation_registered_and_structured():
    tables = get_experiment("ablation").run(MICRO)
    assert len(tables) == 5
    ladder = tables[0]
    assert ladder.rows[0][0] == "GS-DRRIP"
    render_caches = tables[4]
    # Larger render caches filter more accesses away from the LLC.
    accesses = render_caches.column("LLC accesses")
    assert accesses[0] > accesses[-1]


def test_extensions_registered():
    tables = get_experiment("extensions").run(MICRO)
    assert len(tables) == 2
    bypass = tables[0]
    assert any("BYPASS" in str(row[0]) for row in bypass.rows)


def test_timing_models_cross_validation():
    table = get_experiment("timing").run(MICRO)[0]
    assert table.headers[1] == "Windowed model"
    # Belady must be the fastest policy under BOTH timing models.
    belady = table.rows[-1]
    assert belady[0] == "BELADY+UCD"
    for other in table.rows[:-1]:
        assert belady[1] >= other[1]
        assert belady[2] >= other[2]
