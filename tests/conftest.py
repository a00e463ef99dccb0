import pytest

from seisreg import pipeline, synthbench
from seisreg.formats.svol import read_svol

BENCH_SEED = 7


@pytest.fixture(scope="session")
def bench_field():
    return synthbench.generate_field(synthbench.SynthFieldParams(seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_dir(bench_field, tmp_path_factory):
    """The benchmark written out in the on-disk formats the pipeline ingests."""
    out = tmp_path_factory.mktemp("bench")
    synthbench.write_field(bench_field, out)
    return out


@pytest.fixture(scope="session")
def bench_config_text(bench_dir):
    return synthbench.config_text(bench_dir)


@pytest.fixture(scope="session")
def workflow_reports(bench_config_text):
    """One full-workflow run per regularization method, shared across tests."""
    reports = {}
    for method in pipeline.METHODS:
        config = pipeline.parse_config(
            bench_config_text,
            {"method": method, "max_iters": "1500", "max_attempts": "1"},
        )
        report, bundle, _ = pipeline.run_workflow(config)
        reports[method] = report
    return reports


@pytest.fixture(scope="session")
def bench_well_a(bench_config_text):
    """Well A's target and attributes on the fine grid, prepared and
    normalized by the pipeline (pooled over all four wells)."""
    config = pipeline.parse_config(bench_config_text)
    volumes = {name: read_svol(getattr(config, f"vol_{name}"))
               for name in ("imp", "amp", "freq")}
    wells = [pipeline.prepare_well(wc, volumes, config.dt_ms)
             for wc in config.wells]
    _, _, targets, _ = pipeline.pool_patterns(wells)
    a = wells[0]
    return {"well_id": a.well_id, "sf_norm": a.series(targets[:len(a.sf)]),
            "attrs": {name: a.series(getattr(a, name))
                      for name in ("imp", "amp", "freq")}}
