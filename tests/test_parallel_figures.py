"""``workers`` stays inert under the default shard executor.

Under ``executor="thread"`` one thread runs every stage and shards run
inline, so both figure flows must give the same ``fingerprint`` at
``workers=1`` and above, across several seeds.  The process farm's bar
is ``tests/test_process_figures.py``.
"""

from dataclasses import replace

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from tests.conftest import fingerprint


def assert_inert(tmp_path, pipeline, config, workers):
    """``config`` at ``workers`` gives the fingerprint it gives at 1."""
    one, many = (
        fingerprint(pipeline(tmp_path / f"workers{n}", replace(config, workers=n)),
                    tmp_path / f"workers{n}")
        for n in (1, workers)
    )
    assert many == one


@pytest.mark.parametrize("seed", [7, 41, 113])
def test_figure1_parallel_matches_sequential(tmp_path, seed):
    sky = SkyModel(seed=seed, pulsar_fraction=0.5, binary_fraction=0.0, transient_rate=0.5,
                   period_range_s=(0.03, 0.12), snr_range=(15.0, 30.0))
    observation = ObservationConfig(n_channels=32, n_samples=2048)
    config = AreciboPipelineConfig(n_pointings=2, observation=observation, sky=sky, seed=seed)
    assert_inert(tmp_path, run_arecibo_pipeline, config, 4)


@pytest.mark.parametrize("seed", [5, 11])
def test_figure2_parallel_matches_sequential(tmp_path, seed):
    config = CleoPipelineConfig(n_runs=2, events_scale=0.0003, seed=seed)
    assert_inert(tmp_path, run_cleo_pipeline, config, 3)
