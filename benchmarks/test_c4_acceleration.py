"""C4 — acceleration search for binary pulsars (Section 2.1).

Paper claim regenerated here: "another level of complexity comes from
addressing pulsars that are in binary systems, for which an acceleration
search algorithm also needs to be applied."

Component level: a drifting pulsar invisible to the plain Fourier search
is recovered by time-domain resampling trials.  Pipeline level: running
Figure 1 over a binary-rich sky with and without trials shows the recall
gained — and the false-candidate cost of the extra trials factor.
"""


from repro.arecibo.accelsearch import accel_search, acceleration_trials
from repro.arecibo.dedisperse import dedisperse
from repro.arecibo.fourier import search_spectrum
from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import Pulsar, SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from tests.arecibo.conftest import SMALL_CONFIG, single_pulsar_pointing

BINARY_SKY = SkyModel(
    seed=41,
    pulsar_fraction=0.8,
    binary_fraction=1.0,
    period_range_s=(0.03, 0.12),
    snr_range=(18.0, 30.0),
)


def component_rows():
    """Best matched S/N near truth, plain vs accelerated, per drift rate."""
    rows = []
    for accel in (0.0, 10.0, 20.0):
        pulsar = Pulsar("BIN", period_s=0.05, dm=40.0, snr=15.0, accel_ms2=accel)
        beams = ObservationSimulator(SMALL_CONFIG).observe(
            single_pulsar_pointing(pulsar, beam=0), seed=2
        )
        series = dedisperse(beams[0], 40.0)
        plain = search_spectrum(series, beams[0].tsamp_s, 40.0, snr_threshold=5.0)
        plain_near = max(
            (c.snr for c in plain if abs(c.freq_hz - 20.0) < 1.0), default=0.0
        )
        accelerated = accel_search(
            series, beams[0].tsamp_s, 40.0, acceleration_trials(25.0, 11),
            snr_threshold=5.0,
        )
        accel_near = max(
            (c.snr for c in accelerated if abs(c.freq_hz - 20.0) < 1.0), default=0.0
        )
        rows.append(
            {
                "true accel (m/s^2, scaled)": accel,
                "plain search S/N": f"{plain_near:.1f}",
                "accel search S/N": f"{accel_near:.1f}",
            }
        )
    return rows


def pipeline_rows(tmp_path):
    """Figure-1 recall over a binary-rich sky, trials off vs on."""
    rows = []
    for trials in (1, 5):
        config = AreciboPipelineConfig(
            n_pointings=3,
            observation=ObservationConfig(n_channels=48, n_samples=4096),
            sky=BINARY_SKY,
            accel_trials=trials,
        )
        report = run_arecibo_pipeline(tmp_path / f"trials{trials}", config)
        rows.append(
            {
                "accel trials": trials,
                "recall": f"{report.score.recovered}/{report.score.injected}",
                "false candidates": report.score.false_candidates,
            }
        )
    return rows


def test_c4_component(report_rows):
    rows = component_rows()
    # Unaccelerated pulsar: both searches see it.
    assert float(rows[0]["plain search S/N"]) > 10
    # Strongly accelerated pulsar: plain search loses it, trials recover it.
    assert float(rows[-1]["plain search S/N"]) < 8
    assert float(rows[-1]["accel search S/N"]) > 15
    report_rows("C4a: acceleration search, component level", rows)


def test_c4_pipeline(tmp_path, report_rows):
    rows = pipeline_rows(tmp_path)
    recall_off = int(rows[0]["recall"].split("/")[0])
    recall_on = int(rows[1]["recall"].split("/")[0])
    # Trials recover binaries the plain pipeline misses; the extra trials
    # factor costs false candidates (the survey's real trade-off).
    assert recall_on > recall_off
    report_rows("C4b: acceleration trials in the full pipeline", rows)
