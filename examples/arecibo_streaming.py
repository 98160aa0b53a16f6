"""The Arecibo survey as a stream: pointings arrive night by night.

The batch example (arecibo_survey.py) processes the whole survey in one
go.  In production the telescope observes continuously — so this example
runs the same Figure-1 pipeline *incrementally*: each window a few new
pointings arrive and the flow re-runs against a shared stage cache,
recomputing only the never-seen pointings' shards.  One window receives
nothing at all (a cloudy night) and replays entirely from cache.

The final window's report is byte-identical to a cold batch run over the
full survey; the windows only change when the compute happened.

Run:  python examples/arecibo_streaming.py
"""

import tempfile
from pathlib import Path

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_incremental
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig

ARRIVALS = [2, 1, 0, 1]  # pointings landing per nightly window


def main() -> None:
    config = AreciboPipelineConfig(
        n_pointings=sum(ARRIVALS),
        observation=ObservationConfig(n_channels=48, n_samples=4096),
        sky=SkyModel(
            seed=41,
            pulsar_fraction=0.6,
            binary_fraction=0.0,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
    )

    print("Observing night by night ... (about 10 s)\n")
    with tempfile.TemporaryDirectory() as workdir:
        result = run_arecibo_incremental(
            Path(workdir), config, arrivals=ARRIVALS
        )

    print("Nightly windows (shard misses = pointings actually computed):")
    for window in result.windows:
        report = window.report
        note = "cloudy night, replayed from cache" if window.new_pointings == 0 \
            else f"{window.new_pointings} new pointing(s) observed"
        print(f"  window {window.index}: {note}")
        print(f"    pointings seen      : {window.pointings_seen}")
        print(f"    stage cache         : {window.stage_hits} hits / "
              f"{window.stage_misses} misses")
        print(f"    shard cache         : {window.shard_hits} hits / "
              f"{window.shard_misses} misses")
        print(f"    candidates sifted   : {report.candidate_count_sifted}")
        print(f"    confirmed           : {len(report.confirmed)}")

    print()
    print("Window ledger (window.open / window.close accounting):")
    closes = [e for e in result.telemetry.events() if e.kind == "window.close"]
    for event in closes:
        attrs = dict(event.attrs)
        print(f"  window {attrs['window']}: arrivals={attrs['arrivals']} "
              f"cpu={attrs['cpu_seconds']:.0f} s  bytes={attrs['bytes']:.3e}")

    final = result.final
    print()
    print("Final survey result (identical to one batch run):")
    print(f"  recall: {final.score.recall * 100:.0f} %, "
          f"false candidates surviving: {final.score.false_candidates}")
    for row in final.confirmed[:8]:
        print(f"  f={row['freq_hz']:8.2f} Hz  DM={row['dm']:5.1f}  "
              f"S/N={row['snr']:5.1f}  pointing {row['pointing_id']} "
              f"beam {row['beam']}")


if __name__ == "__main__":
    main()
