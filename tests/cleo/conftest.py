"""Field-at-a-time oracles for the CLEO event path.

The derivations as they were before they went per event: every value its
own ``float()``, its own one-element array, its own ``array_asu`` — and the
hit truth one Python multiply-add per (track, plane).  The production code
must produce exactly these bytes.
"""

import numpy as np

from repro.cleo.postrecon import POSTRECON_ASUS
from repro.cleo.reconstruction import tracks_of
from repro.eventstore.arrays import array_asu
from repro.eventstore.model import Event


def oracle_derive_event(recon_event, stats):
    tracks = tracks_of(recon_event)
    n_tracks = tracks.shape[0]
    x0 = tracks[:, 0]
    slopes = tracks[:, 1]
    chi2 = tracks[:, 2]
    mean_chi2 = float(chi2.mean())
    values = {
        "multiplicity": float(n_tracks),
        "meanChi2": mean_chi2,
        "maxChi2": float(chi2.max()),
        "slopeSpread": float(slopes.std()),
        "interceptSpread": float(x0.std()),
        "eventShape": float(x0.std() / (slopes.std() + 1e-6)),
        "vertexEstimate": float(x0.mean()),
        "momentumProxy": float(np.abs(slopes).mean()),
        "qualityFlag": float(1.0 if mean_chi2 < 3.0 else 0.0),
        "multiplicityZ": float(
            (n_tracks - stats.mean_multiplicity) / stats.std_multiplicity
        ),
        "chi2Z": float((mean_chi2 - stats.mean_chi2) / stats.std_chi2),
        "runNormFactor": float(stats.mean_multiplicity),
    }
    return Event(
        run_number=recon_event.run_number,
        event_number=recon_event.event_number,
        asus={
            name: array_asu(name, np.array([values[name]], dtype=np.float32))
            for name in POSTRECON_ASUS
        },
    )


def oracle_measure(detector, tracks, rng):
    truth = np.array(
        [[track.x0 + track.slope * plane_z for plane_z in detector.plane_z]
         for track in tracks]
    )
    smear = rng.normal(0.0, detector.config.wire_resolution_cm, size=truth.shape)
    return (truth + detector.misalignment + smear).astype(np.float32)
