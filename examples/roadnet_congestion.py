#!/usr/bin/env python
"""Los-Angeles-style highway congestion detection (paper Fig 13).

Synthesizes a PeMS-like sensor network with per-sensor speed history,
injects an incident (a run of sensors far below their own historical
rush-hour speeds), and runs the paper's exact pipeline: normal-model
p-values from snapshots 1..t-1, binary weights at alpha, scan-statistics
MIDAS with k=12.

The paper's key qualitative point is reproduced: routinely congested
segments (slow *every* Friday rush hour) are NOT flagged, because their
history predicts the slowness; only the incident - unexpectedly slow
relative to its own history - lights up.

Run:  python examples/roadnet_congestion.py
"""

import numpy as np

from repro import RngStream
from repro.apps.roadnet import CongestionStudy, build_highway_network


def main() -> None:
    rng = RngStream(20140509, name="roadnet")  # Friday May 9, 2014
    net = build_highway_network(n_corridors=8, sensors_per_corridor=32,
                                rng=rng.child("map"))
    print(f"highway network: {net.graph} ({net.graph.n} sensors, "
          f"{net.corridor_of.max() + 1} corridors)")

    study = CongestionStudy(net, n_history=48, rush_hour_dip=14.0, incident_dip=24.0)
    current, mu, sigma, incident = study.synthesize(incident_len=8, rng=rng.child("data"))
    print(f"\ninjected incident: sensors {incident.tolist()} "
          f"on corridor {int(net.corridor_of[incident[0]])}")
    z = (current - mu) / sigma
    print(f"incident z-scores: mean {z[incident].mean():.1f} "
          f"(rest of network: {np.delete(z, incident).mean():+.2f})")

    result = study.detect(current, mu, sigma, k=12, alpha=0.05, eps=0.2,
                          rng=rng.child("detect"), extract=True)
    print(f"\n{result.summary()}")
    print(f"sensors flagged individually: {result.details['n_flagged_sensors']}")

    if result.cluster is not None:
        scores = CongestionStudy.score_recovery(result.cluster, incident)
        print(f"detected cluster: {sorted(int(x) for x in result.cluster)}")
        print(f"precision {scores['precision']:.2f}, recall {scores['recall']:.2f} "
              f"against the injected incident")
    print(
        "\nNote: every sensor is slow right now (rush hour), but only the\n"
        "incident run is slow *relative to its own history* - exactly the\n"
        "paper's 'unexpected congestion' semantics."
    )


if __name__ == "__main__":
    main()
