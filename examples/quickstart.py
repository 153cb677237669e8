#!/usr/bin/env python
"""Quickstart: synthesize a SatCom capture and reproduce headline results.

Generates a small flow-level capture (the default is ~1 M flows in a
few seconds), then prints three of the paper's headline views:

* Table 1 — protocol breakdown,
* Figure 2 — who the traffic belongs to,
* Figure 8a — what the satellite does to RTT.

Run:  python examples/quickstart.py [n_customers] [days]

Set ``REPRO_CACHE=1`` to reuse the content-keyed capture cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``): the first run generates,
reruns reload the same capture in well under a second. ``REPRO_WORKERS``
sets the generation worker count (0 = one per core) — the capture is
bit-identical either way.
"""

from __future__ import annotations

import os
import sys

from repro.analysis.reports import fig2_country, fig8_satellite_rtt, table1_protocols
from repro.analysis.source import FrameSource
from repro.pipeline import generate_flow_dataset
from repro.scenario import get_scenario


def main() -> None:
    n_customers = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    raw_workers = os.environ.get("REPRO_WORKERS", "1")
    # "auto" = one worker per usable core, same as the CLI's --workers auto
    workers = 0 if raw_workers.strip().lower() == "auto" else int(raw_workers)

    scenario = get_scenario("baseline-geo").with_overrides(
        {
            "population.n_customers": n_customers,
            "workload.days": days,
            "workload.seed": 1,
            "execution.workers": workers,
        }
    )
    print(f"Generating {days} days of traffic for {n_customers} customers...")
    frame, generator = generate_flow_dataset(
        scenario=scenario,
        cache=bool(os.environ.get("REPRO_CACHE")),
    )
    print(f"Captured {len(frame):,} flows from {len(generator.population)} customers "
          f"in {len(set(s.country for s in generator.population.subscribers))} countries.\n")

    # Table 1 and Figure 2 read the capture's rollup: fold once, read twice.
    rollup = FrameSource(frame).to_rollup()
    print(table1_protocols.render(table1_protocols.from_rollup(rollup)))
    print()
    print(fig2_country.render(fig2_country.from_rollup(rollup)))
    print()
    result_a = fig8_satellite_rtt.compute_fig8a(frame)
    result_b = fig8_satellite_rtt.compute_fig8b(frame)
    print(fig8_satellite_rtt.render(result_a, result_b))

    from repro.analysis.plotting import ascii_cdf

    print("\nSatellite RTT CDFs at night (x log-scaled, ms):\n")
    print(
        ascii_cdf(
            {
                "Spain": result_a.samples["Spain"]["night"],
                "Congo": result_a.samples["Congo"]["night"],
                "Ireland": result_a.samples["Ireland"]["night"],
            },
            width=64,
            height=12,
            x_label="satellite RTT (ms)",
        )
    )

    spain_night = result_a.fraction_under("Spain", "night", 1000.0) * 100
    congo_tail = result_a.fraction_over("Congo", "night", 2000.0) * 100
    print(
        f"\nHeadlines: every satellite RTT sample sits above ~550 ms; "
        f"{spain_night:.0f} % of Spain's night samples are under 1 s "
        f"(paper: 82 %), while {congo_tail:.0f} % of Congo's exceed 2 s "
        f"even off-peak (paper: ~20 %) — PEP saturation, not beam capacity."
    )


if __name__ == "__main__":
    main()
