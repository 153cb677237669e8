"""One module per table/figure of the paper's evaluation.

Every module returns a typed result from ``from_rollup(rollup)`` (a
:class:`~repro.stream.StreamRollup`), from ``compute(frame, ...)`` (a
:class:`~repro.analysis.dataset.FlowFrame`), or from both, and turns
it into the text the benchmark harness prints with
``render(result)``; most carry the published values for comparison.
The exact reports (Table 1, Figures 2, 3, 6 and 12, Table 2) have only
``from_rollup``: a frame is folded into a rollup first. Reports whose
rollup quantiles interpolate inside histogram bins keep ``compute``
beside it, and the two that need flow records have only ``compute``.
Each module registers itself with :mod:`repro.analysis.registry`; the
import order below *is* the registry order, which is what
``repro report --which all`` runs and the order the docs' capability
matrix lists.
"""

from repro.analysis.reports import (
    table1_protocols,
    fig2_country,
    fig3_protocol_country,
    fig4_diurnal,
    fig5_volumes,
    fig6_service_popularity,
    fig7_service_volume,
    fig8_satellite_rtt,
    fig8b_rtt_timeseries,
    fig9_ground_rtt,
    fig10_dns,
    table2_resolver_rtt,
    fig11_throughput,
    fig12_video_qoe,
    appendix_ground_rtt,
    web_qoe,
)

__all__ = [
    "table1_protocols",
    "fig2_country",
    "fig3_protocol_country",
    "fig4_diurnal",
    "fig5_volumes",
    "fig6_service_popularity",
    "fig7_service_volume",
    "fig8_satellite_rtt",
    "fig8b_rtt_timeseries",
    "fig9_ground_rtt",
    "fig10_dns",
    "table2_resolver_rtt",
    "fig11_throughput",
    "fig12_video_qoe",
    "appendix_ground_rtt",
    "web_qoe",
]
