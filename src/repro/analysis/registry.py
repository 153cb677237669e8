"""Declarative report registry — the analysis layer's dispatch table.

Every table/figure module registers a :class:`ReportSpec` at import
time: its CLI name, how to compute from
:class:`~repro.stream.StreamRollup` sketches and/or, for reports the
sketches cannot serve exactly, from a
:class:`~repro.analysis.dataset.FlowFrame` (with the flow columns that
path reads), and how to render the result. A report whose sketch is
exact registers only the rollup path; a frame or store source folds
itself once and reads the same sketches. The CLI (``repro report`` /
``repro stream-report``) and the parity tests iterate this registry
instead of hand-maintained if-chains, so adding a report is one module
plus one ``register()`` call — the dispatch, the ``--help`` text, the
capability matrix in the docs and the parity suite all pick it up.

Registration happens when :mod:`repro.analysis.reports` imports its
submodules; that import order *is* the registry (and CLI) order. Use
:func:`ensure_loaded` before reading the registry from code that may
run before the package import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.dataset import _ARRAY_FIELDS
from repro.analysis.source import CaptureError, FlowSource

#: Source kinds a report can declare support for, in matrix order.
SOURCE_KINDS = ("frame", "store", "rollup")


class ReportSourceError(CaptureError):
    """A report was asked to run from a source kind it cannot serve."""


@dataclass(frozen=True)
class ReportSpec:
    """One table/figure: what it needs and how to run it.

    ``columns`` is the projection a spilled capture loads for the
    frame path — it must cover everything ``compute_frame`` touches
    (the store-projection parity test enforces this). Reports without
    a frame path declare none.
    """

    name: str
    title: str
    module: str
    render: Callable[[object], str]
    columns: Tuple[str, ...] = ()
    compute_frame: Optional[Callable] = None
    compute_rollup: Optional[Callable] = None

    @property
    def sources(self) -> Tuple[str, ...]:
        """Source kinds this report can run from. Frame and store
        always qualify: they either feed the frame path (store via
        column projection) or fold into the rollup path."""
        if self.compute_rollup is None:
            return ("frame", "store")
        return SOURCE_KINDS

    def supports(self, kind: str) -> bool:
        return kind in self.sources


_REGISTRY: Dict[str, ReportSpec] = {}


def register(**kwargs) -> ReportSpec:
    """Add one report (called from its module, at import time)."""
    spec = ReportSpec(**kwargs)
    if spec.compute_frame is None and spec.compute_rollup is None:
        raise ValueError(f"report {spec.name!r} registers no compute entry point")
    unknown = set(spec.columns) - set(_ARRAY_FIELDS)
    if unknown:
        raise ValueError(
            f"report {spec.name!r} declares unknown columns {sorted(unknown)}"
        )
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ValueError(
            f"report name {spec.name!r} already registered by {existing.module}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def ensure_loaded() -> None:
    """Import the reports package; its import order defines registry
    (and therefore CLI ``--which all``) order."""
    import repro.analysis.reports  # noqa: F401


def names() -> List[str]:
    ensure_loaded()
    return list(_REGISTRY)


def specs() -> List[ReportSpec]:
    ensure_loaded()
    return list(_REGISTRY.values())


def get(name: str) -> ReportSpec:
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown report {name!r}; choose from {', '.join(_REGISTRY)}"
        ) from None


def run(name: str, source: FlowSource, prefer: Optional[str] = None) -> str:
    """Render one report from whatever ``source`` holds.

    The frame path is the default for reports that have one;
    ``prefer="rollup"`` forces the sketch path (what ``stream-report``
    does). Rollup-only reports fold a frame or store source with
    :meth:`~repro.analysis.source.FlowSource.to_rollup`, and a bare
    rollup source can *only* serve sketch-capable reports. A frame-only
    report asked to run from sketches raises
    :class:`ReportSourceError` rather than silently decompressing the
    flows behind the caller's back.
    """
    spec = get(name)
    sketches = source.kind == "rollup" or prefer == "rollup"
    if spec.compute_frame is not None and not sketches:
        return spec.render(spec.compute_frame(source.to_frame(columns=spec.columns)))
    if spec.compute_rollup is None:
        rollup_capable = [s.name for s in specs() if s.compute_rollup]
        raise ReportSourceError(
            f"report {name!r} needs flow records and cannot run from "
            f"rollup sketches; sketch-capable reports: "
            f"{', '.join(rollup_capable)}"
        )
    return spec.render(spec.compute_rollup(source.to_rollup()))


def capability_matrix_markdown() -> str:
    """The report × source-kind capability table embedded in the docs
    (README/DESIGN carry this verbatim; a test keeps them in sync)."""
    header = "| Report | Title | " + " | ".join(SOURCE_KINDS) + " |"
    rule = "|---|---|" + "---|" * len(SOURCE_KINDS)
    lines = [header, rule]
    for spec in specs():
        marks = " | ".join(
            "✓" if spec.supports(kind) else "—" for kind in SOURCE_KINDS
        )
        lines.append(f"| `{spec.name}` | {spec.title} | {marks} |")
    return "\n".join(lines)
