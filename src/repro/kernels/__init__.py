"""Vectorized batch kernels behind the ``engine`` knob.

The streaming generator is already columnar, but the packet-level
flow meter runs a per-packet python loop. This package provides a
numpy batch kernel for that hot path, selected by
``engine="vectorized"``; the per-packet python implementation stays
the *determinism oracle* — the kernel either produces bit-identical
observable state or detects the shapes it cannot handle and falls
back to the oracle before mutating anything, so ``--engine`` can
never change a digest.

Modules
-------
``repro.kernels.flow``
    ``process_packet_batch`` — the batched flow-metering kernel used
    by :class:`repro.flowmeter.meter.FlowMeter` when constructed with
    ``engine="vectorized"``.

The engine knob is *execution policy, not content*: scenario digests
exclude it, and every test that sweeps engines asserts digest
equality against the python path.
"""

from __future__ import annotations

#: The recognised execution engines, in oracle-first order.
ENGINES = ("python", "vectorized")


def resolve_engine(engine: str) -> str:
    """Validate an ``engine`` knob value and return its canonical form.

    Accepts the names in :data:`ENGINES` (case-insensitive, stripped);
    anything else raises ``ValueError`` naming the valid choices so a
    typo fails at configuration time, not mid-capture.
    """
    if not isinstance(engine, str):
        raise ValueError(f"engine must be a string, got {engine!r}")
    canonical = engine.strip().lower()
    if canonical not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return canonical
