"""Fail CI when a guarded hot path regresses past its recorded baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_performance.py \
        --benchmark-json=/tmp/bench.json
    python benchmarks/check_regression.py /tmp/bench.json

Reads the guard rows of ``benchmarks/guards.json`` (``benchmark``,
``baseline_mean_ms``, ``max_slowdown``, ``note``), compares each row's
benchmark mean against ``baseline_mean_ms``, and exits non-zero when
any slowdown exceeds that row's ``max_slowdown``. The factors are
deliberately loose (2x+) so shared-runner noise does not flake the
build; a genuine hot-path regression blows well past them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GUARDS = Path(__file__).resolve().parent / "guards.json"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    results = json.loads(Path(argv[1]).read_text())
    by_name = {bench["name"]: bench for bench in results["benchmarks"]}
    guards = json.loads(GUARDS.read_text())
    if not guards:
        print(f"error: no regression guards recorded in {GUARDS}")
        return 2
    failed = False
    for guard in guards:
        bench = by_name.get(guard["benchmark"])
        if bench is None:
            print(
                f"error: benchmark {guard['benchmark']!r} not found in {argv[1]}"
            )
            return 2
        mean_ms = bench["stats"]["mean"] * 1000.0
        limit_ms = guard["baseline_mean_ms"] * guard["max_slowdown"]
        verdict = "OK" if mean_ms <= limit_ms else "REGRESSION"
        failed |= verdict != "OK"
        print(
            f"{guard['benchmark']}: mean {mean_ms:.1f} ms, "
            f"baseline {guard['baseline_mean_ms']:.1f} ms, "
            f"limit {limit_ms:.1f} ms ({guard['max_slowdown']}x) -> {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
