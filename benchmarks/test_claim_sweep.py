"""Benchmark: every paper claim graded over five fixed seeds.

Not part of the figure/table run: it generates ten captures of its own
(``baseline-geo`` at 250 customers × 3 days and at the standard 600 ×
5, once per seed of :data:`repro.analysis.claims.SWEEP_SEEDS`) and
records each claim's pass count and value spread as they stand.
"""

from repro.analysis import claims


def test_claim_sweep(save_result):
    text = "\n\n".join(
        claims.sweep(claims.SWEEP_SEEDS, customers, days).render()
        for customers, days in ((250, 3), (600, 5))
    )
    save_result("claim_sweep", text)
