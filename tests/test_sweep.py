"""The whole range up to d = 12, opt-in: ``pytest -m slow``.

Every check on all 44 charts with 5 <= d <= 12, over GF(32003) and over Q,
then on each chart with d <= 9 at p = 3, 5 and 7, where the paper's special
fiber lives.  Both limits are raised to 12 by an explicit config, so the
default limits, and the report bodies that carry them, stay as they are.
Opposite-parity charts run the reduced-ring checks only: the lemma suite
and ``reduction`` are for same-parity charts.
"""

import pytest

from olmcheck.charts import Chart
from olmcheck.verify import CHECK_NAMES, LEMMA_CHECKS, EngineConfig, chart_report

REDUCED_CHECKS = ["dimensions", "flatness", "special-fiber"]


def _charts(top):
    return [(d, l) for d in range(5, top + 1) for l in range(2, d - 1)]


@pytest.mark.slow
def test_every_check_passes_up_to_d12_and_at_small_primes():
    assert len(_charts(12)) == 44 and len(_charts(9)) == 20
    assert list(CHECK_NAMES) == list(LEMMA_CHECKS) + ["reduction"] + REDUCED_CHECKS
    runs = [(m, _charts(12)) for m in (32003, 0)]
    runs += [(p, _charts(9)) for p in (3, 5, 7)]
    for modulus, charts in runs:
        cfg = EngineConfig(modulus=modulus, full_matrix_limit=12,
                           reduced_limit=12)
        for d, l in charts:
            chart = Chart(d, l, cfg.field())
            report = chart_report(chart, cfg)
            names = [c.name for c in report.checks]
            assert names == (list(CHECK_NAMES) if chart.same_parity
                             else REDUCED_CHECKS), (modulus, d, l)
            bad = [(c.name, c.status, c.witness) for c in report.checks
                   if c.status != "pass"]
            assert not bad, (modulus, d, l, bad)
