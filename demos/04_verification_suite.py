"""Run the default verification suite and print the text report.

Covers one chart of each parity case: (6,2), (5,3), (6,3), (5,2).  The
same-parity charts additionally get the full-matrix reduction and lemma
checks; every chart gets dimensions, the Hilbert-numerator flatness
certificate and the
special-fiber decomposition.
"""

from olmcheck import DEFAULT_SUITE, EngineConfig, run_suite
from olmcheck.cli import report_text

suite = run_suite(DEFAULT_SUITE, EngineConfig(modulus=32003))
for report in suite.reports:
    print(report_text(report))
print("aggregate pass:", suite.aggregate_pass)
