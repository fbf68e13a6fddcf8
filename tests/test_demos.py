"""The first three demos run to the end.

``04_verification_suite.py`` is left out: it runs the default suite, which
``test_verify::test_default_suite_passes`` already covers.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_groebner_engine.py", "02_chart_tour.py",
                                  "03_special_fiber.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
