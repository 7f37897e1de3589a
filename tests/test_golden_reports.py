"""Structured reports must stay byte-identical across changes.

``tests/data/golden_reports.json`` maps each fixture name to the sorted-key
JSON of ``classify(...).to_dict()`` under default bounds.  The two family
members pin the smoothness sampler: ``t^5 - 3*t`` runs the whole budget
(``SmoothOnSamples`` after 377 samples) and ``t^2 - 2*t`` stops at a
singular point after 250 samples, so sample counts, witness points and
sampler order are all covered.

Regenerate the file only when a report is meant to change:
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gaquot.classify import classify
from gaquot.fixtures import NAMED_FIXTURES, fixture

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

NAMES = NAMED_FIXTURES + ("family-phi(t^5 - 3*t)", "family-phi(t^2 - 2*t)")


def report_json(name: str) -> str:
    fx = fixture(name)
    return json.dumps(classify(fx.spec, fx.f, fx.graph).to_dict(), sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_name():
    assert sorted(_golden()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(name):
    assert report_json(name) == _golden()[name]


def test_family_members_pin_the_sampler():
    golden = _golden()
    smooth = json.loads(golden["family-phi(t^5 - 3*t)"])["smoothness"]
    assert smooth == {"outcome": "SmoothOnSamples", "samples": 377, "witness": None}
    singular = json.loads(golden["family-phi(t^2 - 2*t)"])["smoothness"]
    assert singular["outcome"] == "SingularWitness"
    assert singular["samples"] == 250
    assert {k: v for k, v in singular["witness"].items() if v != "0"} == {"w2": "1", "w5": "1"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: report_json(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
