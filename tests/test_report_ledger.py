"""Catalog reports at seeds 0, 1 and 7 match the committed ledger field by
field (see ``report_ledger``); a change that moves a value rewrites the
ledger with ``tests/report_ledger.py`` and lists what moved."""

import json

import pytest

from report_ledger import SEEDS, current_report, differences, ledger_path


@pytest.mark.parametrize("seed", SEEDS)
def test_catalog_report_matches_the_ledger(seed):
    committed = json.loads(ledger_path(seed).read_text())
    assert list(differences(committed, current_report(seed))) == []


def test_differences_name_each_moved_field():
    old = {"reports": [{"entry": "e", "records": [
        {"check": "c", "residual": 1e-3, "value": {"n": 3, "tiny": 1e-20}, "verdict": True}]}]}
    new = json.loads(json.dumps(old))
    record = new["reports"][0]["records"][0]
    record["value"]["tiny"] = 5e-15             # under the absolute floor
    record["residual"] *= 1 + 1e-10             # within the relative tolerance
    assert list(differences(old, new)) == []
    record["residual"] *= 1 + 1e-8
    record["value"]["n"] = 4
    record["verdict"] = 1
    assert [path for path, _, _ in differences(old, new)] == [
        ".reports[e].records[c].residual", ".reports[e].records[c].value.n",
        ".reports[e].records[c].verdict"]
