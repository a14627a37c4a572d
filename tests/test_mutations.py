"""Every suite check can fail: one mutation per check.

Each row of MUTATIONS gives a small config, one monkeypatch that breaks a
kernel or a constant, and the names of the checks that must then FAIL while
every other check of the run passes.  This is mutation testing (DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978), done by hand, one row per check.  The configs are small, so each row
runs in about a second.
"""

import pytest

from islab import blowup
from islab.cli import run
from islab.config import ExperimentConfig

ISLAND = "suite = island\nisland.grid = 16\nisland.n = 50\n"


def _island_flow_at_order_2(monkeypatch):
    # Fhat's flow as FLOW_STEPS plain midpoint steps: the multipliers drift
    # 4.1e-2 from e^{+-2 sigma}, against the 1e-4 gate, and the flow's
    # energy 1.1e-3, against the 1e-5 gate
    steps = blowup._midpoint_steps
    monkeypatch.setattr(blowup, "_midpoint_steps",
                        lambda *args, **kw: steps(*args, **{**kw, "order": 2}))


# row name -> (config, mutation, the checks that must fail)
MUTATIONS = {
    "island-flow-order-2": (ISLAND, _island_flow_at_order_2,
                            {"saddle-multipliers-exp(+-2sigma)",
                             "island-flow-energy-drift"}),
}


def _failed(text):
    report, code = run(ExperimentConfig.from_text(text))
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert code == (1 if failed else 0)
    return failed


@pytest.mark.parametrize("row", sorted(MUTATIONS))
def test_mutation_fails_exactly_its_checks(row, monkeypatch):
    text, mutate, expected = MUTATIONS[row]
    # the unmutated run passes every check, so the failures are the mutation's
    assert _failed(text) == set()
    mutate(monkeypatch)
    assert _failed(text) == expected
