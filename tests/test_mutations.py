"""Every suite check can fail: one mutation per check.

Each row of MUTATIONS gives a small config, one monkeypatch that breaks a
kernel or a constant, and the names of the checks that must then FAIL while
every other check of the run passes.  This is mutation testing (DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978), done by hand, one row per check.  The configs are small, so each row
runs in about a second.
"""

import numpy as np
import pytest

from islab import blowup, rescaling
from islab.cli import run
from islab.config import ExperimentConfig
from islab.maps import torus_diff

ISLAND = "suite = island\nisland.grid = 16\nisland.n = 50\n"
RESCALING = "suite = rescaling\n"


def _island_flow_at_order_2(monkeypatch):
    # Fhat's flow as FLOW_STEPS plain midpoint steps: the multipliers drift
    # 4.1e-2 from e^{+-2 sigma}, against the 1e-4 gate, and the flow's
    # energy 1.1e-3, against the 1e-5 gate
    steps = blowup._midpoint_steps
    monkeypatch.setattr(blowup, "_midpoint_steps",
                        lambda *args, **kw: steps(*args, **{**kw, "order": 2}))


def _island_flow_slower_in_one_disc(monkeypatch):
    # the flow time in the disc at (1/2, 0) only, scaled by 1 + 1e-6: that
    # disc's centre is fixed by p -> -p, so the odd symmetry holds, the
    # flow still conserves its energy and fixes its saddles, and only the
    # half-lattice translations see the disc differ from the other three
    flow = blowup.IslandMap._flow

    def mutated(self, p, d, t, with_jac):
        out, J = flow(self, p, d, t, with_jac)
        hit = np.all(np.abs(torus_diff(p - d, [0.5, 0.0])) < 0.25, axis=-1)
        if hit.any():
            out[hit], Jh = flow(self, p[hit], d[hit], t * (1 + 1e-6), with_jac)
            for e, v in zip(J or (), Jh or ()):
                e[hit] = v
        return out, J

    monkeypatch.setattr(blowup.IslandMap, "_flow", mutated)


def _box_shear_kick_scaled(monkeypatch):
    # the kick part of each box shear, psihat(i, psi) - psihat(i, None),
    # scaled by 1 + 1e-3: the legs' Henon kicks no longer cancel under
    # H_i^{-1}, so the leg defects follow the kicks (a spread of 4.96e-5,
    # against the 1e-9 gate), while E(k) still falls in k far below its gate
    psihat = rescaling.RescalingCharts.psihat

    def mutated(self, i, psi):
        out = psihat(self, i, psi)
        kick = out.copy()
        kick[:2] -= psihat(self, i, None)
        return out + 1e-3 * kick

    monkeypatch.setattr(rescaling.RescalingCharts, "psihat", mutated)


def _landing_offset_off_by_1e_6(monkeypatch):
    # each leg's constant landing defect scaled by 1 + 1e-6: the box shear no
    # longer cancels it, so the kick-free affine legs land 1.06e-4 off the
    # Henon product, against the 1e-9 gate; the kicked model's E(k) still
    # falls in k below its gate, and the Phi_i defects move with the offset,
    # not with the kicks
    c_offset = rescaling.RescalingCharts.c_offset
    monkeypatch.setattr(rescaling.RescalingCharts, "c_offset",
                        lambda self, i: c_offset(self, i) * (1 + 1e-6))


# row name -> (config, mutation, the checks that must fail)
MUTATIONS = {
    "island-flow-order-2": (ISLAND, _island_flow_at_order_2,
                            {"saddle-multipliers-exp(+-2sigma)",
                             "island-flow-energy-drift"}),
    "island-flow-slower-in-one-disc": (ISLAND, _island_flow_slower_in_one_disc,
                                       {"half-lattice-translation-equivariance"}),
    "box-shear-kick-scaled": (RESCALING, _box_shear_kick_scaled,
                              {"phi-defect-kick-independence"}),
    "landing-offset-off-by-1e-6": (RESCALING, _landing_offset_off_by_1e_6,
                                   {"affine-configuration-error"}),
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
