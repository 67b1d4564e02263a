"""The oracle swap that whole-pipeline equivalence gates rely on."""

from __future__ import annotations

import pytest
from oracles import LAYERS, reference_engines, swap_target


def installed(layer):
    """What the production code currently finds at each name of ``layer``."""
    targets = [swap_target(module, path) for module, path, _ in LAYERS[layer]]
    return [owner.__dict__[attribute] for owner, attribute in targets]


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_each_layer_swaps_its_oracles_in_and_restores_production(layer):
    production = installed(layer)
    with reference_engines(layer):
        assert installed(layer) == [oracle for _, _, oracle in LAYERS[layer]]
    assert installed(layer) == production


def test_unknown_layer_is_rejected():
    with pytest.raises(ValueError):
        with reference_engines("gpu"):
            pass
