"""Iteration budget of the symbolic fixed point.

``SymbolicNet`` runs one fixed point, the chaining loop; ``max_iterations``
bounds its passes.  The bound must hold both on the engine itself and
through :class:`~repro.spaces.SymbolicStateSpace`, which forwards it.
"""

import pytest

from repro.bdd import SymbolicNet
from repro.spaces.symbolic import SymbolicStateSpace
from repro.stg import muller_pipeline


def _chaining(stg):
    SymbolicNet(stg.net, stg=stg, max_iterations=1).reachable_set()


def _state_space(stg):
    SymbolicStateSpace(stg, max_iterations=1)


@pytest.mark.parametrize(
    "build", [_chaining, _state_space], ids=["chaining", "state-space"]
)
def test_fixpoints_respect_max_iterations(build):
    with pytest.raises(RuntimeError):
        build(muller_pipeline(6))
