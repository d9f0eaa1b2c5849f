"""Acceptance suite: every criterion is exact (integer arithmetic throughout),
so checks are equalities, not tolerances.  Each row of sweeps.CRITERIA runs
its sweep at its acceptance parameters and prints one pass/fail line; run
`pytest -s tests/test_acceptance.py` to see them all.
"""

import pytest

from prymrep import sweeps
from prymrep.cyclotomic import zeta_pow
from prymrep.generators import elem_Ti, gamma_ik
from prymrep.ringlinalg import BlockMat, RingMatrix


@pytest.mark.parametrize("criterion, name, cells, kwargs, count", sweeps.CRITERIA,
                         ids=[f"{row[0]}-{row[1]}" for row in sweeps.CRITERIA])
def test_criterion(criterion, name, cells, kwargs, count):
    rep = getattr(sweeps, name)(*cells, **kwargs)
    print(f"criterion {criterion}: {rep.line()}")
    assert rep.ok, rep.line()
    assert rep.checked == count


def test_criterion_8_genus2_d5_crosscheck():
    # the stated twist images of criterion 8, asserted here as well as
    # inside remark_crosscheck
    d, g = 5, 2
    z = zeta_pow(d, 1)
    assert gamma_ik(g, d, 1, 1) == BlockMat(
        RingMatrix(d, [[1, z + z ** -1 - 2], [0, 1]]), g)
    assert elem_Ti(g, d, -1, 2 - z - z ** -1) == BlockMat(
        RingMatrix(d, [[1, 0], [2 - z - z ** -1, 1]]), g)
