"""Extended, opt-in computations (set VERTEXALG_EXTENDED=1 to run).

The weight-8 decoupling of the osp(1|2)/sp2 coset checks the next
multiplier in the family, with root pattern -4i/(2i-1); the solve takes
about three quarters of a minute (45 s under Python 3.11 on a 2-vCPU host)
and is not part of acceptance.
"""

import os
from fractions import Fraction

import pytest

from vertexalg.coefficients import RatFunc
from vertexalg.constructions import affine, odd_pair_shape, osp_coset_virasoro
from vertexalg.lie import builtin_lie
from vertexalg.linear import decoupling_multiplier

extended = pytest.mark.skipif(
    not os.environ.get("VERTEXALG_EXTENDED"),
    reason="set VERTEXALG_EXTENDED=1 to run the long weight-8 solve",
)


@extended
def test_osp_coset_weight8_roots():
    k = RatFunc.param()
    P = affine(builtin_lie("osp(1|2)"), k)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    L = osp_coset_virasoro(P)
    report = decoupling_multiplier(
        P, currents, [L], 8,
        target_shape=odd_pair_shape(P, "phip", "phim", 3),
        charge_currents=[P.gen("H")],
    )
    assert set(report.roots) == {
        Fraction(-4), Fraction(-8, 3), Fraction(-12, 5),
    }
    assert report.poles == {Fraction(-2), Fraction(-3, 2)}
