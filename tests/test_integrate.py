"""The reference quadrature: one QUADPACK call, checked against its target."""

import math

import pytest

from gosextreme.ranges import QuadratureError
from gosextreme.reference import integrate


def test_many_subintervals_converge():
    # |sin x| over 100 periods has 100 kinks; QUADPACK needs about 600
    # subintervals to reach 1e-9 here.
    value = integrate(lambda x: abs(math.sin(x)), 0.0, 100.0 * math.pi, 1e-9)
    assert value == pytest.approx(200.0, abs=1e-9)


def test_unreachable_target_raises_with_achieved_error():
    with pytest.raises(QuadratureError) as info:
        integrate(math.exp, 0.0, 1.0, 1e-300)
    assert 1e-300 < info.value.achieved < 1e-10


def test_empty_interval():
    assert integrate(math.exp, 2.0, 2.0, 1e-9) == 0.0
