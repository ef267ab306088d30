"""Every check of the invariant registry behind `gosextreme selftest`, both
tiers, one test each."""

import pytest

from gosextreme.reference import _REGISTRY


@pytest.mark.parametrize("check", [fn for _, _, fn in _REGISTRY],
                         ids=[name for name, _, _ in _REGISTRY])
def test_check_passes(check):
    ok, detail = check()
    assert ok, detail
