import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satk import shifts
from satk.errors import InvalidInput


def test_weight_kinds_values():
    assert shifts.harmonic().weights(3) == pytest.approx([1 / 2, 1 / 3, 1 / 4])
    assert shifts.geometric(0.5).weights(3) == pytest.approx([0.5, 0.25, 0.125])
    assert shifts.constant(2.5).weights(3) == pytest.approx([2.5, 2.5, 2.5])
    # blocks of lengths 1, 2, 4 alternating c and 1/c
    assert shifts.blocks(2.0).weights(7) == pytest.approx([2, 0.5, 0.5, 2, 2, 2, 2])
    assert shifts.explicit([1.0, -2.0]).weights(2) == pytest.approx([1.0, 2.0])


def test_weight_validation():
    with pytest.raises(InvalidInput):
        shifts.geometric(1.5)
    with pytest.raises(InvalidInput):
        shifts.constant(0.0)
    with pytest.raises(InvalidInput):
        shifts.blocks(1.0)
    with pytest.raises(InvalidInput):
        shifts.explicit([])
    with pytest.raises(InvalidInput):
        shifts.explicit([1.0]).weights(2)


def test_geometric_mean_table_matches_direct():
    w = shifts.harmonic()
    table = shifts.geometric_mean_table(w, 8, 8)
    mags = w.weights(15)
    for k in range(1, 9):
        for n in range(1, 9):
            direct = np.prod(mags[k - 1 : k + n - 1]) ** (1.0 / n)
            assert table.values[k - 1, n - 1] == pytest.approx(direct, rel=1e-12)


def test_geometric_mean_table_zero_weights():
    table = shifts.geometric_mean_table(shifts.explicit([1.0, 0.0, 2.0, 8.0]), 3, 2)
    assert table.values[0, 1] == 0.0  # window covering w_2 = 0
    assert table.values[0, 0] == pytest.approx(1.0)
    assert table.values[2, 0] == 2.0  # window [w_3], after the zero
    assert table.values[2, 1] == pytest.approx(4.0)


def test_detector_constant_recovers_level():
    table = shifts.geometric_mean_table(shifts.constant(1.5), 64, 256)
    det = shifts.uniform_limit_detector(table)
    assert det.converged
    assert det.alpha == pytest.approx(1.5, abs=1e-10)


def test_detector_blocks_not_converged_with_witness():
    table = shifts.geometric_mean_table(shifts.blocks(2.0), 64, 256)
    det = shifts.uniform_limit_detector(table)
    assert not det.converged
    (k1, n1), (k2, n2) = det.witness
    # witness cells must be real table cells with genuinely different means
    v1 = table.values[k1 - 1, n1 - 1]
    v2 = table.values[k2 - 1, n2 - 1]
    assert v1 - v2 > 1e-2


def test_truncation_layouts():
    w = shifts.explicit([1.0, 2.0, 3.0, 4.0])
    f = shifts.truncate_forward(w, 4)
    b = shifts.truncate_backward(w, 4)
    expect_f = np.zeros((4, 4))
    expect_f[1, 0], expect_f[2, 1], expect_f[3, 2] = 1.0, 2.0, 3.0
    expect_b = np.zeros((4, 4))
    expect_b[0, 1], expect_b[1, 2], expect_b[2, 3] = 2.0, 3.0, 4.0
    assert np.array_equal(f.real, expect_f)
    assert np.array_equal(b.real, expect_b)
    # forward kills delta_m, backward kills delta_1
    assert np.linalg.norm(f[:, -1]) == 0.0
    assert np.linalg.norm(b[:, 0]) == 0.0


def test_backward_classifier():
    assert shifts.backward_classifier(shifts.harmonic())
    assert shifts.backward_classifier(shifts.geometric(0.9))
    assert not shifts.backward_classifier(shifts.constant(1.0))
    assert not shifts.backward_classifier(shifts.blocks(2.0))
    assert shifts.backward_classifier(shifts.explicit([1.0] * 8 + [0.0] * 8))
    assert not shifts.backward_classifier(shifts.explicit([1.0] * 16))


def test_crosscheck_guards():
    with pytest.raises(InvalidInput):
        shifts.shift_power_crosscheck(shifts.harmonic(), 16, 9)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=16, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_property_crosscheck_explicit(values, n):
    w = shifts.explicit(values)
    m = len(values) - 1
    if n > m // 2:
        return
    report = shifts.shift_power_crosscheck(w, m, n)
    assert report.max_deviation < 1e-9
