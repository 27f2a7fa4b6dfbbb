import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from satk import shifts
from satk.errors import InvalidInput
from satk.shifts import WeightSequence
from satk.powerit import orbit_log_norms

from oracles import truncate_backward, truncate_forward


def test_weight_kinds_values():
    assert WeightSequence("harmonic").weights(3) == pytest.approx([1 / 2, 1 / 3, 1 / 4])
    assert WeightSequence("geometric", ratio=0.5).weights(3) == pytest.approx([0.5, 0.25, 0.125])
    assert WeightSequence("constant", level=2.5).weights(3) == pytest.approx([2.5, 2.5, 2.5])
    # blocks of lengths 1, 2, 4 alternating c and 1/c
    assert WeightSequence("blocks", level=2.0).weights(7) == pytest.approx([2, 0.5, 0.5, 2, 2, 2, 2])
    assert WeightSequence("explicit", values=(1.0, -2.0)).weights(2) == pytest.approx([1.0, 2.0])
    # the default levels: c = 1, and c = 2 for blocks
    assert WeightSequence("constant").weights(2) == pytest.approx([1.0, 1.0])
    assert WeightSequence("blocks").weights(3) == pytest.approx([2.0, 0.5, 0.5])


def test_weight_validation():
    with pytest.raises(InvalidInput):
        WeightSequence("geometric", ratio=1.5)
    with pytest.raises(InvalidInput):
        WeightSequence("constant", level=0.0)
    with pytest.raises(InvalidInput):
        WeightSequence("blocks", level=1.0)
    with pytest.raises(InvalidInput):
        WeightSequence("explicit", values=())
    with pytest.raises(InvalidInput):
        WeightSequence("explicit", values=(1.0,)).weights(2)


def test_geometric_mean_table_matches_direct():
    w = WeightSequence("harmonic")
    table = shifts.geometric_mean_table(w, 8, 8)
    mags = w.weights(15)
    for k in range(1, 9):
        for n in range(1, 9):
            direct = np.prod(mags[k - 1 : k + n - 1]) ** (1.0 / n)
            assert table[k - 1, n - 1] == pytest.approx(direct, rel=1e-12)


def test_geometric_mean_table_zero_weights():
    w = WeightSequence("explicit", values=(1.0, 0.0, 2.0, 8.0))
    table = shifts.geometric_mean_table(w, 3, 2)
    assert table[0, 1] == 0.0  # window covering w_2 = 0
    assert table[0, 0] == pytest.approx(1.0)
    assert table[2, 0] == 2.0  # window [w_3], after the zero
    assert table[2, 1] == pytest.approx(4.0)


def test_detector_constant_recovers_level():
    table = shifts.geometric_mean_table(WeightSequence("constant", level=1.5), 64, 256)
    det = shifts.uniform_limit_detector(table)
    assert det.converged
    assert det.alpha == pytest.approx(1.5, abs=1e-10)


def test_detector_blocks_not_converged_with_witness():
    table = shifts.geometric_mean_table(WeightSequence("blocks", level=2.0), 64, 256)
    det = shifts.uniform_limit_detector(table)
    assert not det.converged
    (k1, n1), (k2, n2) = det.witness
    # witness cells must be real table cells with genuinely different means
    v1 = table[k1 - 1, n1 - 1]
    v2 = table[k2 - 1, n2 - 1]
    assert v1 - v2 > 1e-2


def test_truncation_layouts():
    w = WeightSequence("explicit", values=(1.0, 2.0, 3.0, 4.0))
    f = truncate_forward(w, 4)
    b = truncate_backward(w, 4)
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
    assert shifts.backward_classifier(WeightSequence("harmonic"))
    assert shifts.backward_classifier(WeightSequence("geometric", ratio=0.9))
    assert not shifts.backward_classifier(WeightSequence("constant", level=1.0))
    assert not shifts.backward_classifier(WeightSequence("blocks", level=2.0))
    assert shifts.backward_classifier(WeightSequence("explicit", values=(1.0,) * 8 + (0.0,) * 8))
    assert not shifts.backward_classifier(WeightSequence("explicit", values=(1.0,) * 16))


@pytest.mark.parametrize("m, n", [(256, 32), (400, 150)])
@pytest.mark.parametrize(
    "w",
    [
        WeightSequence("harmonic"),
        WeightSequence("geometric", ratio=0.3),
        WeightSequence("constant", level=1.3),
        WeightSequence("blocks", level=2.0),
    ],
    ids=lambda w: w.kind,
)
def test_sparse_orbit_is_dense_orbit(w, m, n):
    # a sparse truncation's orbit has the dense orbit's bytes.  Columns
    # evolve independently, so 16 of them suffice.
    f = truncate_forward(w, m)
    v = np.eye(m, dtype=np.complex128)[:, np.linspace(0, m - 1, 16).astype(int)]
    sparse = orbit_log_norms(scipy.sparse.csr_array(f), v, n)
    assert sparse.tobytes() == orbit_log_norms(f, v, n).tobytes()


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_orbit_log_norms_of_dying_columns(sparse):
    # a column whose norm reaches 0 exactly reads -inf from that step on; one
    # whose squares underflow (|1e-170|^2 is below the smallest float) keeps
    # its log, from the column scaled by a power of two
    a = np.zeros((4, 4), dtype=np.complex128)
    a[0, 0], a[2, 1], a[3, 3] = 1e-170, 1.0, 0.5
    if sparse:
        a = scipy.sparse.csr_array(a)
    v = np.eye(4, dtype=np.complex128)
    assert orbit_log_norms(a, v, 1).tolist() == [np.log(1e-170), 0.0, -np.inf, np.log(0.5)]
    logs = orbit_log_norms(a, v, 3)
    assert logs[0] == pytest.approx(3 * np.log(1e-170), rel=1e-15)
    assert logs[1:3].tolist() == [-np.inf] * 2
    assert logs[3] == pytest.approx(3 * np.log(0.5), rel=1e-15)


def test_crosscheck_guards():
    with pytest.raises(InvalidInput):
        shifts.shift_power_crosscheck(WeightSequence("harmonic"), 16, 9)


@pytest.mark.parametrize("m, n", [(256.9, 32), (256, 32.5), (True, 1), (64, "8")])
def test_crosscheck_sizes_are_positive_integers(m, n):
    # int() once ran 256.9 as 256 and 32.5 as 32
    w = WeightSequence("harmonic")
    with pytest.raises(InvalidInput, match="positive integer"):
        shifts.shift_power_crosscheck(w, m, n)
    with pytest.raises(InvalidInput, match="positive integer"):
        shifts.geometric_mean_table(w, m, n)


@pytest.mark.parametrize(
    "w, m, n",
    [
        (WeightSequence("harmonic"), 64, 20),
        (WeightSequence("geometric", ratio=0.3), 64, 20),
        (WeightSequence("constant", level=1.37), 64, 32),
        (WeightSequence("blocks", level=2.71), 64, 20),
        (WeightSequence("explicit", values=(1.0, 0.0) + (0.5,) * 62), 48, 16),
        (WeightSequence("geometric", ratio=0.05), 64, 32),
    ],
    ids=["harmonic", "geometric", "constant", "blocks", "explicit-zero", "geometric-0.05"],
)
def test_crosscheck_is_the_dense_orbit_deviation(w, m, n):
    # the crosscheck carries one log per column; the renormalized orbit of
    # the identity under the dense truncation gives the same deviation
    logs = orbit_log_norms(truncate_forward(w, m), np.eye(m, dtype=np.complex128), n)
    interior = m - n
    table = shifts.geometric_mean_table(w, interior, n)
    dense = float(np.abs(np.exp(logs[:interior] / n) - table[:, n - 1]).max())
    assert shifts.shift_power_crosscheck(w, m, n) == dense


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=16, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_property_crosscheck_explicit(values, n):
    w = WeightSequence("explicit", values=tuple(values))
    m = len(values) - 1
    if n > m // 2:
        return
    report = shifts.shift_power_crosscheck(w, m, n)
    assert report < 1e-9
