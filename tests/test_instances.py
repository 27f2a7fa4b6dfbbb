import numpy as np
import pytest

from satk import linalg
from satk.errors import InvalidInput
from satk.instances import InstanceSpec, generate_instance


def test_deterministic_per_seed():
    a = generate_instance(99, InstanceSpec(dim=4))
    b = generate_instance(99, InstanceSpec(dim=4))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.eigenvalues == b.eigenvalues
    c = generate_instance(100, InstanceSpec(dim=4))
    assert not np.array_equal(a.matrix, c.matrix)


def test_modulus_ratio_guarantee():
    for i in range(50):
        inst = generate_instance(i, InstanceSpec(dim=6))
        mods = sorted({round(abs(z), 12) for z in inst.eigenvalues})
        for lo, hi in zip(mods, mods[1:]):
            assert hi / lo >= 1.25


def test_condition_cap():
    for i in range(30):
        inst = generate_instance(200 + i, InstanceSpec(dim=8))
        assert np.linalg.cond(inst.generalized_eigenvectors) <= 100.0  # cond(S^-1) = cond(S)


def test_no_repeated_level_gives_diagonalizable():
    # a nilpotent entry sits only in a multiplicity-2 block
    for i in range(20):
        inst = generate_instance(300 + i, InstanceSpec(dim=5, repeat_prob=0.0))
        assert linalg.norm2(inst.decomposition.nilpotent_part) < 1e-12


def test_ground_truth_consistency():
    for i in range(20):
        m = 2 + i % 7
        inst = generate_instance(400 + i, InstanceSpec(dim=m))
        dec = inst.decomposition
        assert linalg.norm2(dec.scalar_part + dec.nilpotent_part - inst.matrix) < 1e-12
        total = sum(p.matrix for p in dec.idempotents)
        assert linalg.norm2(total - np.eye(m)) < 1e-10
        # idempotents commute with A
        for p in dec.idempotents:
            assert linalg.norm2(p.matrix @ inst.matrix - inst.matrix @ p.matrix) < 1e-10
        # generalized eigenvector columns live in the right idempotent ranges
        pos = 0
        for p in dec.idempotents:
            for _ in range(p.cluster.multiplicity):
                x = inst.generalized_eigenvectors[:, pos]
                assert np.linalg.norm(p.matrix @ x - x) < 1e-9 * np.linalg.norm(x)
                pos += 1


def test_min_real_gap_enforced():
    for i in range(20):
        inst = generate_instance(500 + i, InstanceSpec(dim=5, min_real_gap=0.2))
        reals = sorted(z.real for z in set(inst.eigenvalues))
        for lo, hi in zip(reals, reals[1:]):
            assert hi - lo >= 0.2 - 1e-12


@pytest.mark.parametrize("dim", [3.5, 4.0, True, 1025])
def test_spec_refuses_dim_that_is_no_integer_in_range(dim):
    # 3.5 - 1 - 2 ... never reaches 0: the multiplicities loop ran forever
    with pytest.raises(InvalidInput, match="dim must be an integer"):
        generate_instance(0, InstanceSpec(dim=dim))


def test_spec_validation():
    with pytest.raises(InvalidInput):
        generate_instance(0, InstanceSpec(dim=0))


@pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "null"])
@pytest.mark.parametrize("field", ["repeat_prob", "shared_modulus_prob", "min_real_gap"])
def test_spec_refuses_float_field_that_is_no_number(field, value):
    # a repeat_prob of true once ran as a probability of 1, a min_real_gap of
    # true as a gap of 1, and a repeat_prob of "0.5" raised a bare TypeError
    with pytest.raises(InvalidInput, match=f"^{field} must be a real number"):
        generate_instance(0, InstanceSpec(**{field: value}))
