import numpy as np
import pytest

from gge_thermo.hermitian import (
    cluster_degenerate,
    eigh,
    require_hermitian,
)
from _helpers import make_rng, random_hermitian


def test_eigh_identity():
    es = eigh(np.eye(2))
    assert np.allclose(es.values, [1.0, 1.0])
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(2))) < 1e-12


def test_eigh_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    es = eigh(x)
    assert np.allclose(es.values, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(es.vectors[:, 0], [s, -s])
    assert np.allclose(es.vectors[:, 1], [s, s])


def test_eigh_two_site_chain():
    # 2x2 closed form: eps +- g
    c = np.array([[1.0, 0.1], [0.1, 1.0]])
    es = eigh(c)
    assert np.allclose(es.values, [0.9, 1.1])


def test_eigh_phase_convention_real_positive_anchor():
    rng = make_rng(3)
    m = random_hermitian(6, rng)
    es = eigh(m)
    for k in range(6):
        col = es.vectors[:, k]
        anchor = col[np.argmax(np.abs(col))]
        assert abs(anchor.imag) < 1e-12
        assert anchor.real > 0


def test_eigh_deterministic():
    rng = make_rng(4)
    m = random_hermitian(8, rng)
    a = eigh(m)
    b = eigh(m.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        eigh(m)


def test_hermiticity_defect():
    # the defect is the largest entrywise magnitude of M - M^dag
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="max asymmetry 5.000e-01"):
        require_hermitian(m, atol=0.49)
    assert np.array_equal(require_hermitian(m, atol=0.5), [[0.0, 0.75], [0.75, 0.0]])
    assert require_hermitian(np.zeros((0, 0))).shape == (0, 0)


def test_reconstruction_random():
    rng = make_rng(0)
    for n in (2, 7, 33, 64):
        m = random_hermitian(n, rng)
        es = eigh(m)
        err = np.linalg.norm(es.reconstruct() - m)
        assert err <= 1e-9 * np.linalg.norm(m)


def test_eigh_idempotent_under_rediagonalisation():
    rng = make_rng(1)
    m = random_hermitian(12, rng)
    es = eigh(m)
    again = eigh(es.reconstruct())
    assert np.max(np.abs(again.values - es.values)) < 1e-10


def test_cluster_degenerate_examples():
    assert cluster_degenerate([1.0, 1.0, 2.0], 1e-9).groups == ((0, 1), (2,))
    assert cluster_degenerate([0.9, 1.1], 1e-9).groups == ((0,), (1,))
    assert cluster_degenerate([1.0, 1.0 + 1e-12, 2.0], 1e-9).groups == ((0, 1), (2,))
    assert cluster_degenerate([], 1e-9).groups == ()


def test_cluster_degenerate_covers_everything():
    rng = make_rng(2)
    vals = np.sort(rng.normal(size=20))
    part = cluster_degenerate(vals, 0.1)
    flat = sorted(i for g in part.groups for i in g)
    assert flat == list(range(20))


def test_cluster_degenerate_rejects_unsorted():
    with pytest.raises(ValueError, match="ascending"):
        cluster_degenerate([2.0, 1.0], 1e-9)
    with pytest.raises(ValueError, match="positive"):
        cluster_degenerate([1.0, 2.0], 0.0)


def test_require_hermitian_symmetrises():
    m = np.array([[1.0, 0.1 + 1e-14j], [0.1 - 2e-14j, 2.0]])
    out = require_hermitian(m)
    assert np.array_equal(out, out.conj().T)
