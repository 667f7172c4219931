"""Unit tests for the ExaMol application (molecules, oracle, surrogate, AL)."""

import numpy as np
import pytest

from repro.apps.examol.molecules import (
    FINGERPRINT_BITS,
    Molecule,
    fingerprint,
    molecule_by_id,
)
from repro.apps.examol.simulate import pm7_ionization_potential, simulate_molecule
from repro.apps.examol.surrogate import (
    EnsembleSurrogate,
    RidgeRegression,
    screen_candidates,
    train_surrogate,
)
from repro.apps.examol.thinker import design_molecules, exhaustive_best
from repro.errors import ReproError
from repro.flow import DataFlowKernel, LocalExecutor


# ------------------------------------------------------------------ molecules
def test_molecule_by_id_deterministic():
    assert molecule_by_id(7) == molecule_by_id(7)
    assert molecule_by_id(7) != molecule_by_id(8)


def test_molecule_formula_and_heavy_atoms():
    m = Molecule(mol_id=0, composition=(6, 6, 0, 1, 0, 0), rings=1, chain_length=3)
    assert m.formula == "C6H6O"
    assert m.heavy_atoms == 7


def test_molecule_by_id_rejects_negative_id():
    with pytest.raises(ReproError):
        molecule_by_id(-1)


def test_fingerprint_shape_and_range():
    fp = fingerprint(molecule_by_id(3))
    assert fp.shape == (FINGERPRINT_BITS,)
    assert fp.max() <= 1.0 and fp.min() >= 0.0


def test_fingerprint_structure_sensitivity():
    a = fingerprint(molecule_by_id(1))
    b = fingerprint(molecule_by_id(2))
    assert not np.allclose(a, b)


# --------------------------------------------------------------------- oracle
def test_pm7_deterministic():
    m = molecule_by_id(5)
    assert pm7_ionization_potential(m) == pm7_ionization_potential(m)


def test_pm7_chemically_plausible_range():
    ips = [pm7_ionization_potential(m) for m in map(molecule_by_id, range(50))]
    assert all(4.5 <= ip <= 11.5 for ip in ips)
    assert np.std(ips) > 0.1  # molecules genuinely differ


def test_pm7_rings_lower_ip():
    base = Molecule(mol_id=0, composition=(8, 10, 1, 1, 0, 0), rings=0, chain_length=4)
    ringed = Molecule(mol_id=0, composition=(8, 10, 1, 1, 0, 0), rings=3, chain_length=4)
    assert pm7_ionization_potential(ringed) < pm7_ionization_potential(base)


def test_pm7_scf_size_validation():
    with pytest.raises(ReproError):
        pm7_ionization_potential(molecule_by_id(0), scf_size=2)


def test_simulate_molecule_wrapper():
    mol_id, ip = simulate_molecule(9, pool_seed=0)
    assert mol_id == 9
    assert ip == pm7_ionization_potential(molecule_by_id(9))


# ------------------------------------------------------------------ surrogate
def _dataset(n=80, seed=0):
    mols = [molecule_by_id(i, seed=seed) for i in range(n)]
    x = np.stack([fingerprint(m) for m in mols])
    y = np.array([pm7_ionization_potential(m) for m in mols])
    return x, y


def test_ridge_learns_oracle():
    x, y = _dataset(120)
    model = RidgeRegression(alpha=1e-3).fit(x[:90], y[:90])
    assert model.score(x[90:], y[90:]) > 0.4  # learnable structure


def test_ridge_predict_before_fit_rejected():
    with pytest.raises(ReproError):
        RidgeRegression().predict(np.zeros((1, 4)))


def test_ridge_input_validation():
    with pytest.raises(ReproError):
        RidgeRegression(alpha=-1.0)
    with pytest.raises(ReproError):
        RidgeRegression().fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ReproError):
        RidgeRegression().fit(np.zeros((0, 2)), np.zeros(0))


def test_ridge_perfect_on_linear_data():
    rng = np.random.default_rng(0)
    x = rng.random((50, 5))
    w = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    y = x @ w + 4.0
    model = RidgeRegression(alpha=1e-8).fit(x, y)
    assert model.score(x, y) > 0.999


def test_ensemble_uncertainty_shrinks_on_seen_data():
    x, y = _dataset(100)
    ens = EnsembleSurrogate(n_members=6).fit(x[:80], y[:80])
    _, std_seen = ens.predict_with_uncertainty(x[:80])
    assert std_seen.mean() >= 0.0
    mean, std = ens.predict_with_uncertainty(x[80:])
    assert mean.shape == std.shape == (20,)


def test_ensemble_validation():
    with pytest.raises(ReproError):
        EnsembleSurrogate(n_members=0)
    with pytest.raises(ReproError):
        EnsembleSurrogate().predict(np.zeros((1, FINGERPRINT_BITS)))


def test_ensemble_deterministic():
    x, y = _dataset(40)
    a = EnsembleSurrogate(n_members=4, seed=1).fit(x, y).predict(x)
    b = EnsembleSurrogate(n_members=4, seed=1).fit(x, y).predict(x)
    assert np.allclose(a, b)


def test_train_surrogate_remote_wrapper():
    dataset = [simulate_molecule(i) for i in range(30)]
    surrogate = train_surrogate(dataset)
    assert surrogate.fitted
    with pytest.raises(ReproError):
        train_surrogate([])


def test_screen_candidates_sorted_best_first():
    dataset = [simulate_molecule(i) for i in range(40)]
    surrogate = train_surrogate(dataset)
    ranking = screen_candidates(surrogate, list(range(40, 60)))
    scores = [acq for _, acq, _, _ in ranking]
    assert scores == sorted(scores)
    ids = [mol_id for mol_id, *_ in ranking]
    assert set(ids) == set(range(40, 60))


# ---------------------------------------------------------------- the thinker
def test_design_molecules_small_campaign():
    with LocalExecutor(max_workers=2) as ex:
        dfk = DataFlowKernel(ex)
        result = design_molecules(
            dfk, pool_size=60, initial_batch=8, batch_size=4, rounds=3, timeout=120
        )
    assert result.simulations == 8 + 2 * 4
    assert result.best_id in result.evaluated
    assert result.evaluated[result.best_id] == result.best_ip
    curve = result.best_so_far_curve()
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))  # monotone


def test_design_beats_random_sampling():
    """Active learning should land within 0.5 eV of the pool optimum using
    a quarter of the oracle calls."""
    with LocalExecutor(max_workers=2) as ex:
        dfk = DataFlowKernel(ex)
        result = design_molecules(
            dfk, pool_size=120, initial_batch=12, batch_size=6, rounds=4, timeout=240
        )
    _, true_best = exhaustive_best(120)
    assert result.best_ip <= true_best + 0.5
    assert result.simulations <= 40


def test_design_pool_too_small_rejected():
    with LocalExecutor() as ex:
        dfk = DataFlowKernel(ex)
        with pytest.raises(ReproError):
            design_molecules(dfk, pool_size=10, initial_batch=8, batch_size=4, rounds=4)
