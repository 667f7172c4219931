"""ExaMol: molecular design via active learning (paper §4.1.2).

The real ExaMol couples PM7 quantum chemistry (OpenMOPAC), RDKit
descriptors, and scikit-learn surrogates under Colmena task steering.
Offline substitutes, all implemented from scratch:

* :mod:`repro.apps.examol.molecules` — a synthetic molecule space with
  deterministic Morgan-fingerprint-like descriptors;
* :mod:`repro.apps.examol.simulate` — a deterministic "PM7" oracle for
  ionization potential (smooth nonlinear function of the descriptor,
  computed through genuine iterative numerics so it costs real time);
* :mod:`repro.apps.examol.surrogate` — ridge regression + bagged
  ensemble with uncertainty, NumPy only;
* :mod:`repro.apps.examol.thinker` — the Colmena-style steering loop
  running simulate/train/infer apps through :mod:`repro.flow`.
"""

from repro.apps.examol.molecules import (
    Molecule,
    fingerprint,
    molecule_by_id,
)
from repro.apps.examol.simulate import pm7_ionization_potential
from repro.apps.examol.surrogate import EnsembleSurrogate, RidgeRegression
from repro.apps.examol.thinker import ActiveLearningResult, design_molecules

__all__ = [
    "Molecule",
    "molecule_by_id",
    "fingerprint",
    "pm7_ionization_potential",
    "RidgeRegression",
    "EnsembleSurrogate",
    "ActiveLearningResult",
    "design_molecules",
]
