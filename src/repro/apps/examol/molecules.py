"""Synthetic molecule space and descriptors (the RDKit substitute).

A molecule is a deterministic pseudo-structure keyed by an integer id:
a composition vector (atom counts), a topology signature, and a derived
Morgan-like fingerprint.  Everything is reproducible from the id alone,
so workers never need molecule files shipped — only ids cross the wire,
like SMILES strings in the real ExaMol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.util.rng import seeded_rng

_ELEMENTS = ("C", "H", "N", "O", "S", "F")
FINGERPRINT_BITS = 64


@dataclass(frozen=True)
class Molecule:
    """A synthetic molecule: id, composition, and ring/chain topology."""

    mol_id: int
    composition: tuple  # counts per element in _ELEMENTS order
    rings: int
    chain_length: int

    @property
    def formula(self) -> str:
        parts = [
            f"{el}{count}" if count > 1 else el
            for el, count in zip(_ELEMENTS, self.composition)
            if count
        ]
        return "".join(parts) or "X"

    @property
    def heavy_atoms(self) -> int:
        return sum(
            count for el, count in zip(_ELEMENTS, self.composition) if el != "H"
        )


def molecule_by_id(mol_id: int, *, seed: int | str = 0) -> Molecule:
    """Reconstruct one molecule from its id (each id has its own RNG stream,
    so a single molecule never requires generating the whole pool)."""
    if mol_id < 0:
        raise ReproError("mol_id must be non-negative")
    rng = seeded_rng("molecule", seed, mol_id)
    carbons = int(rng.integers(2, 20))
    hydrogens = int(rng.integers(carbons, 2 * carbons + 3))
    hetero = rng.integers(0, 4, size=4)
    composition = (carbons, hydrogens, *(int(h) for h in hetero))
    return Molecule(
        mol_id=mol_id,
        composition=composition,
        rings=int(rng.integers(0, 4)),
        chain_length=int(rng.integers(1, carbons + 1)),
    )


def fingerprint(molecule: Molecule) -> np.ndarray:
    """A Morgan-fingerprint-like feature vector in [0, 1]^FINGERPRINT_BITS.

    Hash-folded substructure counts: deterministic in the molecule's
    structure, smooth enough that similar compositions give similar
    fingerprints (which is what makes surrogate learning possible).
    """
    features = np.zeros(FINGERPRINT_BITS, dtype=np.float64)
    comp = np.asarray(molecule.composition, dtype=np.float64)
    # Composition channels: atom counts folded into the first bits.
    for i, count in enumerate(comp):
        features[(i * 7) % FINGERPRINT_BITS] += count
        features[(i * 13 + 3) % FINGERPRINT_BITS] += count * 0.5
    # Topology channels.
    features[(molecule.rings * 11 + 1) % FINGERPRINT_BITS] += 2.0 + molecule.rings
    features[(molecule.chain_length * 17 + 5) % FINGERPRINT_BITS] += 1.0
    # Pairwise interaction terms give the oracle its nonlinear structure.
    for i in range(len(comp)):
        for j in range(i + 1, len(comp)):
            idx = (i * 19 + j * 23 + 9) % FINGERPRINT_BITS
            features[idx] += np.sqrt(comp[i] * comp[j]) * 0.3
    peak = features.max()
    if peak > 0:
        features /= peak
    return features
