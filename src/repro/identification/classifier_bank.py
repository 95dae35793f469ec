"""One binary Random Forest classifier per device-type.

The paper's first identification stage trains, for every known device-type
``D_i``, a classifier ``C_i`` that answers "does this fingerprint belong to
``D_i``?".  All fingerprints of ``D_i`` form the positive class; a random
subsample of ``10 x n`` fingerprints of other types forms the negative
class (to avoid imbalanced-class learning issues).  New device-types can be
added without retraining the existing classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import IdentificationError
from repro.features.fingerprint import FIXED_PACKET_COUNT, Fingerprint
from repro.identification.registry import FingerprintRegistry
from repro.ml.compiled import CompiledForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.sampling import negative_subsample

NEGATIVE_LABEL = 0
POSITIVE_LABEL = 1


@dataclass
class DeviceTypeClassifier:
    """The binary accept/reject classifier of a single device-type.

    Either of ``model`` (the interpreted forest) and ``compiled`` (its
    flattened-array form) may be absent: freshly trained classifiers carry
    both, classifiers reloaded by the model store carry only the compiled
    arrays.  Predictions are identical through either path; the compiled
    one is preferred because it scores whole batches without touching
    Python node objects.
    """

    device_type: str
    model: Optional[RandomForestClassifier]
    compiled: Optional[CompiledForest] = None
    positive_count: int = 0
    negative_count: int = 0

    @property
    def scorer(self) -> Union[RandomForestClassifier, CompiledForest]:
        """The prediction backend: compiled when available, else interpreted."""
        backend = self.compiled if self.compiled is not None else self.model
        if backend is None:
            raise IdentificationError(
                f"classifier for type {self.device_type!r} has no model attached"
            )
        return backend

    def accepts(self, fixed_vector: np.ndarray) -> bool:
        """True when the classifier predicts the fingerprint matches its type."""
        prediction = self.scorer.predict(np.atleast_2d(fixed_vector))[0]
        return int(prediction) == POSITIVE_LABEL

    def acceptance_probability(self, fixed_vector: np.ndarray) -> float:
        """The forest's probability that the fingerprint matches its type."""
        scorer = self.scorer
        probabilities = scorer.predict_proba(np.atleast_2d(fixed_vector))[0]
        classes = list(scorer.classes_)
        if POSITIVE_LABEL not in classes:
            return 0.0
        return float(probabilities[classes.index(POSITIVE_LABEL)])


@dataclass(frozen=True)
class BankScores:
    """Stage-1 scores of a fingerprint batch against every classifier.

    Attributes:
        device_types: bank types, sorted; the column order of the matrices.
        positive: ``(n, n_types)`` probability that sample ``i`` belongs to
            type ``j``.
        accepted: ``(n, n_types)`` boolean accept verdicts (the same
            argmax rule the per-sample path applies: ties reject).
    """

    device_types: tuple[str, ...]
    positive: np.ndarray
    accepted: np.ndarray

    def matched_types(self, row: int) -> list[str]:
        """The accepted device-types of one sample, in sorted type order."""
        return [
            device_type
            for device_type, accepted in zip(self.device_types, self.accepted[row])
            if accepted
        ]

    def probabilities_of(self, row: int) -> dict[str, float]:
        """Per-type acceptance probabilities of one sample."""
        return {
            device_type: float(probability)
            for device_type, probability in zip(self.device_types, self.positive[row])
        }


@dataclass
class ClassifierBank:
    """The collection of per-device-type classifiers.

    Attributes:
        negative_ratio: negative-to-positive sample ratio (10 in the paper).
        n_estimators: trees per Random Forest.
        max_depth: optional per-tree depth limit.
        fixed_packet_count: number of packets in the fixed fingerprint F'.
        random_state: seed controlling negative subsampling and forests.
        n_jobs: worker processes per forest fit (see
            :class:`~repro.ml.forest.RandomForestClassifier`).
        compile_models: flatten each freshly trained forest into a
            :class:`~repro.ml.compiled.CompiledForest` so that batch
            scoring never walks Python node objects (default True).
    """

    negative_ratio: float = 10.0
    n_estimators: int = 10
    max_depth: Optional[int] = None
    fixed_packet_count: int = FIXED_PACKET_COUNT
    random_state: Optional[int] = None
    n_jobs: Optional[int] = None
    compile_models: bool = True

    _classifiers: dict[str, DeviceTypeClassifier] = field(default_factory=dict)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _stacked: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.random_state)

    # ------------------------------------------------------------------ #
    # Training.
    # ------------------------------------------------------------------ #
    def train_type(
        self,
        device_type: str,
        positives: Sequence[Fingerprint],
        negatives: Sequence[Fingerprint],
    ) -> DeviceTypeClassifier:
        """Train (or retrain) the classifier of one device-type.

        Only this type's classifier is touched; the paper highlights that
        adding a new device-type never requires relearning existing models.
        """
        if not positives:
            raise IdentificationError(f"no positive fingerprints for type {device_type!r}")
        if not negatives:
            raise IdentificationError(f"no negative fingerprints for type {device_type!r}")

        chosen_negative_indices = negative_subsample(
            range(len(negatives)), len(positives), ratio=self.negative_ratio, rng=self._rng
        )
        chosen_negatives = [negatives[int(index)] for index in chosen_negative_indices]

        positive_matrix = np.stack(
            [fingerprint.to_fixed_vector(self.fixed_packet_count) for fingerprint in positives]
        )
        negative_matrix = np.stack(
            [
                fingerprint.to_fixed_vector(self.fixed_packet_count)
                for fingerprint in chosen_negatives
            ]
        )
        X = np.vstack([positive_matrix, negative_matrix]).astype(np.float64)
        y = np.concatenate(
            [
                np.full(len(positive_matrix), POSITIVE_LABEL),
                np.full(len(negative_matrix), NEGATIVE_LABEL),
            ]
        )
        model = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            random_state=int(self._rng.integers(0, 2**31 - 1)),
            n_jobs=self.n_jobs,
        )
        model.fit(X, y)
        classifier = DeviceTypeClassifier(
            device_type=device_type,
            model=model,
            compiled=model.compile() if self.compile_models else None,
            positive_count=len(positive_matrix),
            negative_count=len(negative_matrix),
        )
        self._classifiers[device_type] = classifier
        return classifier

    def train_from_registry(self, registry: FingerprintRegistry) -> None:
        """Train one classifier per device-type present in the registry."""
        if not registry.device_types:
            raise IdentificationError("the fingerprint registry is empty")
        for device_type in registry.device_types:
            self.train_type(
                device_type,
                registry.fingerprints_of(device_type),
                registry.fingerprints_excluding(device_type),
            )

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    @property
    def device_types(self) -> list[str]:
        return sorted(self._classifiers)

    def __len__(self) -> int:
        return len(self._classifiers)

    def __contains__(self, device_type: object) -> bool:
        return device_type in self._classifiers

    def classifier_of(self, device_type: str) -> DeviceTypeClassifier:
        if device_type not in self._classifiers:
            raise IdentificationError(f"no classifier trained for type {device_type!r}")
        return self._classifiers[device_type]

    def remove_type(self, device_type: str) -> None:
        """Drop the classifier of a device-type (e.g. a retired model)."""
        self._classifiers.pop(device_type, None)

    # ------------------------------------------------------------------ #
    # Batch scoring.
    # ------------------------------------------------------------------ #
    def score_batch(self, fixed_matrix: np.ndarray) -> BankScores:
        """Score a ``(batch, d)`` fixed-vector matrix against every type.

        One call replaces the historical nested loop (per sample, per
        type, per tree, per node): the ``(batch x types)`` probability and
        accept matrices come from one descent of the merged forest when
        every type's compiled forest has the same shape, else from one
        vectorized call per type.  Both give the same bits.
        """
        fixed_matrix = np.atleast_2d(np.asarray(fixed_matrix, dtype=np.float64))
        types = tuple(self.device_types)
        stacked = self._stacked_forest(types)
        if stacked is not None:
            return self._score_stacked(stacked, types, fixed_matrix)
        positive = np.zeros((len(fixed_matrix), len(types)), dtype=np.float64)
        accepted = np.zeros((len(fixed_matrix), len(types)), dtype=bool)
        for column, device_type in enumerate(types):
            scorer = self._classifiers[device_type].scorer
            probabilities = scorer.predict_proba(fixed_matrix)
            positions = np.nonzero(np.asarray(scorer.classes_) == POSITIVE_LABEL)[0]
            if not len(positions):
                continue
            positive_column = int(positions[0])
            positive[:, column] = probabilities[:, positive_column]
            # Same rule as the per-sample path: accepted iff argmax lands on
            # the positive class (ties resolve to the lower label = reject).
            accepted[:, column] = np.argmax(probabilities, axis=1) == positive_column
        return BankScores(device_types=types, positive=positive, accepted=accepted)

    def _stacked_forest(self, types: tuple[str, ...]) -> Optional[CompiledForest]:
        """Every type's compiled forest merged into one, when they share a shape.

        One descent of all ``(sample, type, tree)`` triples replaces a
        forest call per type, whose fixed cost dominates small batches.
        The merge is cached against the scorer objects themselves, so
        training, replacing or removing a classifier rebuilds it.
        """
        if not types:
            return None
        scorers = tuple(self._classifiers[device_type].scorer for device_type in types)
        if self._stacked is not None:
            cached_scorers, cached = self._stacked
            if len(cached_scorers) == len(scorers) and all(
                old is new for old, new in zip(cached_scorers, scorers)
            ):
                return cached
        first = scorers[0]
        uniform = all(
            isinstance(scorer, CompiledForest)
            and scorer.n_estimators == first.n_estimators > 0
            and scorer.n_features_ == first.n_features_
            and np.array_equal(scorer.classes_, first.classes_)
            for scorer in scorers
        )
        stacked = (
            CompiledForest(
                trees=tuple(tree for scorer in scorers for tree in scorer.trees),
                classes_=first.classes_,
                n_features_=first.n_features_,
            )
            if uniform
            else None
        )
        self._stacked = (scorers, stacked)
        return stacked

    @staticmethod
    def _score_stacked(
        stacked: CompiledForest, types: tuple[str, ...], fixed_matrix: np.ndarray
    ) -> BankScores:
        """:meth:`score_batch` through the merged forest, bit for bit.

        Each type's leaf probabilities are summed in tree order and divided
        by its tree count, exactly as its own forest's ``predict_proba``.
        """
        trees = stacked.n_estimators // len(types)
        leaves = stacked.leaves(fixed_matrix)
        leaf_probabilities = stacked.leaf_probabilities
        first_trees = np.arange(len(types)) * trees
        accumulated = np.zeros(
            (len(fixed_matrix), len(types), len(stacked.classes_)), dtype=np.float64
        )
        for tree in range(trees):
            accumulated += leaf_probabilities[leaves[:, first_trees + tree]]
        probabilities = accumulated / trees
        positions = np.nonzero(np.asarray(stacked.classes_) == POSITIVE_LABEL)[0]
        if not len(positions):
            shape = (len(fixed_matrix), len(types))
            return BankScores(types, np.zeros(shape), np.zeros(shape, dtype=bool))
        positive_column = int(positions[0])
        return BankScores(
            device_types=types,
            positive=np.ascontiguousarray(probabilities[:, :, positive_column]),
            accepted=np.argmax(probabilities, axis=2) == positive_column,
        )

    def score_fingerprints(self, fingerprints: Sequence[Fingerprint]) -> BankScores:
        """Batch-score fingerprints (fixed vectors are built here)."""
        if not fingerprints:
            return BankScores(
                device_types=tuple(self.device_types),
                positive=np.zeros((0, len(self._classifiers))),
                accepted=np.zeros((0, len(self._classifiers)), dtype=bool),
            )
        fixed = np.stack(
            [fingerprint.to_fixed_vector(self.fixed_packet_count) for fingerprint in fingerprints]
        )
        return self.score_batch(fixed)

    def matching_types(self, fingerprint: Fingerprint) -> list[str]:
        """Every device-type whose classifier accepts the fingerprint."""
        return self.score_fingerprints([fingerprint]).matched_types(0)

    def acceptance_probabilities(self, fingerprint: Fingerprint) -> dict[str, float]:
        """Per-type acceptance probabilities (useful for diagnostics)."""
        return self.score_fingerprints([fingerprint]).probabilities_of(0)
