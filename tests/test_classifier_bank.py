"""Tests for the per-device-type classifier bank."""

import numpy as np
import pytest

from repro.exceptions import IdentificationError
from repro.identification.classifier_bank import ClassifierBank
from repro.identification.registry import FingerprintRegistry


@pytest.fixture(scope="module")
def small_registry(request):
    dataset = request.getfixturevalue("small_dataset")
    return dataset.to_registry()


class TestTraining:
    def test_one_classifier_per_type(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=5, random_state=0)
        bank.train_from_registry(registry)
        assert bank.device_types == registry.device_types
        assert len(bank) == len(registry.device_types)

    def test_negative_subsample_ratio_respected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(negative_ratio=3.0, n_estimators=3, random_state=0)
        device_type = registry.device_types[0]
        classifier = bank.train_type(
            device_type,
            registry.fingerprints_of(device_type),
            registry.fingerprints_excluding(device_type),
        )
        assert classifier.positive_count == registry.count(device_type)
        assert classifier.negative_count == min(
            3 * registry.count(device_type),
            registry.total_fingerprints - registry.count(device_type),
        )

    def test_training_empty_registry_rejected(self):
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_from_registry(FingerprintRegistry())

    def test_training_without_positives_rejected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_type("X", [], registry.fingerprints_excluding("Aria"))

    def test_training_without_negatives_rejected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_type("Aria", registry.fingerprints_of("Aria"), [])

    def test_incremental_add_does_not_touch_existing(self, small_dataset):
        registry = small_dataset.to_registry()
        types = registry.device_types
        bank = ClassifierBank(n_estimators=3, random_state=0)
        first_type, second_type = types[0], types[1]
        bank.train_type(
            first_type,
            registry.fingerprints_of(first_type),
            registry.fingerprints_excluding(first_type),
        )
        existing = bank.classifier_of(first_type)
        bank.train_type(
            second_type,
            registry.fingerprints_of(second_type),
            registry.fingerprints_excluding(second_type),
        )
        assert bank.classifier_of(first_type) is existing

    def test_remove_type(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=3, random_state=0)
        bank.train_from_registry(registry)
        target = registry.device_types[0]
        bank.remove_type(target)
        assert target not in bank
        with pytest.raises(IdentificationError):
            bank.classifier_of(target)


class TestMatching:
    def test_own_type_usually_accepted(self, small_dataset, trained_identifier):
        bank = trained_identifier.bank
        hits = 0
        fingerprints = small_dataset.of_type("Aria")
        for fingerprint in fingerprints:
            if "Aria" in bank.matching_types(fingerprint):
                hits += 1
        assert hits / len(fingerprints) >= 0.7

    def test_acceptance_probabilities_in_range(self, small_dataset, trained_identifier):
        fingerprint = small_dataset.fingerprints[0]
        probabilities = trained_identifier.bank.acceptance_probabilities(fingerprint)
        assert set(probabilities) == set(trained_identifier.bank.device_types)
        assert all(0.0 <= value <= 1.0 for value in probabilities.values())

    def test_unknown_classifier_lookup_rejected(self, trained_identifier):
        with pytest.raises(IdentificationError):
            trained_identifier.bank.classifier_of("NotADevice")


def _per_type_scores(bank, fixed):
    """Each type's own forest, called one by one (the unmerged reference)."""
    positive, accepted = [], []
    for device_type in bank.device_types:
        scorer = bank.classifier_of(device_type).scorer
        probabilities = scorer.predict_proba(fixed)
        column = list(scorer.classes_).index(1)
        positive.append(probabilities[:, column])
        accepted.append(np.argmax(probabilities, axis=1) == column)
    return np.stack(positive, axis=1), np.stack(accepted, axis=1)


class TestStackedScoring:
    def test_merged_forest_scores_bit_for_bit(self, small_dataset, trained_identifier):
        bank = trained_identifier.bank
        rng = np.random.default_rng(0)
        fixed = np.stack(
            [
                fingerprint.to_fixed_vector(bank.fixed_packet_count)
                for fingerprint in small_dataset.fingerprints[:40]
            ]
        )
        noisy = fixed + rng.integers(-1, 2, size=fixed.shape)
        for matrix in (fixed, noisy, fixed[:1]):
            scores = bank.score_batch(matrix)
            assert bank._stacked[1] is not None
            positive, accepted = _per_type_scores(bank, matrix)
            assert scores.positive.tobytes() == positive.tobytes()
            assert np.array_equal(scores.accepted, accepted)

    def test_retraining_or_removing_a_type_rebuilds_the_merge(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=3, random_state=0)
        bank.train_from_registry(registry)
        fixed = np.stack(
            [
                fingerprint.to_fixed_vector(bank.fixed_packet_count)
                for fingerprint in small_dataset.fingerprints[:10]
            ]
        )
        bank.score_batch(fixed)
        device_type = registry.device_types[0]
        bank.train_type(
            device_type,
            registry.fingerprints_of(device_type),
            registry.fingerprints_excluding(device_type),
        )
        positive, _ = _per_type_scores(bank, fixed)
        assert bank.score_batch(fixed).positive.tobytes() == positive.tobytes()
        bank.remove_type(device_type)
        positive, _ = _per_type_scores(bank, fixed)
        assert bank.score_batch(fixed).positive.tobytes() == positive.tobytes()
