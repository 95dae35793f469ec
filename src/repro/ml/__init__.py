"""Machine-learning substrate: a scikit-learn stand-in.

The paper trains one binary Random Forest classifier per device-type.  This
subpackage provides a from-scratch implementation of CART decision trees,
bootstrap-aggregated Random Forests compiled to flat arrays for serving,
stratified k-fold cross-validation and common classification metrics.
"""

from repro.ml.compiled import CompiledForest, CompiledTree
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.sampling import bootstrap_indices, negative_subsample, train_test_split
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import StratifiedKFold, cross_val_predict

__all__ = [
    "CompiledForest",
    "CompiledTree",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
    "f1_score",
    "classification_report",
    "StratifiedKFold",
    "cross_val_predict",
    "bootstrap_indices",
    "negative_subsample",
    "train_test_split",
]
