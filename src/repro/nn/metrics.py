"""Evaluation metrics for classification models.

The paper reports top-1 test accuracy on a class-balanced test set; the
per-class breakdown and confusion matrix feed the analysis of which classes
suffer under biased client participation (Figure 10 discussion).

Two evaluation drivers produce the same report from the same model:

* :func:`evaluate_model` — the sequential reference, a Python loop over
  64-sample batches;
* :class:`BatchedEvaluator` — forward-only inference through the cohort
  kernels (:class:`repro.nn.batched.BatchedModel` with a single client
  slice), which rides the whole test set down the batch axis in a few large
  chunks.  Predictions — and therefore every derived metric — are identical
  to the sequential loop; only the Python-loop overhead disappears.
"""

from __future__ import annotations

import numpy as np

from ..data.dataloader import DataLoader
from ..data.dataset import ArrayDataset
from .batched import BatchedModel
from .module import Module

__all__ = [
    "BatchedEvaluator",
    "confusion_matrix",
    "evaluate_model",
    "per_class_accuracy",
]


def confusion_matrix(predictions: np.ndarray, targets: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """Confusion matrix ``M[i, j]`` = count of true class *i* predicted as *j*."""
    predictions = np.asarray(predictions, dtype=int)
    targets = np.asarray(targets, dtype=int)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same shape")
    for name, values in (("predictions", predictions), ("targets", targets)):
        if values.size and (values.min() < 0 or values.max() >= num_classes):
            raise ValueError(f"{name} contain labels outside [0, {num_classes})")
    # bincount over flattened (target, prediction) pairs: same integer counts
    # as np.add.at, an order of magnitude faster on the per-round eval path
    pairs = targets.ravel() * num_classes + predictions.ravel()
    return np.bincount(pairs, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def per_class_accuracy(predictions: np.ndarray, targets: np.ndarray,
                       num_classes: int) -> np.ndarray:
    """Recall of each class; classes with no test samples report NaN."""
    matrix = confusion_matrix(predictions, targets, num_classes)
    totals = matrix.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, np.diag(matrix) / totals, np.nan)


def _classification_report(pred: np.ndarray, target: np.ndarray,
                           num_classes: int) -> dict:
    """The standard evaluation dict from a full set of predictions."""
    if len(pred) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return {
        "accuracy": float((pred == target).mean()),
        "per_class_accuracy": per_class_accuracy(pred, target, num_classes),
        "confusion_matrix": confusion_matrix(pred, target, num_classes),
        "n_samples": int(len(pred)),
    }


def evaluate_model(model: Module, dataset: ArrayDataset, batch_size: int = 64) -> dict:
    """Evaluate *model* on *dataset*; returns accuracy and per-class stats."""
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    predictions: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for xb, yb in loader:
        logits = model(xb)
        predictions.append(logits.argmax(axis=1))
        targets.append(yb)
    model.train()
    pred = np.concatenate(predictions) if predictions else np.empty(0, dtype=int)
    target = np.concatenate(targets) if targets else np.empty(0, dtype=int)
    return _classification_report(pred, target, dataset.num_classes)


class BatchedEvaluator:
    """Forward-only batched inference for the server's test pass.

    Wraps a model template as a one-client :class:`BatchedModel` — the single
    model broadcast to the eval-batch axis — and pushes the test set through
    in ``chunk_size``-sample slabs: ``⌈N / chunk_size⌉`` batched forwards
    instead of ``N / 64`` Python-loop iterations.  Each chunk computes the
    very same per-row logits the sequential loop would, so predictions and
    every derived metric match :func:`evaluate_model` exactly.

    The evaluator is round-persistent: construct once (this is where
    :class:`~repro.nn.batched.UnvectorizableModelError` may rule the model
    out, e.g. a custom architecture with no registered cohort chain), then
    per evaluation call :meth:`load_state` with the current global weights
    and :meth:`evaluate`.

    ``chunk_size`` is an upper bound; the effective chunk also respects a
    fixed per-chunk element budget, so wide samples (conv image stacks,
    whose im2col intermediates multiply the footprint) automatically run in
    smaller slabs instead of ballooning memory.
    """

    #: feature elements per chunk the evaluator aims for (~4 MB of float64);
    #: chunks shrink below ``chunk_size`` when samples are wider than this
    CHUNK_ELEMENT_BUDGET = 1 << 19

    def __init__(self, template: Module, chunk_size: int = 2048):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self._model = BatchedModel(template, 1)
        self._model.eval()
        self._cast_cache: "tuple[np.ndarray, np.ndarray] | None" = None

    def _effective_chunk(self, sample_elements: int) -> int:
        """Samples per forward chunk for a given per-sample element count."""
        budget = max(1, self.CHUNK_ELEMENT_BUDGET // max(1, sample_elements))
        return min(self.chunk_size, budget)

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Load the weights to evaluate (read-only views are fine)."""
        self._model.load_state_dict_broadcast(state)

    def _features(self, dataset: ArrayDataset) -> np.ndarray:
        """The dataset's features as float64, cached per dataset.

        The cast is exact (float32 features widen losslessly) and
        round-persistent: the server evaluates the same test set every round,
        so the float64 copy is made once for its lifetime (the source array
        is pinned, making identity a sound cache key).  The sequential loop
        instead promotes every mini-batch inside its matmuls — same values,
        recomputed every round.
        """
        x = np.asarray(dataset.x)
        if x.dtype == np.float64:
            return x
        if self._cast_cache is None or self._cast_cache[0] is not x:
            self._cast_cache = (x, x.astype(np.float64))
        return self._cast_cache[1]

    def predictions(self, dataset: ArrayDataset) -> np.ndarray:
        """Top-1 predictions for every sample, in dataset order."""
        x = self._features(dataset)
        n = len(dataset)
        pred = np.empty(n, dtype=int)
        step = self._effective_chunk(int(np.prod(x.shape[1:], dtype=int)))
        for start in range(0, n, step):
            chunk = x[start : start + step]
            logits = self._model.forward(chunk[None])
            pred[start : start + chunk.shape[0]] = logits[0].argmax(axis=1)
        return pred

    def evaluate(self, dataset: ArrayDataset) -> dict:
        """The same report as :func:`evaluate_model`, from batched forwards."""
        pred = self.predictions(dataset)
        target = np.asarray(dataset.y, dtype=int)
        return _classification_report(pred, target, dataset.num_classes)
