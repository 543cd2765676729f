"""Loss functions for the NumPy NN substrate.

The paper's analysis (§4.2) and all experiments use the cross-entropy loss
for ``C``-class classification, so that is the primary loss here.  The
implementation uses the log-sum-exp trick for numerical stability and
returns both the scalar loss and the gradient with respect to the logits, so
the training loop is a straightforward ``forward → loss → backward``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_softmax", "CrossEntropyLoss"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax (log-sum-exp trick)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class CrossEntropyLoss:
    """Mean cross-entropy between logits and integer targets.

    Supports optional per-class weights (used by the cost-sensitive-learning
    ablation) — with ``weights=None`` this is the plain loss of the paper.
    """

    def __init__(self, class_weights: np.ndarray | None = None):
        self.class_weights = None if class_weights is None else np.asarray(class_weights, float)

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        return self.forward(logits, targets)

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(loss, grad_logits)``.

        ``grad_logits`` is the gradient of the *mean* loss with respect to the
        logits, ready to feed into ``model.backward``.
        """
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets, dtype=int)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        n, num_classes = logits.shape
        if targets.shape != (n,):
            raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
        if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
            raise ValueError("targets out of range")
        log_probs = log_softmax(logits)
        probs = np.exp(log_probs)
        picked = log_probs[np.arange(n), targets]
        if self.class_weights is not None:
            if self.class_weights.shape != (num_classes,):
                raise ValueError("class_weights length must equal the number of classes")
            sample_weights = self.class_weights[targets]
        else:
            sample_weights = np.ones(n)
        weight_total = sample_weights.sum()
        loss = float(-(sample_weights * picked).sum() / weight_total)
        grad = probs * sample_weights[:, None]
        grad[np.arange(n), targets] -= sample_weights
        grad /= weight_total
        return loss, grad
