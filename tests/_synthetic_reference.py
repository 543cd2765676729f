"""The per-sample ``np.roll`` generator loop, kept as the equivalence reference.

What :class:`~repro.data.synthetic.SyntheticImageGenerator` ran before it
gathered from a precomputed table of shifted prototypes: every sample rolls
its class prototype by a fresh ``(dy, dx)`` and adds fresh noise, classes are
concatenated in order, one permutation shuffles the result.  The production
kernel must return exactly these arrays, dtypes included — references live in
``tests/``, not ``src/``.
"""

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = ["reference_generate", "reference_sample_class"]


def _deform(gen, prototype, rng):
    """Random small cyclic shift of the prototype (cheap deformation)."""
    if gen.jitter <= 0:
        return prototype
    dy = int(rng.integers(-gen.jitter, gen.jitter + 1))
    dx = int(rng.integers(-gen.jitter, gen.jitter + 1))
    return np.roll(np.roll(prototype, dy, axis=1), dx, axis=2)


def reference_sample_class(gen, label, n, rng=None):
    """Draw *n* samples of class *label*; returns ``(n, C, H, W)`` floats."""
    if not 0 <= label < gen.num_classes:
        raise ValueError(f"label {label} out of range")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = rng if rng is not None else gen._rng
    out = np.empty((n, *gen.image_shape), dtype=np.float32)
    proto = gen.prototypes[label]
    for i in range(n):
        deformed = _deform(gen, proto, rng)
        out[i] = deformed + rng.normal(0.0, gen.noise_scale, size=gen.image_shape)
    return out


def reference_generate(gen, class_counts, rng=None, shuffle=True):
    """Generate a dataset with the given per-class sample counts."""
    counts = np.asarray(class_counts, dtype=int)
    if counts.size != gen.num_classes:
        raise ValueError("class_counts length must equal num_classes")
    if np.any(counts < 0):
        raise ValueError("class_counts must be non-negative")
    rng = rng if rng is not None else gen._rng
    xs, ys = [], []
    for c, n in enumerate(counts):
        if n == 0:
            continue
        xs.append(reference_sample_class(gen, c, int(n), rng=rng))
        ys.append(np.full(int(n), c, dtype=int))
    if not xs:
        x = np.empty((0, *gen.image_shape), dtype=np.float32)
        y = np.empty(0, dtype=int)
    else:
        x = np.concatenate(xs)
        y = np.concatenate(ys)
    if shuffle and len(y):
        order = rng.permutation(len(y))
        x, y = x[order], y[order]
    return ArrayDataset(x, y, num_classes=gen.num_classes)
