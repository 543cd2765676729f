"""Learnable synthetic image-classification datasets.

The paper evaluates on MNIST and CIFAR10.  This environment has no network
access, so the reproduction uses procedurally generated datasets that keep
the two properties the experiments actually depend on:

1. a ``C``-class label space with a *learnable* class-conditional structure
   (so accuracy climbs during training and degrades when the population
   distribution is biased), and
2. a tunable difficulty so that the "MNIST-like" task converges quickly and
   the "CIFAR-like" task is substantially harder (more inter-class overlap
   and noise), mirroring the relative behaviour of the real datasets.

Each class ``c`` owns a random smooth prototype image; samples are the
prototype plus per-sample deformation (a random cyclic shift of up to
``jitter`` pixels per axis) and pixel noise.  Class overlap is injected by
mixing a shared background component into every prototype.  Every shifted
prototype is tabulated once per generator, and on numpy's default PCG64
stream a sample's two shifts are decoded from one raw 64-bit word, so a
sample costs one raw draw, one normal fill and one gather.

For a given seed the data never changes: samples are drawn class by class
(per sample the row shift, the column shift, then the pixel noise), and one
permutation shuffles the dataset — see :meth:`SyntheticImageGenerator.generate`.

The generator object is kept around by the experiment harness so that a
class-balanced test set (the paper's uniform test distribution) and the
skewed federated training pool are drawn from the *same* distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import ArrayDataset

__all__ = [
    "SyntheticImageGenerator",
    "make_synthetic_mnist",
    "make_synthetic_cifar",
    "make_uniform_test_set",
]


def _smooth_random_image(rng: np.random.Generator, channels: int, size: int,
                         max_frequency: float = 1.5) -> np.ndarray:
    """A smooth random image, standardised to zero mean and unit variance.

    Prototypes built from a handful of random low-frequency cosines are smooth
    (so small spatial jitter does not destroy them) while standardisation keeps
    distinct prototypes far apart relative to the per-pixel sample noise.
    """
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    img = np.zeros((channels, size, size))
    for ch in range(channels):
        acc = np.zeros((size, size))
        for _ in range(6):
            fx, fy = rng.uniform(0.3, max_frequency, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            acc += rng.uniform(0.3, 1.0) * np.cos(2 * np.pi * fx * xx + px) * np.cos(
                2 * np.pi * fy * yy + py
            )
        acc -= acc.mean()
        std = acc.std()
        if std > 0:
            acc /= std
        img[ch] = acc
    return img


def _whole_counts(values, name: str) -> np.ndarray:
    """*values* as non-negative ``int`` counts; integral floats are accepted."""
    counts = np.asarray(values)
    if (counts.dtype.kind not in "iuf" or not np.all(np.isfinite(counts))
            or np.any(counts != np.trunc(counts))):
        raise ValueError(f"{name} must be whole numbers, got {values!r}")
    if np.any(counts < 0):
        raise ValueError(f"{name} must be non-negative")
    return counts.astype(int)


@dataclass
class SyntheticImageGenerator:
    """Generator of a ``C``-class synthetic image classification problem.

    Parameters
    ----------
    num_classes:
        Label-space size ``C``.
    image_shape:
        ``(channels, height, width)`` of generated images.
    noise_scale:
        Standard deviation of per-pixel Gaussian noise; the main difficulty
        knob.
    class_overlap:
        Fraction of a shared background mixed into every class prototype
        (0 = fully separable prototypes, 1 = identical prototypes).
    jitter:
        Magnitude of per-sample prototype deformation: each sample is its
        prototype cyclically shifted by up to ``jitter`` pixels per axis (a
        non-negative integer; 0 disables the shift).
    max_frequency:
        Highest spatial frequency (cycles per image) of the prototype
        patterns.  Lower frequencies make prototypes robust to jitter (easier
        task); higher frequencies plus overlap make the task harder.
    seed:
        Seed of the prototype RNG; generators with the same seed define the
        same classification problem.
    """

    num_classes: int
    image_shape: tuple[int, int, int] = (1, 8, 8)
    noise_scale: float = 0.35
    class_overlap: float = 0.3
    jitter: int = 1
    max_frequency: float = 1.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        channels, height, width = self.image_shape
        if height != width:
            raise ValueError("only square images are supported")
        if not 0 <= self.class_overlap <= 1:
            raise ValueError("class_overlap must lie in [0, 1]")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        if self.max_frequency <= 0:
            raise ValueError("max_frequency must be positive")
        if self.jitter < 0 or self.jitter != int(self.jitter):
            raise ValueError("jitter must be a non-negative integer")
        rng = np.random.default_rng(self.seed)
        background = _smooth_random_image(rng, channels, height, self.max_frequency)
        prototypes = np.stack(
            [
                _smooth_random_image(rng, channels, height, self.max_frequency)
                for _ in range(self.num_classes)
            ]
        )
        self.prototypes = (
            (1 - self.class_overlap) * prototypes + self.class_overlap * background[None]
        )
        # every shifted prototype, tabulated without touching the RNG:
        # _jittered[c, dy + j, dx + j] = prototypes[c] rolled by dy rows, dx columns
        j = int(self.jitter)
        self._jittered = np.empty((self.num_classes, 2 * j + 1, 2 * j + 1, *self.image_shape))
        for dy in range(-j, j + 1):
            for dx in range(-j, j + 1):
                self._jittered[:, dy + j, dx + j] = np.roll(self.prototypes, (dy, dx), axis=(2, 3))
        self._rng = rng

    # -- sampling -------------------------------------------------------------

    def _sample(self, counts: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``counts[c]`` samples of each class ``c``, in class order."""
        y = np.repeat(np.arange(self.num_classes), counts)
        n, j, shape = len(y), int(self.jitter), self.image_shape
        drawn = None
        if not j:
            drawn = 0, 0, rng.normal(0.0, self.noise_scale, size=(n, *shape))
        elif type(rng.bit_generator) is np.random.PCG64:
            drawn = self._sample_pcg64(n, j, rng)
        if drawn is None:
            # one scalar draw at a time, the stream contract spelled out: any
            # bit generator other than PCG64, or a PCG64 shift to redraw
            rows = np.empty(n, dtype=np.intp)
            cols = np.empty(n, dtype=np.intp)
            noise = np.empty((n, *shape))
            integers, normal = rng.integers, rng.normal
            for i in range(n):
                rows[i] = integers(-j, j + 1) + j
                cols[i] = integers(-j, j + 1) + j
                noise[i] = normal(0.0, self.noise_scale, size=shape)
        else:
            rows, cols, noise = drawn
        # the shifts were pure copies and float addition commutes, so adding
        # the gathered prototypes into the noise is the per-sample
        # roll-then-add element for element (and rounds to float32 the same)
        noise += self._jittered[y, rows, cols]
        return noise.astype(np.float32), y

    def _sample_pcg64(self, n: int, j: int, rng: np.random.Generator):
        """Table indices, noise and end state of :meth:`_sample`'s scalar loop.

        Each scalar ``integers(-j, j + 1)`` takes the next 32-bit half of the
        stream: PCG64 hands out a 64-bit word's low half and buffers the high
        half for the next call, and ``normal`` reads whole words without
        touching that buffer.  So per sample the two shifts cost one raw word
        (plus the half buffered on entry, if any), drawn here before the
        sample's noise, and are decoded afterwards in one array pass by
        numpy's Lemire rule.  Returns ``None``, with *rng* restored, when a
        half would have been rejected and redrawn (odds 2**-32 per shift at
        ``jitter == 1``); the scalar loop then makes the redraw itself.
        """
        bit_gen = rng.bit_generator
        entry = bit_gen.state
        words = np.empty(n, dtype=np.uint64)
        noise = np.empty((n, *self.image_shape))
        raw, standard_normal = bit_gen.random_raw, rng.standard_normal
        for i in range(n):
            words[i] = raw()
            standard_normal(out=noise[i])
        # the 32-bit halves in the order integers() consumes them
        halves = np.empty(2 * n + 1, dtype=np.uint64)
        halves[0] = entry["uinteger"]
        halves[1::2] = words & 0xFFFFFFFF
        halves[2::2] = words >> 32
        buffered = bool(entry["has_uint32"])
        # Lemire: a half u gives the table index (u * span) >> 32 (= shift + j)
        # unless the product's low 32 bits fall under (2**32 - span) % span
        span = 2 * j + 1
        scaled = halves[1 - buffered : 2 * n + 1 - buffered] * np.uint64(span)
        if np.any((scaled & 0xFFFFFFFF) < (2**32 - span) % span):
            bit_gen.state = entry
            return None
        if n:  # the last word's high half: consumed, or still buffered
            state = bit_gen.state
            state["uinteger"] = int(halves[2 * n])
            bit_gen.state = state
        rows, cols = (scaled >> 32).astype(np.intp).reshape(n, 2).T
        # normal(0.0, s) returns 0.0 + s * z
        noise *= self.noise_scale
        noise += 0.0
        return rows, cols, noise

    def generate(self, class_counts: Sequence[int] | np.ndarray,
                 rng: Optional[np.random.Generator] = None,
                 shuffle: bool = True) -> ArrayDataset:
        """Generate a dataset with the given per-class sample counts.

        *class_counts* holds one whole, non-negative count per class
        (integral floats are accepted).

        RNG-stream contract: *rng* (default: the generator's own) is consumed
        class by class in label order; per sample it yields the row shift
        ``dy`` and the column shift ``dx`` (two scalar
        ``integers(-jitter, jitter + 1)`` calls, none when ``jitter == 0``),
        then the ``normal(0.0, noise_scale, size=image_shape)`` pixel noise.
        Unless *shuffle* is false, one ``permutation`` then shuffles the
        dataset.  The data for a seed never changes.
        """
        counts = np.asarray(class_counts)
        if counts.shape != (self.num_classes,):
            raise ValueError(
                f"class_counts must be a 1-D sequence of num_classes={self.num_classes} "
                f"counts, got shape {counts.shape}"
            )
        counts = _whole_counts(counts, "class_counts")
        rng = rng if rng is not None else self._rng
        x, y = self._sample(counts, rng)
        if shuffle and len(y):
            order = rng.permutation(len(y))
            x, y = x[order], y[order]
        return ArrayDataset(x, y, num_classes=self.num_classes)

    def flat_feature_dim(self) -> int:
        """Number of features per flattened sample (for MLP models)."""
        c, h, w = self.image_shape
        return c * h * w


def make_synthetic_mnist(num_classes: int = 10, image_size: int = 8,
                         seed: Optional[int] = None) -> SyntheticImageGenerator:
    """An MNIST-like synthetic task: single channel, well separated classes."""
    return SyntheticImageGenerator(
        num_classes=num_classes,
        image_shape=(1, image_size, image_size),
        noise_scale=0.3,
        class_overlap=0.25,
        jitter=1,
        max_frequency=1.2,
        seed=seed,
    )


def make_synthetic_cifar(num_classes: int = 10, image_size: int = 8,
                         seed: Optional[int] = None) -> SyntheticImageGenerator:
    """A CIFAR-like synthetic task: three channels, heavier overlap and noise."""
    return SyntheticImageGenerator(
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        noise_scale=0.6,
        class_overlap=0.55,
        jitter=1,
        max_frequency=1.6,
        seed=seed,
    )


def make_uniform_test_set(generator: SyntheticImageGenerator, samples_per_class: int = 50,
                          seed: Optional[int] = None) -> ArrayDataset:
    """A class-balanced test set (the paper's uniform test distribution)."""
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be positive")
    rng = np.random.default_rng(seed)
    counts = np.full(generator.num_classes, samples_per_class, dtype=int)
    return generator.generate(counts, rng=rng)
