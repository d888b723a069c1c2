"""Synthetic multi-label corpora shaped like yeast and scene.

Each shape has a fixed generative model ("world"): a low-rank latent space
that drives both the features and the labels, so the labels are learnable
from the features and the quality metrics mean something. The world is
drawn from a constant seed; the benchmark's ``--seed`` only draws the rows.
That keeps the quality metrics about as steady across seeds as one
corpus's cross-validation is, while every seed still gives new inputs.

Labels: every row gets its highest-scoring label, then the highest
remaining (row, label) scores are switched on until the label cardinality
reaches the target. Per-label offsets make label frequencies uneven.
"""

from dataclasses import dataclass

import numpy as np

LATENT = 10
# per-feature noise scales spread over a decade, as real feature columns
# differ in variance (equal scales would put a large cluster of near-equal
# eigenvalues into the scatter matrices)
NOISE_SCALE = (1.0, 0.1)


@dataclass(frozen=True)
class Shape:
    name: str
    rows: int
    features: int
    labels: int
    cardinality: float


YEAST = Shape("yeast", 2417, 103, 14, 4.24)
SCENE = Shape("scene", 2407, 294, 6, 1.07)
# toy sizes for the smoke mode: same generator, seconds instead of minutes
YEAST_TOY = Shape("yeast-toy", 90, 12, 5, 1.8)
SCENE_TOY = Shape("scene-toy", 90, 16, 4, 1.07)


def _world(shape: Shape):
    rng = np.random.Generator(np.random.PCG64(list(shape.name.encode())))
    mixing = rng.normal(size=(LATENT, shape.features)) / np.sqrt(LATENT)
    shared = rng.normal(size=(LATENT, 1))
    directions = (0.5 * shared + rng.normal(size=(LATENT, shape.labels))) / np.sqrt(LATENT)
    offsets = np.linspace(0.5, -0.5, shape.labels)
    noise = np.geomspace(*NOISE_SCALE, shape.features)
    return mixing, directions, offsets, noise


def make_corpus(shape: Shape, seed: int, rows: int = None):
    """``rows`` instances (default: the shape's) as (features, bool labels)."""
    n = shape.rows if rows is None else rows
    mixing, directions, offsets, noise = _world(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    latent = rng.normal(size=(n, LATENT))
    features = latent @ mixing + noise * rng.normal(size=(n, shape.features))
    scores = latent @ directions + offsets
    labels = np.zeros((n, shape.labels), dtype=bool)
    labels[np.arange(n), np.argmax(scores, axis=1)] = True
    extra = int(round((shape.cardinality - 1.0) * n))
    if extra:
        rest = np.where(labels, -np.inf, scores).ravel()
        labels.ravel()[np.argpartition(-rest, extra - 1)[:extra]] = True
    return features, labels
