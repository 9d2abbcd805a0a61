"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from emodub.library import FootageLibrary, MODALITY_ORDER


def random_library(rng: np.random.Generator, n: int, dims=None, speakers=3) -> FootageLibrary:
    """Library of n records with standard-normal vectors (test-side randomness).

    Draw order: record by record, each modality's vector and then the speaker.
    """
    if dims is None:
        dims = {m: 8 for m in MODALITY_ORDER}
    elif isinstance(dims, int):
        dims = {m: dims for m in MODALITY_ORDER}
    rows = {m: [] for m in MODALITY_ORDER}
    speaker_ids = []
    for _ in range(n):
        for m in MODALITY_ORDER:
            rows[m].append(rng.normal(size=dims[m]))
        speaker_ids.append(f"spk{rng.integers(speakers)}")
    return FootageLibrary.from_columns(
        dict(dims),
        list(range(n)),
        [f"mov{i % 4}" for i in range(n)],
        speaker_ids,
        [f"lab{i % 3}" for i in range(n)],
        {m: np.array(rows[m]).reshape(n, dims[m]) for m in MODALITY_ORDER},
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
