import numpy as np
import pytest

from irvis.encoder import EncoderConfig, init_params


def random_stochastic(rng, n):
    a = rng.random((n, n)) + 1e-9
    return a / a.sum(axis=1, keepdims=True)


def same_bytes(got, want) -> bool:
    """Equal values, signed zeros included, in the same shape."""
    got, want = np.asarray(got), np.asarray(want)
    return (np.array_equal(got, want) and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def exhaustive_pseudo_labels(attention, gamma):
    """Independent oracle: per row, test every prefix length explicitly."""
    a = np.asarray(attention)
    n = a.shape[0]
    labels = np.zeros((n, n))
    for i in range(n):
        order = sorted(range(n), key=lambda j: (-a[i, j], j))
        for m in range(1, n + 1):
            if sum(a[i, j] for j in order[:m]) > gamma:
                break
        for j in order[:m]:
            labels[i, j] = 1.0
        labels[i, i] = 1.0
    return labels


@pytest.fixture(scope="session")
def toy_cfg():
    return EncoderConfig(image_size=16, patch_size=4, channels=3, depth=2,
                         dim=32, heads=4, mlp_ratio=4, seed=7)


@pytest.fixture(scope="session")
def toy_params(toy_cfg):
    return init_params(toy_cfg)
