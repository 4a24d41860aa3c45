import numpy as np
import pytest

from ahmass.metrics import hyperbolic_metric, schwarzschild_ads
from ahmass.quadrature import sphere_rule


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def hyp3():
    return hyperbolic_metric(3)


@pytest.fixture(scope="session")
def schw3():
    return schwarzschild_ads(3, 0.5)


@pytest.fixture(scope="session")
def quad48():
    return sphere_rule(3, 48, 96)


@pytest.fixture(scope="session")
def quad16():
    return sphere_rule(3, 16, 32)


def _gram_drift(spec, sample):
    """max |F^T g F - I| over a geodesic sample's points, for the frame F of
    its velocity and the vectors it carries: how far the integrated frame has
    left orthonormality."""
    frame = sample.velocities[:, None]
    if sample.transported is not None:
        frame = np.concatenate([frame, sample.transported], axis=1)
    gram = np.einsum("tai,tij,tbj->tab", frame, spec.components(sample.coords), frame)
    return float(np.abs(gram - np.eye(frame.shape[1])).max())


@pytest.fixture(scope="session")
def gram_drift():
    return _gram_drift
