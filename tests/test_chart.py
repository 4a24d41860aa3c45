import numpy as np

from ahmass.chart import random_points, to_cartesian, unit_vector_values


def test_cartesian_radius_matches():
    x = to_cartesian(np.array([3.5, 1.0, 2.0, 0.3]))[0]
    assert abs(np.linalg.norm(x) - 3.5) < 3.5 * 1e-12


def test_unit_vectors_are_unit():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        pts = random_points(n, rng, 100)
        u = unit_vector_values(pts[:, 1:])
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-14


def test_x1_axis_is_equatorial():
    # the positive x_1 ray sits at theta_j = pi/2 for every angle
    coords = np.array([[5.0, np.pi / 2, np.pi / 2]])
    x = to_cartesian(coords)[0]
    assert np.allclose(x, [5.0, 0.0, 0.0], atol=1e-12)
