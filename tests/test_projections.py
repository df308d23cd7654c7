import numpy as np
import pytest

from rankqda import Projection, project, sample_projection
from rankqda.projections import _sample_matrices
from rankqda.rng import substream

from oracles import naive_matmul


class TestSampleProjection:
    @pytest.mark.parametrize("p,d", [(3, 1), (5, 3), (8, 8), (20, 4)])
    def test_haar_rows_orthonormal(self, p, d):
        A = sample_projection(p, d, "haar", substream(1, p, d))
        gram = A.matrix @ A.matrix.T
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_axis_structure(self):
        A = sample_projection(4, 2, "axis", substream(2))
        m = A.matrix
        assert m.shape == (2, 4)
        assert np.sum(m == 1.0) == 2
        assert np.sum(m == 0.0) == 6
        rows, cols = np.nonzero(m)
        assert sorted(rows) == [0, 1]
        assert len(set(cols)) == 2

    @pytest.mark.parametrize("flavor", ["gaussian", "haar", "axis"])
    def test_deterministic_given_stream(self, flavor):
        a = sample_projection(6, 3, flavor, substream(7, 0))
        b = sample_projection(6, 3, flavor, substream(7, 0))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_gaussian_scale(self):
        # entries are N(0, 1/d): check the empirical second moment
        A = sample_projection(400, 4, "gaussian", substream(3))
        assert np.mean(A.matrix**2) == pytest.approx(0.25, rel=0.1)

    def test_dimension_contract(self):
        with pytest.raises(ValueError):
            sample_projection(3, 4, "haar", substream(0))
        with pytest.raises(ValueError):
            sample_projection(3, 0, "haar", substream(0))
        with pytest.raises(ValueError):
            sample_projection(3, 2, "bogus", substream(0))

    def test_stream_recorded(self):
        A = sample_projection(4, 2, "haar", substream(1, 2, 3), stream=(2, 3))
        assert A.stream == (2, 3)
        assert A.flavor == "haar"
        assert A.n_components == 2 and A.n_features == 4


class TestProject:
    def test_leading_axis_projection_selects_columns(self):
        d, p = 2, 5
        A = Projection(matrix=np.eye(d, p), flavor="axis")
        S = np.arange(15.0).reshape(3, 5)
        np.testing.assert_array_equal(project(A, S), S[:, :d])

    def test_zero_scores(self):
        A = sample_projection(4, 2, "gaussian", substream(5))
        np.testing.assert_array_equal(project(A, np.zeros((6, 4))), np.zeros((6, 2)))

    def test_matches_naive_matmul(self):
        rng = substream(8)
        A = sample_projection(3, 2, "gaussian", rng)
        S = rng.standard_normal((2, 3))
        expected = naive_matmul(S, A.matrix.T)
        np.testing.assert_allclose(project(A, S), expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        A = sample_projection(4, 2, "haar", substream(6))
        with pytest.raises(ValueError, match="p=4"):
            project(A, np.zeros((3, 5)))


class TestCovarianceTransport:
    def test_projected_spd_stays_symmetric_psd(self):
        rng = substream(9)
        for _ in range(20):
            p, d = 6, 3
            G = rng.standard_normal((p, p))
            cov = G @ G.T + 0.1 * np.eye(p)
            A = sample_projection(p, d, "gaussian", rng).matrix
            proj = A @ cov @ A.T
            assert np.max(np.abs(proj - proj.T)) <= 1e-10
            assert np.linalg.eigvalsh((proj + proj.T) / 2).min() >= -1e-10

    def test_empirical_second_moment_transport(self):
        rng = substream(10)
        S = rng.standard_normal((200, 5))
        A = sample_projection(5, 2, "haar", rng)
        Z = project(A, S)
        lhs = Z.T @ Z / len(Z)
        rhs = A.matrix @ (S.T @ S / len(S)) @ A.matrix.T
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_haar_statistics(self):
        # square haar preserves norms exactly; across draws the image of a
        # fixed direction averages to zero, as for a uniform random frame
        v = np.arange(1.0, 6.0)
        v /= np.linalg.norm(v)
        rng = substream(11)
        images = []
        for _ in range(400):
            A = sample_projection(5, 5, "haar", rng)
            u = A.matrix @ v
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
            images.append(u)
        mean = np.mean(images, axis=0)
        assert np.max(np.abs(mean)) <= 4.0 / np.sqrt(5 * 400)

    def test_haar_rectangular_captures_d_over_p_energy(self):
        v = np.r_[1.0, np.zeros(7)]
        rng = substream(12)
        energies = [
            np.sum((sample_projection(8, 2, "haar", rng).matrix @ v) ** 2)
            for _ in range(2000)
        ]
        # E ||A v||^2 = d/p for a uniform frame; 3-sigma Monte Carlo band
        assert np.mean(energies) == pytest.approx(2 / 8, abs=0.03)


class _FirstDrawRankDeficient:
    """Wraps a generator; its first (d, p) draw gets an all-zero row."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, shape):
        self.draws += 1
        G = self.rng.standard_normal(shape)
        if self.draws == 1:
            G[1] = 0.0
        return G


def test_a_rank_deficient_haar_draw_is_redrawn_from_its_own_generator():
    p, d = 5, 3
    stub = _FirstDrawRankDeficient(substream(61))
    matrices = _sample_matrices(p, d, "haar", [substream(60), stub, substream(62)])
    assert stub.draws == 2
    rng = substream(61)
    rng.standard_normal((d, p))  # the rejected draw
    for k, expected in enumerate([substream(60), rng, substream(62)]):
        np.testing.assert_array_equal(matrices[k], sample_projection(p, d, "haar", expected).matrix)
    np.testing.assert_allclose(matrices[1] @ matrices[1].T, np.eye(d), atol=1e-12)
