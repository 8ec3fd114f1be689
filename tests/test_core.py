import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gldof.core import (
    BlockPartition,
    BlockSupport,
    DegenerateBlockError,
    Design,
    block_support,
    delta_P_matrix,
    normalize_blocks,
)
from gldof.solver import Problem, solve


@st.composite
def partitions(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    blocks, at = [], 0
    for s in sizes:
        blocks.append(tuple(perm[at:at + s]))
        at += s
    return BlockPartition(tuple(blocks))


class TestBlockPartition:
    def test_canonical_form(self):
        p = BlockPartition(((3, 1), (0, 2)))
        assert p.blocks == ((0, 2), (1, 3))

    def test_from_sizes(self):
        p = BlockPartition.from_sizes([2, 3])
        assert p.blocks == ((0, 1), (2, 3, 4))
        assert p.total_dim == 5

    @pytest.mark.parametrize("bad", [
        ((0, 1), (1, 2)),       # overlap
        ((0, 1), (3,)),         # gap
        ((0, 0, 1),),           # repeated index
        ((0, 1), ()),           # empty block
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            BlockPartition(tuple(bad))

    @given(partitions())
    def test_json_round_trip(self, p):
        assert BlockPartition.from_json(p.to_json()) == p

    def test_json_format(self):
        p = BlockPartition(((0, 1), (2, 3, 4)))
        assert json.loads(p.to_json()) == [[0, 1], [2, 3, 4]]

    @given(partitions())
    def test_block_layout_covers_every_coordinate(self, p):
        for k, b in enumerate(p.blocks):
            assert np.all(p.block_index[list(b)] == k)
        # one 1 per coordinate, block_sizes[k] of them in row k
        assert np.array_equal(p.indicator.sum(axis=0), np.ones(p.total_dim))
        assert np.array_equal(p.indicator.sum(axis=1), p.block_sizes)
        assert p.block_sizes.sum() == p.total_dim
        # the one block reduction against a per-block loop
        v = np.random.default_rng(p.total_dim).standard_normal(p.total_dim)
        loop = [np.linalg.norm(v[list(b)]) for b in p.blocks]
        assert np.allclose(p.block_norms(v), loop, rtol=8 * np.finfo(float).eps, atol=0.0)

    def test_block_norms_of_matrix_columns(self):
        p = BlockPartition(((0, 2), (1, 3)))
        v = np.array([[3.0, 0.0], [1.0, 2.0], [4.0, 0.0], [0.0, 0.0]])
        assert np.allclose(p.block_norms(v), [[5.0, 0.0], [1.0, 2.0]])
        assert np.allclose(p.block_norms(v[:, 0]), [5.0, 1.0])
        with pytest.raises(ValueError):
            p.block_norms(np.ones(3))

    def test_block_norms_non_contiguous(self):
        p = BlockPartition(((0, 2), (1, 3)))
        v = np.array([3.0, 1.0, 4.0, 0.0])
        assert np.allclose(p.block_norms(v), [5.0, 1.0])


class TestBlockSupport:
    def test_active_dim(self):
        p = BlockPartition.from_sizes([2, 3, 1])
        s = BlockSupport(p, (0, 2))
        assert s.active_dim == 3
        assert s.blocks == ((0, 1), (5,))
        assert s.indices.tolist() == [0, 1, 5]

    def test_restrict_embed_round_trip(self):
        p = BlockPartition.from_sizes([2, 2])
        s = BlockSupport(p, (1,))
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert s.restrict(v).tolist() == [3.0, 4.0]
        assert s.embed([3.0, 4.0]).tolist() == [0.0, 0.0, 3.0, 4.0]

    def test_bad_positions(self):
        p = BlockPartition.from_sizes([2, 2])
        with pytest.raises(ValueError):
            BlockSupport(p, (1, 0))
        with pytest.raises(ValueError):
            BlockSupport(p, (2,))


class TestBlockSupportDetection:
    def test_zero_vector_empty_support(self):
        p = BlockPartition.from_sizes([2, 2])
        assert block_support(p, np.zeros(4)).active == ()

    def test_exact_zero_block(self):
        p = BlockPartition(((0, 1), (2, 3)))
        assert block_support(p, [3.0, 4.0, 0.0, 0.0]).active == (0,)

    def test_tolerance_screens_near_zeros(self):
        p = BlockPartition(((0, 1), (2, 3)))
        assert block_support(p, [1e-12, 0.0, 1.0, 1.0]).active == (1,)

    @given(st.sampled_from([-3.0, -1.0, 0.5, 2.0, 1e6, 1e-6, 1e-9, 1e9]))
    def test_scale_invariance(self, c):
        p = BlockPartition(((0, 1), (2, 3), (4,)))
        beta = np.array([1.0, -2.0, 1e-9, 0.0, 5.0])
        assert block_support(p, c * beta).active == block_support(p, beta).active == (0, 2)

    def test_relative_default_tolerance(self):
        p = BlockPartition(((0, 1), (2, 3), (4, 5)))
        # the cutoff is 1e-8 of the peak: 1e-9 of it is screened, 1e-7 kept
        assert block_support(p, [1e6, 0.0, 1e-3, 0.0, 0.1, 0.0]).active == (0, 2)


class TestNormalizeBlocks:
    def test_scales_to_unit(self):
        p = BlockPartition.from_sizes([2])
        s = BlockSupport(p, (0,))
        assert np.allclose(normalize_blocks([3.0, 4.0], s), [0.6, 0.8])

    def test_two_blocks(self):
        p = BlockPartition.from_sizes([2, 2])
        s = BlockSupport(p, (0, 1))
        out = normalize_blocks([1.0, 0.0, 0.0, 2.0], s)
        assert np.allclose(out, [1.0, 0.0, 0.0, 1.0])

    def test_zero_block_raises(self):
        p = BlockPartition.from_sizes([2])
        s = BlockSupport(p, (0,))
        with pytest.raises(DegenerateBlockError):
            normalize_blocks([0.0, 0.0], s)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        p = BlockPartition.from_sizes([2, 3, 1])
        s = BlockSupport(p, (0, 1, 2))
        for _ in range(20):
            v = rng.standard_normal(6) + 0.1
            once = normalize_blocks(v, s)
            assert np.allclose(normalize_blocks(once, s), once, atol=1e-15)


class TestDeltaPMatrix:
    def test_size_one_block_is_zero(self):
        p = BlockPartition.from_sizes([1])
        s = BlockSupport(p, (0,))
        assert delta_P_matrix([2.5], s) == pytest.approx(np.zeros((1, 1)))

    def test_axis_aligned_block(self):
        p = BlockPartition.from_sizes([2])
        s = BlockSupport(p, (0,))
        assert np.allclose(delta_P_matrix([1.0, 0.0], s), [[0.0, 0.0], [0.0, 1.0]])

    def test_three_four_block_against_eigendecomposition(self):
        p = BlockPartition.from_sizes([2])
        s = BlockSupport(p, (0,))
        m = delta_P_matrix([3.0, 4.0], s)
        expected = (np.eye(2) - np.array([[9.0, 12.0], [12.0, 16.0]]) / 25.0) / 5.0
        assert np.allclose(m, expected, atol=1e-15)
        # independent check: spectrum is {0, 1/5} with kernel along (3, 4)
        vals, vecs = np.linalg.eigh(m)
        assert np.allclose(sorted(vals), [0.0, 0.2], atol=1e-15)
        kernel = vecs[:, np.argmin(vals)]
        assert abs(abs(kernel @ [0.6, 0.8]) - 1.0) < 1e-12

    def test_zero_block_raises(self):
        p = BlockPartition.from_sizes([2, 1])
        s = BlockSupport(p, (0, 1))
        with pytest.raises(DegenerateBlockError):
            delta_P_matrix([0.0, 0.0, 1.0], s)

    @given(partitions(), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1.0, 1e9]))
    def test_matches_blockwise_loop(self, p, seed, scale):
        # the per-block loops these functions replaced, as the reference;
        # only the order of the squared-norm sums differs
        rng = np.random.default_rng(seed)
        s = BlockSupport(p, tuple(np.flatnonzero(rng.random(p.n_blocks) < 0.7)))
        v = scale * (rng.standard_normal(s.active_dim) + 0.1)
        unit, dp = np.empty_like(v), np.zeros((v.size, v.size))
        for a, b in zip(s.offsets[:-1], s.offsets[1:]):
            nrm = np.linalg.norm(v[a:b])
            unit[a:b] = v[a:b] / nrm
            dp[a:b, a:b] = (np.eye(b - a) - np.outer(unit[a:b], unit[a:b])) / nrm
        eps = 8 * np.finfo(float).eps
        assert np.allclose(normalize_blocks(v, s), unit, rtol=eps, atol=0.0)
        assert np.allclose(delta_P_matrix(v, s), dp, rtol=eps, atol=eps * np.abs(dp).max(initial=0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_psd_and_annihilates_input(self, seed):
        rng = np.random.default_rng(seed)
        p = BlockPartition.from_sizes([3, 2, 1, 4])
        s = BlockSupport(p, (0, 1, 2, 3))
        v = rng.standard_normal(10)
        v[np.abs(v) < 1e-3] += 0.5
        m = delta_P_matrix(v, s)
        assert np.allclose(m, m.T, atol=1e-15)
        for _ in range(30):
            u = rng.standard_normal(10)
            assert u @ m @ u >= -1e-12 * (u @ u)
        assert np.max(np.abs(m @ v)) < 1e-12 * np.max(np.abs(v))


class TestDesign:
    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            Design(np.ones((2, 3)))

    def test_rank_deficient_rejected(self):
        x = np.ones((5, 2))  # duplicated column
        with pytest.raises(ValueError):
            Design(x)

    def test_square_full_rank_accepted(self):
        d = Design.identity(3)
        assert d.Q == d.N == 3
        assert np.allclose(d.gram, np.eye(3))

    def test_gram_and_columns(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        d = Design(x)
        assert np.allclose(d.gram, x.T @ x)
        assert np.allclose(d.columns([2, 0]), x[:, [2, 0]])


class TestCoefficients:
    """Coefficient vectors are plain length-N arrays."""

    def test_length_checked(self):
        p = BlockPartition.from_sizes([2])
        for bad in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                block_support(p, bad)

    def test_immutable(self):
        # a solution holds a read-only copy, not a view of the solver's arrays
        p = BlockPartition.from_sizes([2])
        sol = solve(Problem(Design.identity(2), [1.0, 2.0], 1.0, p))
        assert sol.beta.shape == (2,) and sol.beta.base is None
        with pytest.raises(ValueError):
            sol.beta[0] = 5.0


class TestLipschitz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_top_gram_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        design = Design(rng.standard_normal((30, 12)))
        top = np.linalg.eigvalsh(design.matrix.T @ design.matrix)[-1]
        assert abs(design.lipschitz - top) <= 1e-12 * top

    def test_computed_once_per_design(self, monkeypatch):
        calls = []
        eigvalsh = scipy.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(5)
        design = Design(rng.standard_normal((15, 6)))
        partition = BlockPartition.from_sizes([2, 2, 2])
        for _ in range(3):
            solve(Problem(design, rng.standard_normal(15), 0.3, partition))
        assert len(calls) == 1
