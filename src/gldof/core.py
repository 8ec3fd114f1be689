"""Block partitions and the block-structured operators behind group sparsity.

Everything downstream (solver, sensitivity analysis, risk estimation) works
with coefficient vectors segmented into disjoint index blocks.  This module
owns that bookkeeping plus the two small linear operators built from a
blockwise-nonzero vector: per-block normalization and the scaled orthogonal
projector that appears in the solution's local differential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg


class DegenerateBlockError(ValueError):
    """A block that must be nonzero has zero Euclidean norm."""


def _as_vector(values, n=None):
    v = np.ascontiguousarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"expected length {n}, got {v.size}")
    return v


@dataclass(frozen=True)
class BlockPartition:
    """Segmentation of {0..N-1} into disjoint, covering, nonempty blocks.

    Blocks are stored in canonical form: indices strictly increasing within
    each block, blocks ordered by smallest index.  Construction canonicalizes
    and validates; instances are immutable and safe to share.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        for b in self.blocks:
            idx = tuple(sorted(int(i) for i in b))
            if not idx:
                raise ValueError("empty block")
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated index inside block {b}")
            canon.append(idx)
        canon.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(canon))
        flat = [i for b in self.blocks for i in b]
        if len(flat) != len(set(flat)):
            raise ValueError("blocks are not disjoint")
        if min(flat) != 0 or max(flat) != len(flat) - 1:
            raise ValueError("blocks must cover exactly {0..N-1}")

    @classmethod
    def from_sizes(cls, sizes) -> "BlockPartition":
        """Contiguous partition with the given block sizes, in order."""
        sizes = [int(s) for s in sizes]
        if any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        edges = np.concatenate([[0], np.cumsum(sizes)])
        return cls(tuple(tuple(range(a, b)) for a, b in zip(edges[:-1], edges[1:])))

    @cached_property
    def total_dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.blocks], dtype=int)

    @cached_property
    def block_index(self) -> np.ndarray:
        """Position of the block holding each coordinate."""
        index = np.empty(self.total_dim, dtype=int)
        for k, b in enumerate(self.blocks):
            index[list(b)] = k
        return index

    @cached_property
    def indicator(self) -> np.ndarray:
        """Blocks x coordinates 0/1 matrix: its product with the squares of
        a vector, or of an N x K matrix, sums every block (of every column)."""
        return (np.arange(self.n_blocks)[:, None] == self.block_index).astype(float)

    def block_norms(self, values) -> np.ndarray:
        """Euclidean norm of every block of a full-length vector, or of every
        column of an N x K matrix (then n_blocks x K)."""
        v = np.asarray(values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.total_dim:
            raise ValueError(f"expected {self.total_dim} rows, got shape {v.shape}")
        return np.sqrt(self.indicator @ np.square(v))

    def to_json(self) -> str:
        return json.dumps([list(b) for b in self.blocks])

    @classmethod
    def from_json(cls, text: str) -> "BlockPartition":
        return cls(tuple(tuple(b) for b in json.loads(text)))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class BlockSupport:
    """An ordered subset of a partition's blocks (the active blocks).

    `active` holds positions into ``partition.blocks``, strictly increasing.
    """

    partition: BlockPartition
    active: tuple[int, ...]

    def __post_init__(self):
        act = tuple(int(i) for i in self.active)
        if sorted(set(act)) != list(act):
            raise ValueError("active block positions must be strictly increasing")
        if act and not (0 <= act[0] and act[-1] < self.partition.n_blocks):
            raise ValueError("active block position out of range")
        object.__setattr__(self, "active", act)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.partition.blocks[i] for i in self.active)

    @property
    def n_active(self) -> int:
        return len(self.active)

    @cached_property
    def active_dim(self) -> int:
        return sum(len(self.partition.blocks[i]) for i in self.active)

    @property
    def is_empty(self) -> bool:
        return not self.active

    @cached_property
    def indices(self) -> np.ndarray:
        """Coordinate indices of the active blocks, stacked in block order."""
        return np.array([i for b in self.blocks for i in b], dtype=int)

    @cached_property
    def offsets(self) -> np.ndarray:
        sizes = [len(b) for b in self.blocks]
        return np.concatenate([[0], np.cumsum(sizes)]).astype(int)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Size of each active block, in block order."""
        return np.diff(self.offsets)

    @cached_property
    def block_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the stacked on-support coordinate pairs that lie
        in the same active block: the block-diagonal pattern of deltaP."""
        block = self.partition.block_index[self.indices]
        return np.nonzero(block[:, None] == block)

    def restrict(self, values) -> np.ndarray:
        """Extract the stacked on-support subvector of a full-length vector."""
        return _as_vector(values, self.partition.total_dim)[self.indices]

    def embed(self, stacked) -> np.ndarray:
        """Scatter a stacked on-support vector into a full-length zero vector."""
        out = np.zeros(self.partition.total_dim)
        out[self.indices] = _as_vector(stacked, self.active_dim)
        return out


@dataclass(frozen=True)
class Design:
    """A full-column-rank design matrix with cached Gram factorization.

    Requires Q >= N columns-independent; the Gram matrix X'X must be
    symmetric positive definite, verified by Cholesky at construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("design must be a 2-D matrix")
        q, n = m.shape
        if q < n:
            raise ValueError(f"underdetermined design (Q={q} < N={n}) is unsupported")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        self.gram_cholesky  # fail fast on rank deficiency

    @classmethod
    def identity(cls, n: int) -> "Design":
        return cls(np.eye(n))

    @property
    def Q(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.matrix.T @ self.matrix
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        return g

    @cached_property
    def gram_cholesky(self):
        try:
            return scipy.linalg.cho_factor(self.gram, lower=True)
        except scipy.linalg.LinAlgError as e:
            raise ValueError("design columns are not linearly independent "
                             "(X'X is not positive definite)") from e

    @cached_property
    def lipschitz(self) -> float:
        """Largest eigenvalue of X'X: the Lipschitz constant of the gradient."""
        n = self.N
        return float(scipy.linalg.eigvalsh(self.gram, subset_by_index=[n - 1, n - 1])[0])

    def columns(self, indices) -> np.ndarray:
        return self.matrix[:, np.asarray(indices, dtype=int)]


def block_support(partition: BlockPartition, values) -> BlockSupport:
    """Blocks of `values` whose Euclidean norm exceeds 1e-8 * max|values|.

    The cutoff is relative, so near-zeros left behind by an iterative solver
    are screened at any scale; an exactly zero block is never in the support.
    """
    v = _as_vector(values, partition.total_dim)
    return BlockSupport(partition, tuple(np.flatnonzero(support_mask(partition, v))))


def support_mask(partition: BlockPartition, values) -> np.ndarray:
    """The rule of `block_support` for a vector, or for each column of an
    N x K matrix: a boolean mask over the blocks (n_blocks x K)."""
    v = np.asarray(values, dtype=float)
    return partition.block_norms(v) > 1e-8 * np.max(np.abs(v), axis=0)


def normalize_blocks(beta_I, support: BlockSupport) -> np.ndarray:
    """Rescale each active block of a stacked on-support vector to unit norm.

    Raises DegenerateBlockError if any active block is zero.
    """
    return unit_and_delta_P(_as_vector(beta_I, support.active_dim), support)[0]


def delta_P_matrix(beta_I, support: BlockSupport) -> np.ndarray:
    """Block-diagonal matrix of scaled projectors orthogonal to each block.

    The block for b is (1/||beta_b||) (Id - beta_b beta_b' / ||beta_b||^2):
    symmetric positive semi-definite, annihilates beta_b, and vanishes on
    size-1 blocks.  Raises DegenerateBlockError on a zero block.
    """
    v = _as_vector(beta_I, support.active_dim)
    out = np.zeros((v.size, v.size))
    out[support.block_pairs] = unit_and_delta_P(v, support)[1]
    return out


def unit_and_delta_P(beta_I, support: BlockSupport):
    """`normalize_blocks` of a stacked on-support vector, or of each row of a
    g x m stack, and the `delta_P_matrix` entries at `support.block_pairs`
    (all others are zero).  Raises DegenerateBlockError on a zero block."""
    v = np.asarray(beta_I, dtype=float)
    norms = np.sqrt(np.add.reduceat(v * v, support.offsets[:-1], axis=-1))
    if not norms.all():
        raise DegenerateBlockError(f"zero block at active position {np.argmin(norms)}")
    norms = np.repeat(norms, support.sizes, axis=-1)
    u = v / norms
    rows, cols = support.block_pairs
    return u, ((rows == cols) - u[..., rows] * u[..., cols]) / norms[..., rows]
