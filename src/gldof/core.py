"""Block partitions, block supports and the design matrix.

Everything downstream (solver, sensitivity analysis, risk estimation) works
with coefficient vectors segmented into disjoint index blocks.  This module
owns that bookkeeping: the partition, the active blocks of a solution and
the one support rule, and the design with its cached Gram matrix and
Lipschitz constant.  The operator deltaP of the solution's local
differential is assembled by the solver's chord finish.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg


def _index(i, what="block index") -> int:
    try:
        if isinstance(i, bool):  # JSON's true and false are not indices
            raise TypeError
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{what} {i!r} is not an integer") from None


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
        if not hasattr(self.blocks, "__iter__"):
            raise ValueError(f"partition {self.blocks!r} is not a sequence of blocks")
        if not self.blocks:
            raise ValueError("partition has no blocks")
        canon = []
        for b in self.blocks:
            if not hasattr(b, "__iter__"):
                raise ValueError(f"block {b!r} is not a sequence of indices")
            idx = tuple(sorted(_index(i) for i in b))
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
        sizes = [_index(s, "block size") for s in sizes]
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
    def order(self) -> np.ndarray:
        """The coordinates block by block: the stable argsort of `block_index`."""
        return np.argsort(self.block_index, kind="stable")

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

    @classmethod
    def from_json(cls, text: str) -> "BlockPartition":
        return cls(json.loads(text))

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

    def restrict(self, values) -> np.ndarray:
        """Extract the stacked on-support subvector of a full-length vector."""
        return _as_vector(values, self.partition.total_dim)[self.indices]


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

    @cached_property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of X'X, clipped at 0 so that a numerically
        singular Gram gives 0, not an error; computed on first read."""
        return max(float(scipy.linalg.eigvalsh(self.gram, subset_by_index=[0, 0])[0]), 0.0)

    def columns(self, indices) -> np.ndarray:
        return self.matrix[:, np.asarray(indices, dtype=int)]


def block_support(partition: BlockPartition, values) -> BlockSupport:
    """Blocks of `values` whose Euclidean norm exceeds 1e-8 * max|values|.

    The cutoff is relative, so near-zeros left behind by an iterative solver
    are screened at any scale; an exactly zero block is never in the support.
    """
    v = _as_vector(values, partition.total_dim)
    return BlockSupport(partition, tuple(np.flatnonzero(support_mask(partition, v))))


def stacked_coordinates(partition: BlockPartition, active):
    """The active coordinates of each column of a block mask `active`
    (n_blocks x c), stacked as `BlockSupport.indices` stacks them, in
    partition order (`BlockPartition.order`): a c x m_max array padded with
    coordinate 0, the c x m_max mask of its real entries, and each column's
    number m of active coordinates."""
    dims = partition.block_sizes @ active
    real = np.arange(dims.max(initial=0)) < dims[:, None]
    idx = np.zeros(real.shape, dtype=int)
    idx[real] = partition.order[np.nonzero(active[partition.block_index[partition.order]].T)[1]]
    return idx, real, dims


def support_mask(partition: BlockPartition, values) -> np.ndarray:
    """The rule of `block_support` for a vector, or for each column of an
    N x K matrix: a boolean mask over the blocks (n_blocks x K)."""
    v = np.asarray(values, dtype=float)
    return partition.block_norms(v) > 1e-8 * np.max(np.abs(v), axis=0)
