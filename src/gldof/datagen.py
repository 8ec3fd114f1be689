"""Reproducible synthetic instances of the model y = X beta0 + noise.

Designs are i.i.d. Gaussian with columns scaled by 1/sqrt(Q) (so block
correlations are O(1) across problem sizes), regenerated until comfortably
full column rank; beta0 activates a chosen number of blocks with unit-norm
random directions.  Also owns the problem-file format and the readers of
the CLI's input files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
import orjson

from .core import BlockPartition, Design, _index
from .solver import Problem
from .validate import replicate_rng

MIN_SINGULAR_VALUE = 1e-6
MAX_RETRIES = 50


class GenerationError(RuntimeError):
    """Could not draw a full-column-rank design within the retry budget."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to regenerate a synthetic scenario from its seed."""

    Q: int
    N: int
    block_sizes: tuple[int, ...]
    k_active: int
    signal_scale: float = 1.0
    sigma: float = 1.0
    seed: int = 0
    identity: bool = False

    def __post_init__(self):
        for name in ("Q", "N", "k_active", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if not hasattr(self.block_sizes, "__iter__"):
            raise ValueError(f"block_sizes {self.block_sizes!r} is not a sequence of sizes")
        sizes = tuple(_index(s, "block size") for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if sum(self.block_sizes) != self.N:
            raise ValueError("block sizes must sum to N")
        if not isinstance(self.identity, bool):
            raise ValueError(f"identity must be true or false, not {self.identity!r}")
        if self.identity:
            if self.Q != self.N:
                raise ValueError("identity design requires Q == N")
        elif self.Q <= self.N:
            raise ValueError("random designs require Q > N")
        if not 0 <= self.k_active <= len(self.block_sizes):
            raise ValueError("k_active out of range")
        for name in ("sigma", "signal_scale"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, not {value!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        return cls(Q=d["Q"], N=d["N"], block_sizes=d["block_sizes"],
                   k_active=d["k_active"],
                   signal_scale=d.get("signal_scale", 1.0),
                   sigma=d.get("sigma", 1.0), seed=d.get("seed", 0),
                   identity=d.get("identity", False))


@dataclass(frozen=True)
class Scenario:
    """A generated problem template: design, truth, and noise-draw support."""

    spec: ScenarioSpec
    design: Design
    partition: BlockPartition
    beta0: np.ndarray
    mu0: np.ndarray

    @property
    def sigma(self) -> float:
        return self.spec.sigma

    def draw_y(self, seed: int | None = None, replicate: int = 0) -> np.ndarray:
        """One noisy observation y = mu0 + sigma * standard normal."""
        if seed is None:
            seed = self.spec.seed
        noise = replicate_rng(seed, replicate).standard_normal(self.design.Q)
        with np.errstate(over="ignore"):
            y = self.mu0 + self.spec.sigma * noise
        return _finite(y, "y = mu0 + sigma * noise")


def generate(spec: ScenarioSpec) -> Scenario:
    """Draw the design and truth vector for a scenario, deterministically."""
    rng = np.random.default_rng(spec.seed)
    partition = BlockPartition.from_sizes(spec.block_sizes)

    if spec.identity:
        x = np.eye(spec.N)
    else:
        for _ in range(MAX_RETRIES):
            x = rng.standard_normal((spec.Q, spec.N)) / np.sqrt(spec.Q)
            if np.linalg.svd(x, compute_uv=False)[-1] > MIN_SINGULAR_VALUE:
                break
        else:
            raise GenerationError(
                f"no design with smallest singular value > {MIN_SINGULAR_VALUE:g} "
                f"in {MAX_RETRIES} draws")

    beta0 = np.zeros(spec.N)
    design = Design(x)
    # an overflow of signal_scale is refused below, as a non-finite mu0
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.k_active:
            chosen = np.sort(rng.choice(len(partition), size=spec.k_active, replace=False))
            for b in chosen:
                idx = np.array(partition.blocks[b], dtype=int)
                direction = rng.standard_normal(idx.size)
                beta0[idx] = spec.signal_scale * direction / np.linalg.norm(direction)
        mu0 = design.matrix @ beta0
    return Scenario(spec=spec, design=design, partition=partition,
                    beta0=beta0, mu0=_finite(mu0, "mu0 = X beta0"))


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is not finite: the scale of the scenario overflows")
    return values


# ---------------------------------------------------------------------------
# problem files

def problem_to_dict(design: Design, y, partition: BlockPartition, *,
                    lam: float | None = None, beta0=None,
                    sigma: float | None = None) -> dict:
    d = {
        "Q": design.Q,
        "N": design.N,
        "partition": [list(b) for b in partition.blocks],
        "X": [list(map(float, row)) for row in design.matrix],
        "y": [float(v) for v in np.asarray(y, dtype=float)],
    }
    if lam is not None:
        d["lambda"] = float(lam)
    if beta0 is not None:
        d["beta0"] = [float(v) for v in np.asarray(beta0, dtype=float)]
    if sigma is not None:
        d["sigma"] = float(sigma)
    return d


@dataclass(frozen=True)
class LoadedProblem:
    design: Design
    y: np.ndarray
    partition: BlockPartition
    lam: float | None = None
    beta0: np.ndarray | None = None
    sigma: float | None = None
    # the SHA-256 of the file it was read from, if any
    digest: str | None = None

    def problem(self, lam: float | None = None) -> Problem:
        if lam is None:
            lam = self.lam
        if lam is None:
            raise ValueError("no lambda given (--lambda), and none stored with the problem")
        return Problem(self.design, self.y, lam, self.partition)


def _numbers(d: dict, key: str) -> np.ndarray:
    """The array of a problem file's entry, which must hold numbers only: each
    row's element types are checked, as numpy reads true among numbers as 1."""
    a = np.asarray(d[key])
    rows = [[d[key]]]
    for _ in range(a.ndim):
        rows = [row for outer in rows for row in outer]
    if a.dtype.kind not in "iuf" or any(bool in set(map(type, row)) for row in rows):
        raise ValueError(f"{key} must hold numbers only")
    return a.astype(float, copy=False)


def problem_from_dict(d: dict) -> LoadedProblem:
    q, n = _index(d["Q"], "Q"), _index(d["N"], "N")
    x = _numbers(d, "X")
    if x.ndim == 1:  # row-major flat layout is accepted too
        x = x.reshape(q, n)
    if x.shape != (q, n):
        raise ValueError(f"X has shape {x.shape}, expected ({q}, {n})")
    y = _numbers(d, "y")
    partition = BlockPartition(d["partition"])
    for key in ("lambda", "sigma"):
        value = d.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"{key} {value!r} is not a number")
    beta0 = _numbers(d, "beta0") if "beta0" in d else None
    return LoadedProblem(design=Design(x), y=y, partition=partition,
                         lam=d.get("lambda"), beta0=beta0, sigma=d.get("sigma"))


def save_problem(path, design: Design, y, partition: BlockPartition, *,
                 lam: float | None = None, beta0=None, sigma: float | None = None,
                 manifest: dict | None = None) -> None:
    d = problem_to_dict(design, y, partition, lam=lam, beta0=beta0, sigma=sigma)
    if manifest is not None:
        d["manifest"] = manifest
    with open(path, "w", newline="\n") as fh:
        json.dump(d, fh, indent=1)
        fh.write("\n")


def load_problem(path) -> LoadedProblem:
    d, digest = read_json(path)
    return dataclasses.replace(problem_from_dict(d), digest=digest)


# ---------------------------------------------------------------------------
# input files: each is read once, and its digest is that of the bytes parsed

_JSON_TYPES = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


class _Entries(dict):
    """A JSON object read from a file, whose missing entries name the file."""

    def __init__(self, entries: dict, path):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path} has no {key!r} entry")


def _read(path) -> tuple[bytes, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def read_json(path) -> tuple[dict, str]:
    """The JSON object in a UTF-8 file, and the SHA-256 of its bytes.

    orjson parses the file; one that it refuses is parsed by the json module,
    which reads Python's NaN and Infinity tokens (for the finiteness checks
    to refuse by name) and words the error of a malformed file."""
    data, digest = _read(path)
    try:
        d = orjson.loads(data)
    except orjson.JSONDecodeError:
        d = json.loads(data.decode("utf-8"))
    if not isinstance(d, dict):
        raise ValueError(f"{path} holds {_JSON_TYPES[type(d)]}, not a JSON object")
    return _Entries(d, path), digest


def read_matrix_csv(path) -> tuple[np.ndarray, str]:
    """A matrix from a CSV file, and the SHA-256 of the file's bytes."""
    data, digest = _read(path)
    # newline=None splits lines as a file opened in text mode does
    lines = io.StringIO(data.decode("utf-8"), newline=None)
    return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2), digest


def read_vector_csv(path) -> tuple[np.ndarray, str]:
    """A vector written as one row or as one column of a CSV file, and the
    SHA-256 of the file's bytes."""
    v, digest = read_matrix_csv(path)
    if 1 not in v.shape:
        raise ValueError(f"{path}: expected one row or one column, got shape {v.shape}")
    return v.reshape(-1), digest
