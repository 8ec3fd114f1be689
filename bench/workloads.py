"""The four benchmark workloads: the inputs they feed the CLI and the checks
they apply to its outputs.

Inputs are drawn here, from the run's seed, with the benchmark's own
generator and written in the problem-file format; the program only reads
them.  Every check compares an output with a separate computation or with
a property the method must have, never with a stored copy.

A workload is a sequence of rounds.  A round is a fixed list of operations
(one CLI call each); a run attempts whole rounds only, so the share of
operations counted as failed is the same in every run.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

FD_REL_TOL = 1e-4
FD_ABS_TOL = 1e-8
IDENTITY_TOL = 1e-10
MC_N_SIGMA = 3.0
# rescaled copies must reproduce the DOF of their s=1 original to this
# relative accuracy; at the seeded scales (0.1 to 1e6) the largest error
# seen over 200 problems was 9e-8
SCALE_DOF_RTOL = 1e-6

# the ROADMAP baseline scenario
BASE_Q, BASE_SIZES, BASE_K, BASE_SIGMA, BASE_LAM_FRAC = 60, (4,) * 10, 3, 0.5, 0.5
MC_REPLICATES = 50
# calls per round, one per scenario (per design for `path` and `fd`): a run
# does whole rounds, so every run times each scenario equally often; with an
# odd count the median call falls inside the middle scenario's calls, not at
# a gap between scenarios
SCENARIOS = 3
PATH_Q, PATH_SIZES, PATH_K = 400, (4,) * 50, 10

WORKLOAD_IDS = {"mc": 1, "path": 2, "fd": 3, "oneshot": 4}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Op:
    """One CLI call: its arguments, where it writes, and what the check needs."""

    argv: list[str]
    out: str
    units: int
    kind: str
    expect: dict = field(default_factory=dict)
    known_fault: bool = False


def streams(seed: int, workload: str, round_index: int, position: int = 0):
    """(scenario, noise) generators for one problem.

    The scenario (design, true coefficients) depends only on the problem's
    position in its round, so every round, and every run whatever its seed,
    solves the same designs up to the orthogonal change of `Instance.disguised`;
    the noise, and with it y and the change, is fresh for every call.  A
    solve's cost varies a lot from design to design, so with a design drawn
    per call the median of a run would follow the designs it happened to draw.
    """
    scenario = [WORKLOAD_IDS[workload], position]
    noise = [int(seed) & 0xFFFFFFFF, WORKLOAD_IDS[workload], round_index, position]
    return (np.random.default_rng(np.random.SeedSequence(scenario)),
            np.random.default_rng(np.random.SeedSequence(noise)))


def _int_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# input generation

def gaussian_design(rng, q: int, n: int) -> np.ndarray:
    while True:
        x = rng.standard_normal((q, n)) / math.sqrt(q)
        if np.linalg.svd(x, compute_uv=False)[-1] > 1e-3:
            return x


def block_slices(sizes):
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def block_norms(v, sizes) -> np.ndarray:
    return np.array([np.linalg.norm(v[s]) for s in block_slices(sizes)])


def sparse_truth(rng, sizes, k_active: int) -> np.ndarray:
    beta0 = np.zeros(int(sum(sizes)))
    slices = block_slices(sizes)
    for b in rng.choice(len(sizes), size=k_active, replace=False):
        d = rng.standard_normal(slices[b].stop - slices[b].start)
        beta0[slices[b]] = d / np.linalg.norm(d)
    return beta0


@dataclass
class Instance:
    """A problem the benchmark wrote, kept in memory for the checks."""

    x: np.ndarray
    y: np.ndarray
    lam: float
    sizes: tuple
    sigma: float

    @property
    def q(self) -> int:
        return self.y.size

    def rescaled(self, s: float) -> "Instance":
        return Instance(self.x, s * self.y, s * self.lam, self.sizes, self.sigma)

    def disguised(self, rng) -> "Instance":
        """The same problem with its rows permuted (X and y together) and its
        columns' signs flipped: X' = P X D, y' = P y.  D is orthogonal within
        every block, so the solution is D beta, and the support, the DOF, the
        spectrum and the FISTA iterates are those of the original; only the
        bytes differ, so no two calls hand the program the same X (nor, but
        for identity designs, the same Gram matrix), as no two processes of a
        user would share a cache."""
        signs = rng.choice([-1.0, 1.0], size=self.x.shape[1])
        rows = rng.permutation(self.q)
        return Instance((self.x * signs)[rows], self.y[rows], self.lam, self.sizes,
                        self.sigma)

    def write(self, path: str) -> str:
        partition, start = [], 0
        for size in self.sizes:
            partition.append(list(range(start, start + size)))
            start += size
        doc = {"Q": int(self.x.shape[0]), "N": int(self.x.shape[1]), "partition": partition,
               "X": self.x.tolist(), "y": self.y.tolist(), "lambda": float(self.lam),
               "sigma": float(self.sigma)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def random_instance(rngs, q: int, sizes, k_active: int, sigma: float = BASE_SIGMA,
                    lam_frac: float = BASE_LAM_FRAC) -> Instance:
    """y = X beta0 + sigma * noise, lambda a fraction of lambda_max(X beta0)."""
    scenario, noise = rngs
    sizes = tuple(sizes)
    x = gaussian_design(scenario, q, int(sum(sizes)))
    mu0 = x @ sparse_truth(scenario, sizes, k_active)
    y = mu0 + sigma * noise.standard_normal(q)
    lam = lam_frac * float(block_norms(x.T @ mu0, sizes).max())
    return Instance(x, y, lam, sizes, sigma)


def identity_instance(rngs, n_blocks: int) -> Instance:
    """Identity design with mixed block sizes; lambda halfway between two
    neighbouring block norms, so the support is well separated from it.
    Disguised, it is a signed permutation: still orthogonal, so block soft
    thresholding of X'y is its closed form."""
    scenario, noise = rngs
    sizes = tuple(1 + (i % 5) for i in range(n_blocks))
    n = int(sum(sizes))
    mu0 = sparse_truth(scenario, sizes, max(1, n_blocks // 3)) * 3.0
    y = mu0 + noise.standard_normal(n)
    norms = np.sort(block_norms(y, sizes))
    k = int(0.6 * n_blocks)
    return Instance(np.eye(n), y, 0.5 * (norms[k - 1] + norms[k]), sizes, 1.0)


# ---------------------------------------------------------------------------
# mc: `gldof validate mc` on the baseline scenario

def mc_round(seed: int, r: int, workdir: str, replicates: int = MC_REPLICATES,
             q: int = BASE_Q, sizes=BASE_SIZES, k_active: int = BASE_K,
             scenarios: int = SCENARIOS) -> list[Op]:
    """The program draws the design from `--seed`, so a call cannot be handed
    a disguised copy of a fixed design: every call draws a new one."""
    ops = []
    for pos in range(scenarios):
        noise = streams(seed, "mc", r, pos)[1]
        out = os.path.join(workdir, f"mc-{r}-{pos}.json")
        argv = ["validate", "mc", "--q", str(q), "--n", str(sum(sizes)),
                "--block-sizes", ",".join(map(str, sizes)), "--k-active", str(k_active),
                "--sigma", str(BASE_SIGMA), "--lambda-frac", str(BASE_LAM_FRAC),
                "--seed", str(_int_seed(noise)), "--mc-seed", str(_int_seed(noise)),
                "--replicates", str(replicates), "--no-timestamp", "--out", out]
        ops.append(Op(argv, out, replicates, "mc",
                      {"replicates": replicates, "n": sum(sizes)}))
    return ops


def check_mc(op: Op, rc: int, doc: dict) -> None:
    # exit code 4 is the call's own 3-sigma verdict on its few replicates;
    # the benchmark pools all calls of a run instead (check_mc_pooled)
    if rc not in (0, 4):
        raise CheckFailed(f"validate mc exited with {rc}")
    if doc["n_failed"] != 0:
        raise CheckFailed(f"{doc['n_failed']} replicates failed to certify")
    if doc["replicates"] != op.expect["replicates"]:
        raise CheckFailed(f"{doc['replicates']} replicates kept of {op.expect['replicates']}")
    for key in ("mc_dof", "mean_divergence", "mc_stderr", "div_stderr"):
        if not math.isfinite(doc[key]):
            raise CheckFailed(f"{key} is not finite")
    if not 0.0 <= doc["mean_divergence"] <= op.expect["n"]:
        raise CheckFailed(f"mean divergence {doc['mean_divergence']} outside [0, N]")


def check_mc_pooled(docs: list[dict]) -> None:
    """Mean divergence within 3 combined standard errors of the Stein MC DOF,
    pooled over every call of the run (each call has its own design)."""
    diff = sum(d["mean_divergence"] - d["mc_dof"] for d in docs)
    se = math.sqrt(sum(d["mc_stderr"] ** 2 + d["div_stderr"] ** 2 for d in docs))
    if not abs(diff) <= MC_N_SIGMA * se:
        raise CheckFailed(f"pooled divergence - Stein DOF = {diff:.4g} exceeds "
                          f"{MC_N_SIGMA:g} x {se:.4g}")


# ---------------------------------------------------------------------------
# path: `gldof path`, 50 log-spaced lambdas over 2 decades, sigma known

def path_round(seed: int, r: int, workdir: str, q: int = PATH_Q, sizes=PATH_SIZES,
               k_active: int = PATH_K, scenarios: int = SCENARIOS) -> list[Op]:
    ops = []
    for pos in range(scenarios):
        rngs = streams(seed, "path", r, pos)
        inst = random_instance(rngs, q, sizes, k_active).disguised(rngs[1])
        problem = inst.write(os.path.join(workdir, f"path-{r}-{pos}.json"))
        out = os.path.join(workdir, f"path-{r}-{pos}.csv")
        argv = ["path", "--problem", problem, "--sigma", str(inst.sigma),
                "--no-timestamp", "--out", out]
        ops.append(Op(argv, out, 50, "path", {"instance": inst}))
    return ops


def read_curve(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path + ".manifest.json") as fh:
        manifest = json.load(fh)
    cols = {k: np.array([float(row[k]) for row in rows]) for k in rows[0]}
    cols["failed_lambdas"] = manifest["failed_lambdas"]
    return cols


def check_path(op: Op, rc: int, curve: dict) -> None:
    inst = op.expect["instance"]
    if rc != 0:
        raise CheckFailed(f"path exited with {rc}")
    if curve["failed_lambdas"]:
        raise CheckFailed(f"lambdas failed: {curve['failed_lambdas']}")
    lam, dof, rss = curve["lambda"], curve["dof"], curve["residual_sq"]
    adim = curve["active_dim"]
    if lam.size != op.units or not np.all(np.isfinite(dof)) or not np.all(np.isfinite(rss)):
        raise CheckFailed("curve has missing or non-finite rows")
    lam_max = float(block_norms(inst.x.T @ inst.y, inst.sizes).max())
    if not math.isclose(lam[0], lam_max, rel_tol=1e-12):
        raise CheckFailed(f"first lambda {lam[0]} is not lambda_max {lam_max}")
    yty = float(inst.y @ inst.y)
    if dof[0] != 0.0 or adim[0] != 0 or not math.isclose(rss[0], yty, rel_tol=1e-12):
        raise CheckFailed("at lambda_max the fit is not empty")
    if np.any(np.diff(lam) >= 0):
        raise CheckFailed("lambdas are not decreasing")
    # the residual grows with lambda; rows run from large to small lambda
    if np.any(rss[1:] > rss[:-1] * (1.0 + 1e-12)):
        raise CheckFailed("residual is not monotone in lambda")
    if np.any(dof < -1e-9) or np.any(dof > adim + 1e-9):
        raise CheckFailed("dof outside [0, active_dim]")
    q, s2 = inst.q, inst.sigma ** 2
    want = {"sure": rss - q * s2 + 2.0 * s2 * dof,
            "gcv": (rss / q) / (1.0 - dof / q) ** 2,
            "cp": rss / s2 - q + 2.0 * dof,
            "aic": rss / s2 + 2.0 * dof}
    for name, value in want.items():
        scale = np.abs(rss) / (s2 if name in ("cp", "aic") else 1.0) + q
        if np.any(np.abs(curve[name] - value) > 1e-12 * scale):
            raise CheckFailed(f"{name} does not match its definition")


# ---------------------------------------------------------------------------
# fd: `gldof validate fd` at the baseline size

def fd_round(seed: int, r: int, workdir: str, q: int = BASE_Q, sizes=BASE_SIZES,
             k_active: int = BASE_K, scenarios: int = SCENARIOS) -> list[Op]:
    ops = []
    for pos in range(scenarios):
        rngs = streams(seed, "fd", r, pos)
        inst = random_instance(rngs, q, sizes, k_active).disguised(rngs[1])
        problem = inst.write(os.path.join(workdir, f"fd-{r}-{pos}.json"))
        out = os.path.join(workdir, f"fd-{r}-{pos}.out.json")
        argv = ["validate", "fd", "--problem", problem, "--no-timestamp", "--out", out]
        ops.append(Op(argv, out, 2 * q, "fd"))
    return ops


def check_fd(op: Op, rc: int, doc: dict) -> None:
    div, fd_div = doc["divergence"], doc["fd_divergence"]
    div_ok = abs(div - fd_div) <= max(FD_REL_TOL * abs(fd_div), FD_ABS_TOL)
    ratio = doc["jacobian_worst_tol_ratio"]
    passed = div_ok and (ratio is None or ratio <= 1.0)
    if doc["passed"] != passed:
        raise CheckFailed(f"reported verdict {doc['passed']} but the numbers give {passed}")
    if not math.isclose(doc["divergence_abs_err"], abs(div - fd_div),
                        rel_tol=1e-12, abs_tol=1e-300):
        raise CheckFailed("divergence_abs_err does not match the divergences")
    if rc != (0 if passed else 4):
        raise CheckFailed(f"validate fd exited with {rc} on verdict {passed}")
    if not passed:
        raise CheckFailed(f"closed-form divergence {div} disagrees with fd {fd_div} "
                          f"(jacobian ratio {ratio})")


# ---------------------------------------------------------------------------
# oneshot: `gldof dof` on many small, different problem files

# (Q, block sizes, active blocks) of the s=1 random problems in a round, and
# the scales of their rescaled copies.  Call times range from 6 to 90 ms in
# clusters by size; the mix puts the median call (12th of 23) among the
# dense 9 to 13 ms calls rather than at the gap above them.
ONESHOT_RANDOM = [
    (30, (4,) * 4, 1, (1e-1, 1e1, 1e3)),
    (60, (4,) * 10, 3, (1e-1, 1e2, 1e6)),
    (120, (1, 2, 3, 4, 5) * 4, 4, (1e-1, 1e4)),
    (250, (4,) * 30, 6, (1e2,)),
    (400, (4,) * 50, 10, (1e1,)),
]
ONESHOT_IDENTITY_BLOCKS = (10, 20, 40, 130)   # N = 28, 58, 118, 390
ONESHOT_LASSO = (60, 30, 6)               # Q, N size-1 blocks, active
# a problem whose design does not depend on the seed and whose noise depends
# only on the round, with the scales at which the absolute KKT tolerance
# breaks scale equivariance (counted as failed)
FAULT_SEED, FAULT_SCALES = 20121205, (1e-9, 1e-7)


def oneshot_round(seed: int, r: int, workdir: str, *, random_specs=ONESHOT_RANDOM,
                  identity_blocks=ONESHOT_IDENTITY_BLOCKS, lasso=ONESHOT_LASSO) -> list[Op]:
    """Every call gets its own disguise of its problem (rescaled copies
    included), drawn from the problem's noise stream."""
    ops: list[Op] = []

    def add(inst, rng, kind, expect=None, known_fault=False):
        pos = len(ops)
        inst = inst.disguised(rng)
        problem = inst.write(os.path.join(workdir, f"one-{r}-{pos}.json"))
        out = os.path.join(workdir, f"one-{r}-{pos}.out.json")
        argv = ["dof", "--problem", problem, "--no-timestamp", "--out", out]
        ops.append(Op(argv, out, 1, kind, dict(expect or {}, instance=inst),
                      known_fault))
        return pos

    def add_with_copies(rngs, inst, scales, known_fault=False):
        base = add(inst, rngs[1], "random")
        for s in scales:
            add(inst.rescaled(s), rngs[1], "rescaled", {"original": base, "scale": s},
                known_fault)

    for i, (q, sizes, k, scales) in enumerate(random_specs):
        rngs = streams(seed, "oneshot", r, i)
        add_with_copies(rngs, random_instance(rngs, q, sizes, k), scales)
    for i, n_blocks in enumerate(identity_blocks):
        rngs = streams(seed, "oneshot", r, 100 + i)
        add(identity_instance(rngs, n_blocks), rngs[1], "identity")
    q, n, k = lasso
    rngs = streams(seed, "oneshot", r, 200)
    add(random_instance(rngs, q, (1,) * n, k), rngs[1], "lasso")
    rngs = (np.random.default_rng(FAULT_SEED),
            np.random.default_rng(np.random.SeedSequence([FAULT_SEED, r])))
    add_with_copies(rngs, random_instance(rngs, BASE_Q, BASE_SIZES, BASE_K), FAULT_SCALES,
                    known_fault=True)
    return ops


def identity_closed_form(inst: Instance):
    """Support and DOF of block soft thresholding of X'y at lambda, the
    solution for any orthogonal X."""
    norms = block_norms(inst.x.T @ inst.y, inst.sizes)
    sizes = np.array(inst.sizes)
    live = norms > inst.lam
    dof = float(np.sum(sizes[live] - inst.lam * (sizes[live] - 1) / norms[live]))
    return [int(b) for b in np.nonzero(live)[0]], dof


def check_oneshot(op: Op, rc: int, doc: dict, originals: dict) -> bool:
    """Check one `gldof dof` report; returns False for a known-fault operation
    whose output is wrong (counted as failed), raises CheckFailed otherwise."""
    if op.known_fault:
        try:
            check_report(op, rc, doc, originals)
        except CheckFailed:
            return False
    else:
        check_report(op, rc, doc, originals)
    return True


def check_report(op: Op, rc: int, doc: dict, originals: dict) -> None:
    inst = op.expect["instance"]
    if rc != 0:
        raise CheckFailed(f"dof exited with {rc}")
    dof, blocks, adim = doc["divergence"], doc["active_blocks"], doc["active_dim"]
    if adim != sum(inst.sizes[b] for b in blocks):
        raise CheckFailed("active_dim is not the size of the active blocks")
    if not -1e-9 <= dof <= adim + 1e-9:
        raise CheckFailed(f"dof {dof} outside [0, {adim}]")
    if op.kind == "identity":
        support, closed = identity_closed_form(inst)
        if blocks != support or abs(dof - closed) > IDENTITY_TOL:
            raise CheckFailed(f"identity design: dof {dof} on {blocks}, closed form "
                              f"{closed} on {support}")
    elif op.kind == "lasso":
        if abs(dof - adim) > 1e-9:
            raise CheckFailed(f"size-1 blocks: dof {dof} is not active_dim {adim}")
    elif op.kind == "rescaled":
        ref = originals[op.expect["original"]]
        same = (blocks == ref["active_blocks"] and
                abs(dof - ref["divergence"]) <= SCALE_DOF_RTOL * max(1.0, ref["divergence"]))
        if not same:
            raise CheckFailed(f"scale {op.expect['scale']:g}: dof {dof} on {blocks}, "
                              f"s=1 gives {ref['divergence']} on {ref['active_blocks']}")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Reads each operation's output and applies its workload's check.

    `check` returns True when the operation succeeded and False when it is a
    known-fault operation that failed; any wrong output raises CheckFailed.
    """

    def __init__(self):
        self.mc_docs: list[dict] = []
        self.originals: dict = {}

    def check(self, op: Op, rc: int, round_pos: int) -> bool:
        if not os.path.exists(op.out):
            raise CheckFailed(f"{op.kind} call exited with {rc} and wrote nothing")
        if op.kind == "path":
            check_path(op, rc, read_curve(op.out))
            return True
        doc = read_json(op.out)
        if op.kind == "mc":
            check_mc(op, rc, doc)
            self.mc_docs.append(doc)
            return True
        if op.kind == "fd":
            check_fd(op, rc, doc)
            return True
        ok = check_oneshot(op, rc, doc, self.originals)
        self.originals[round_pos] = doc
        return ok

    def new_round(self) -> None:
        self.originals = {}

    def finish(self) -> None:
        if self.mc_docs:
            check_mc_pooled(self.mc_docs)


ROUNDS = {"mc": mc_round, "path": path_round, "fd": fd_round, "oneshot": oneshot_round}
