import dataclasses
import json

import numpy as np
import pytest

from gldof.core import BlockPartition, block_support
from gldof.datagen import (
    LoadedProblem,
    ScenarioSpec,
    generate,
    load_matrix_csv,
    load_problem,
    load_vector_csv,
    problem_from_dict,
    save_problem,
)


def spec(**kw):
    base = dict(Q=20, N=10, block_sizes=(2, 2, 2, 2, 2), k_active=2,
                signal_scale=1.0, sigma=0.5, seed=42)
    base.update(kw)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_round_trip(self):
        s = spec()
        assert ScenarioSpec.from_dict(dataclasses.asdict(s)) == s

    @pytest.mark.parametrize("kw", [
        dict(N=9),                        # sizes do not sum to N
        dict(Q=10),                       # not overdetermined
        dict(k_active=6),
        dict(sigma=0.0),
        dict(signal_scale=0.0),
        dict(identity=True),              # identity needs Q == N
        dict(N=3, block_sizes=(1.5, 2)),  # fractional sizes, once truncated to (1, 2)
        dict(N=3, block_sizes=("1", "2")),
        dict(Q=20.5),                     # fractional counts and seeds, once truncated
        dict(k_active=1.5),               # or a TypeError traceback
        dict(seed=1.5),
        dict(Q="20"),
        dict(sigma="0.5"),
        dict(signal_scale="1"),
        dict(N=4, block_sizes=4),         # not a sequence of sizes
        dict(Q=10, identity="false"),     # once the identity design, by truthiness
        dict(identity=0),                 # once stored as 0
        dict(k_active=True),              # booleans, once read as 1
        dict(seed=True),
        dict(sigma=True),
        dict(sigma=float("inf")),         # once accepted, and written as Infinity
        dict(signal_scale=float("inf")),
        dict(sigma=float("nan")),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            spec(**kw)


class TestGenerate:
    def test_deterministic(self):
        a = generate(spec())
        b = generate(spec())
        assert np.array_equal(a.design.matrix, b.design.matrix)
        assert np.array_equal(a.beta0, b.beta0)

    def test_seed_changes_output(self):
        a = generate(spec())
        b = generate(spec(seed=43))
        assert not np.array_equal(a.design.matrix, b.design.matrix)

    def test_exactly_k_active_blocks(self):
        scenario = generate(spec(k_active=3))
        assert block_support(scenario.partition, scenario.beta0).n_active == 3

    def test_active_blocks_have_signal_scale_norm(self):
        scenario = generate(spec(signal_scale=2.5))
        norms = scenario.partition.block_norms(scenario.beta0)
        active = norms[norms > 0]
        assert np.allclose(active, 2.5)

    def test_k_active_zero(self):
        scenario = generate(spec(k_active=0))
        assert np.all(scenario.beta0 == 0.0)
        assert np.all(scenario.mu0 == 0.0)

    def test_identity_mode(self):
        scenario = generate(spec(Q=10, identity=True))
        assert np.array_equal(scenario.design.matrix, np.eye(10))
        assert np.array_equal(scenario.mu0, scenario.beta0)

    def test_design_is_well_conditioned(self):
        scenario = generate(spec())
        smin = np.linalg.svd(scenario.design.matrix, compute_uv=False)[-1]
        assert smin > 1e-6

    def test_an_overflowing_signal_is_refused(self):
        # 1e308 times a direction entry above 1 overflows: once a RuntimeWarning
        # and a problem file of Infinity and NaN entries
        with np.errstate(all="raise"), pytest.raises(ValueError, match="mu0 = X beta0"):
            generate(spec(signal_scale=1e308))

    def test_column_scaling(self):
        scenario = generate(spec(Q=400, N=10, block_sizes=(1,) * 10))
        col_norms = np.linalg.norm(scenario.design.matrix, axis=0)
        assert np.all(np.abs(col_norms - 1.0) < 0.2)


class TestDraws:
    def test_draw_reproducible(self):
        scenario = generate(spec())
        assert np.array_equal(scenario.draw_y(seed=1, replicate=3),
                              scenario.draw_y(seed=1, replicate=3))

    def test_an_overflowing_draw_is_refused(self):
        scenario = generate(spec(sigma=1.7e308))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="y = mu0"):
            scenario.draw_y(seed=1)

    def test_replicates_differ(self):
        scenario = generate(spec())
        assert not np.array_equal(scenario.draw_y(seed=1, replicate=0),
                                  scenario.draw_y(seed=1, replicate=1))


class TestProblemFiles:
    def test_json_round_trip(self, tmp_path):
        scenario = generate(spec())
        y = scenario.draw_y()
        path = tmp_path / "prob.json"
        save_problem(path, scenario.design, y, scenario.partition,
                     lam=0.37, beta0=scenario.beta0, sigma=0.5)
        loaded = load_problem(path)
        assert np.array_equal(loaded.design.matrix, scenario.design.matrix)
        assert np.array_equal(loaded.y, y)
        assert loaded.partition == scenario.partition
        assert loaded.lam == 0.37
        assert np.array_equal(loaded.beta0, scenario.beta0)
        assert loaded.sigma == 0.5

    def test_optional_fields_absent(self, tmp_path):
        scenario = generate(spec())
        path = tmp_path / "p.json"
        save_problem(path, scenario.design, scenario.draw_y(), scenario.partition)
        loaded = load_problem(path)
        assert loaded.lam is None and loaded.beta0 is None and loaded.sigma is None
        with pytest.raises(ValueError):
            loaded.problem()

    def test_flat_row_major_matrix_accepted(self):
        d = {
            "Q": 2, "N": 2, "partition": [[0], [1]],
            "X": [1.0, 0.0, 0.0, 1.0],
            "y": [1.0, 2.0],
        }
        loaded = problem_from_dict(d)
        assert np.array_equal(loaded.design.matrix, np.eye(2))

    def test_shape_mismatch_rejected(self):
        d = {"Q": 2, "N": 2, "partition": [[0], [1]],
             "X": [1.0, 0.0, 0.0], "y": [1.0, 2.0]}
        with pytest.raises(ValueError):
            problem_from_dict(d)

    @pytest.mark.parametrize("partition", [[[0], [1.5]], [["0"], ["1"]], [], 5, [0, 1]])
    def test_malformed_partition_rejected(self, partition):
        # a fractional or string index used to be truncated to another
        # partition, and a partition or block that is not a list was a TypeError
        d = {"Q": 2, "N": 2, "partition": partition, "X": [[1.0, 0.0], [0.0, 1.0]],
             "y": [1.0, 2.0]}
        with pytest.raises(ValueError, match="not an integer|no blocks|not a sequence"):
            problem_from_dict(d)

    @pytest.mark.parametrize("fields, match", [
        ({"lambda": "0.5"}, "lambda '0.5' is not a number"),
        ({"sigma": "0.5"}, "sigma '0.5' is not a number"),
        ({"Q": 2.5}, "Q 2.5 is not an integer"),  # once read as Q = 2
        ({"N": "2"}, "N '2' is not an integer"),
        ({"lambda": True}, "lambda True is not a number"),  # once read as 1
        ({"sigma": True}, "sigma True is not a number"),
        ({"y": ["1", "2"]}, "y must hold numbers only"),  # strings, once parsed
        ({"X": [[True, False], [False, True]]}, "X must hold numbers only"),
        ({"beta0": ["0", "1"]}, "beta0 must hold numbers only"),
        # a boolean among numbers, once read as a number: y = (1, 1)
        ({"y": [1.0, True]}, "y must hold numbers only"),
        ({"y": [1, True]}, "y must hold numbers only"),
        ({"X": [[1.0, 0.0], [False, 1.0]]}, "X must hold numbers only"),
        ({"X": [1.0, 0.0, 0.0, True]}, "X must hold numbers only"),  # row-major flat
        ({"beta0": [0.0, True]}, "beta0 must hold numbers only"),
    ])
    def test_malformed_numbers_rejected(self, fields, match):
        d = {"Q": 2, "N": 2, "partition": [[0], [1]], "X": [[1.0, 0.0], [0.0, 1.0]],
             "y": [1.0, 2.0], "lambda": 0.5, **fields}
        with pytest.raises(ValueError, match=match):
            problem_from_dict(d)

    def test_csv_loaders(self, tmp_path):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        y = np.array([1.5, -2.5, 0.0])
        xp = tmp_path / "x.csv"
        yp = tmp_path / "y.csv"
        np.savetxt(xp, x, delimiter=",")
        np.savetxt(yp, y, delimiter=",")
        assert np.array_equal(load_matrix_csv(xp), x)
        assert np.array_equal(load_vector_csv(yp), y)
        np.savetxt(yp, y[None, :], delimiter=",")  # one row
        assert np.array_equal(load_vector_csv(yp), y)
        # a table was once flattened row by row into a vector
        np.savetxt(yp, x, delimiter=",")
        with pytest.raises(ValueError, match="one row or one column"):
            load_vector_csv(yp)
