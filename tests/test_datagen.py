import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from gldof import datagen
from gldof.core import BlockPartition, block_support
from gldof.datagen import (
    LoadedProblem,
    ScenarioSpec,
    generate,
    load_problem,
    problem_from_dict,
    read_json,
    read_matrix_csv,
    read_vector_csv,
    save_problem,
)

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))


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
        assert np.array_equal(read_matrix_csv(xp)[0], x)
        assert np.array_equal(read_vector_csv(yp)[0], y)
        np.savetxt(yp, y[None, :], delimiter=",")  # one row
        assert np.array_equal(read_vector_csv(yp)[0], y)
        # a table was once flattened row by row into a vector
        np.savetxt(yp, x, delimiter=",")
        with pytest.raises(ValueError, match="one row or one column"):
            read_vector_csv(yp)

    def test_csv_digest_and_line_endings(self, tmp_path):
        # the file is read once: its digest is that of the bytes parsed, and
        # CRLF and CR line endings read as a text-mode file reads them
        for newline in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "x.csv"
            path.write_bytes(newline.join([b"1.5,2", b"# a comment", b"-3,4e-300", b""]))
            x, digest = read_matrix_csv(path)
            assert np.array_equal(x, [[1.5, 2.0], [-3.0, 4e-300]])
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def stdlib_problem(path):
    """The reference reading of a problem file: the json module's parse."""
    return problem_from_dict(json.loads(pathlib.Path(path).read_text(encoding="utf-8")))


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def extreme_doubles(count, seed=0):
    """Finite doubles over the whole exponent range, from random bit patterns,
    with the subnormal and overflow edges, signed zeros and 17-digit values."""
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
    values = bits.view(np.float64)
    edges = [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
             0.30000000000000004, 1 / 3, 1e-300, 1e300]
    return np.concatenate([edges, values[np.isfinite(values)]])


class TestReader:
    """`load_problem` parses with orjson, and reads what the json module reads."""

    def assert_reads_as_stdlib(self, path):
        loaded, ref = load_problem(path), stdlib_problem(path)
        assert_same_bits(loaded.design.matrix, ref.design.matrix)
        assert_same_bits(loaded.y, ref.y)
        assert loaded.partition == ref.partition
        for name in ("lam", "sigma", "beta0"):
            a, b = getattr(loaded, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert_same_bits(a, b)
        assert loaded.digest == hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
    def test_fixtures(self, path):
        self.assert_reads_as_stdlib(path)

    def test_saved_problem(self, tmp_path):
        scenario = generate(spec())
        path = tmp_path / "prob.json"
        save_problem(path, scenario.design, scenario.draw_y(), scenario.partition,
                     lam=0.1 + 0.2, beta0=scenario.beta0, sigma=0.5)
        self.assert_reads_as_stdlib(path)

    @pytest.mark.parametrize("fmt", [".17g", ""], ids=["17-digit", "shortest"])
    def test_doubles_over_the_exponent_range(self, tmp_path, fmt):
        y = extreme_doubles(20_000)
        x = np.random.default_rng(1).standard_normal((y.size, 2))
        text = "".join([
            '{"Q": %d, "N": 2, "partition": [[0], [1]],\n"X": [' % y.size,
            ",".join("[%s,%s]" % (format(float(a), fmt), format(float(b), fmt)) for a, b in x),
            '],\n"y": [', ",".join(format(float(v), fmt) for v in y),
            '],\n"lambda": 0.30000000000000004, "beta0": [-0.0, 5e-324], "sigma": 1e-300}\n'])
        path = tmp_path / "doubles.json"
        path.write_text(text)
        self.assert_reads_as_stdlib(path)
        # ".17g" writes -0.0 as the integer literal -0, which reads as 0
        assert_same_bits(load_problem(path).y, y if fmt == "" else y + 0.0)

    def test_orjson_parses_a_standard_file(self, tmp_path, monkeypatch):
        scenario = generate(spec())
        path = tmp_path / "prob.json"
        save_problem(path, scenario.design, scenario.draw_y(), scenario.partition)

        def refuse(*args, **kwargs):
            raise AssertionError("the json module parsed a file that orjson reads")

        monkeypatch.setattr(datagen.json, "loads", refuse)
        assert_same_bits(load_problem(path).design.matrix, scenario.design.matrix)

    def test_non_finite_tokens_are_read_by_the_json_module(self, tmp_path):
        # orjson refuses NaN and Infinity; they are read, then refused by the
        # finiteness checks of the problem
        path = tmp_path / "nan.json"
        path.write_text('{"Q": 2, "N": 2, "partition": [[0], [1]], "X": [[1, 0], [0, 1]], '
                        '"y": [NaN, -Infinity], "lambda": Infinity}')
        self.assert_reads_as_stdlib(path)
        loaded = load_problem(path)
        assert np.isnan(loaded.y[0]) and loaded.y[1] == -np.inf and loaded.lam == np.inf

    def test_an_integer_beyond_64_bits_is_read_as_a_float(self, tmp_path):
        text = ('{"Q": 2, "N": 2, "partition": [[0], [1]], "X": [[1, 0], [0, 1]], '
                '"y": [1, 123456789012345678901234567890]}')
        path = tmp_path / "big.json"
        path.write_text(text)
        # the json module reads a Python int, which numpy holds as an object
        with pytest.raises(ValueError, match="y must hold numbers only"):
            problem_from_dict(json.loads(text))
        assert load_problem(path).y.tolist() == [1.0, 1.2345678901234568e29]

    def test_malformed_json_keeps_the_json_module_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"Q": 2,}')
        with pytest.raises(json.JSONDecodeError) as exc:
            read_json(path)
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(path.read_text())
        assert str(exc.value) == str(ref.value)
