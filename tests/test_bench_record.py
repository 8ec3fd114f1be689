"""scripts/bench_record.py stops, naming the run, when a benchmark run gives
no result."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_record.py")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(tmp_path, body):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import sys\n" + body)
    return str(tmp_path)


@pytest.mark.parametrize("body, code, stderr", [
    # the message bench/run.py gives when its checkout has no sources
    ('sys.exit("error: no gldof sources at src")\n', 1, "error: no gldof sources at src"),
    # a result line cut short, after a warning on stderr
    ('print("slow phase", file=sys.stderr)\nprint(\'{"correct": tr\')\n', 0, "slow phase"),
])
def test_a_run_without_a_result_stops_the_recording(bench_record, tmp_path, body, code,
                                                     stderr):
    tree = fake_tree(tmp_path, body)
    with pytest.raises(SystemExit) as stop:
        bench_record.run(tree, "head", "fd", 316, 1.0)
    message = str(stop.value.code)
    assert message.startswith(f"head run of fd seed 316 gave no result (exit code {code})")
    assert message.splitlines()[-1] == stderr


def test_a_run_with_a_result_is_read(bench_record, tmp_path):
    tree = fake_tree(tmp_path, 'print("raw {}")\nprint(\'{"correct": true, "attempted": 3, '
                               '"failed": 0, "metrics": {"rate_per_s": {"value": 2.5}}}\')\n')
    assert bench_record.run(tree, "base", "mc", 1, 1.0) == {
        "seed": 1, "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"rate_per_s": 2.5}}
