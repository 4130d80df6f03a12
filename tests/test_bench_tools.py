import json
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import _bench  # noqa: E402


def test_record_adds_a_label_and_keeps_the_others(tmp_path):
    out = str(tmp_path / "BENCH_x.json")
    _bench.record(out, "before", {"rows": [1]})
    _bench.record(out, "after", {"rows": [2]})
    data = _bench.record(out, "after", {"rows": [3]})
    _bench.record(out, "probe", {"env": _bench.env(3, seed=1), "rows": []})
    with open(out, encoding="utf-8") as fh:
        written = json.load(fh)
    assert data == {"before": {"rows": [1]}, "after": {"rows": [3]}}
    assert {k: written[k] for k in data} == data
    assert written["probe"]["env"]["repeat"] == 3 and written["probe"]["env"]["seed"] == 1


def test_alternating_reverses_the_order_of_the_sides_every_other_round():
    assert list(_bench.alternating(3, ("base", "src"))) == \
        ["base", "src", "src", "base", "base", "src"]


@pytest.mark.parametrize("script", sorted(p.name for p in TOOLS.glob("bench_*.py")))
def test_bench_script_help_exits_0(script):
    done = subprocess.run([sys.executable, str(TOOLS / script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--label" in done.stdout and "--src" in done.stdout


def test_each_bound_mutant_names_a_text_that_occurs_once_in_its_file():
    # the mutants themselves run in tools/mutate_bounds.py, not here
    import mutate_bounds
    names = [name for name, *_ in mutate_bounds.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, text, replacement in mutate_bounds.MUTANTS:
        source = (mutate_bounds.ROOT / path).read_text(encoding="utf-8")
        assert source.count(text) == 1 and replacement != text, name
