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


def test_over_rounds_gives_median_and_quartiles_and_stops_on_a_changed_report():
    rows = [{"report_sha256": "a", "request_ms": t} for t in (4.0, 1.0, 3.0, 2.0)]
    assert _bench.over_rounds(rows, ("report_sha256",), "job") == {
        "report_sha256": "a", "request_ms": [4.0, 1.0, 3.0, 2.0],
        "median_ms": 2.5, "q1_ms": 1.25, "q3_ms": 3.75}
    rows[2] = dict(rows[2], report_sha256="b")
    with pytest.raises(RuntimeError, match="job: report_sha256 changed between rounds"):
        _bench.over_rounds(rows, ("report_sha256",), "job")


@pytest.mark.parametrize("script", sorted(p.name for p in TOOLS.glob("bench_*.py")))
def test_bench_script_help_exits_0(script):
    done = subprocess.run([sys.executable, str(TOOLS / script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--label" in done.stdout and "--src" in done.stdout


def test_bench_cli_smoke_run_compares_two_trees(tmp_path, monkeypatch, capsys):
    # two rounds (quartiles need two values) on the first two corpus
    # requests, this tree on both sides
    import bench_cli
    monkeypatch.setattr(bench_cli, "ROUNDS", 2)
    monkeypatch.setattr(bench_cli, "FIRST", 2)
    monkeypatch.setattr(bench_cli, "OUT", str(tmp_path / "BENCH_cli.json"))
    src = str(TOOLS.parent / "src")
    bench_cli.main(["--base", src, "--src", src, "--label", "smoke"])
    entry = json.loads((tmp_path / "BENCH_cli.json").read_text())["smoke"]
    assert entry["env"]["rounds"] == 2 and len(entry["rows"]) == 2
    for row in entry["rows"]:
        assert row["same_report"]
        for side in ("base", "src"):
            assert len(row[side]["request_ms"]) == 2
            assert row[side]["q1_ms"] <= row[side]["median_ms"] <= row[side]["q3_ms"]
    assert sum(t["requests"] for t in entry["by_command"]["src"].values()) == 2
    assert "reports differing between the trees: 0 []" in capsys.readouterr().out


def test_each_bound_mutant_names_a_text_that_occurs_once_in_its_file():
    # the mutants themselves run in tools/mutate_bounds.py, not here
    import mutate_bounds
    names = [name for name, *_ in mutate_bounds.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, text, replacement, _ in mutate_bounds.MUTANTS:
        source = (mutate_bounds.ROOT / path).read_text(encoding="utf-8")
        assert source.count(text) == 1 and replacement != text, name


def test_each_bound_mutant_names_a_killer_that_pytest_collects():
    # a mutant runs its killer first, so a killer renamed away would leave
    # every mutant to the whole suite
    import mutate_bounds
    killers = sorted({killer for *_, killer in mutate_bounds.MUTANTS})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *killers], cwd=mutate_bounds.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(killers) <= set(done.stdout.splitlines())
