"""Seeded mutation fuzz of the command line: a valid request with one node
of an input file, or one argument value, replaced or deleted ends in exit
0, 2, 3 or 4, never in a traceback or a hang."""

import contextlib
import copy
import io
import json
import os
import random
import signal
import tempfile
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nonarch import Current, cli
from nonarch.cli import dispatch

from helpers import random_tower, seeded_window_current, tower_json

# every JSON type, a zero denominator, a negative and a huge integer, and
# containers where a scalar belongs
NODES = [[], {}, "x", "1/0", 0, -1, 1.5, None, True, 10 ** 30, ["a"], {"a": 1}]
ARGS = ["0", "-1", "1/0", "x", str(10 ** 30), "[]", "1/3", "", "inf"]
# size arguments whose work grows without bound (README): never mutated
UNBOUNDED = {"--J", "--M", "--l", ("moebius-check", "--n")}


def _files():
    tower = random_tower(3, 3)
    top = sorted(tower.graphs[-1].edge_map)
    return {
        "window": seeded_window_current(random.Random(5)).to_json(),
        "periodic": Current.periodic(3, {0: 1, 1: 1, 2: -2}, spine0=1).to_json(),
        "poles": {"p": 5, "x": "0", "poles": ["1", "2", {"rat": "3", "pi": "1"}]},
        "tower": tower_json(tower),
    }, f"{top[0]}@1/2", f"{top[-1]}@1/3"


FILES, X, Y = _files()
REQUESTS = [
    ["splitting-radius", "--p", "3", "--N", "2", "--n", "2", "--numeric"],
    ["as-genus", "--e", "6", "--p", "5"],
    ["order-set", "--poles", "{poles}", "--nmax", "4", "--x", "1/3", "--prec", "32"],
    ["find-order", "--poles", "{poles}", "--p", "5", "--nmax", "3"],
    ["current", "--file", "{window}", "--p", "3", "--q", "p", "--alpha-at", "5",
     "--delta-at", "5", "--prec", "64"],
    ["current", "--file", "{periodic}", "--p", "3", "--q", "p", "--delta-at", "5",
     "--J", "2"],
    ["moebius-check", "--p", "3", "--q", "p", "--n", "1", "--J", "4"],
    ["poly-eval", "--p", "3", "--q", "p", "--coeffs", "1,2,0,1", "--J", "4"],
    ["theta", "--p", "3", "--q", "p", "--factors", "[[1, 1], [2, -1]]",
     "--x-exponent", "0", "--l", "1", "--z", "5", "--z0", "2", "--M", "4",
     "--prec", "16"],
    ["ladder-ord", "--file", "{window}", "--p", "3", "--q", "p", "--z", "5",
     "--nmax", "3"],
    ["skeleton-tower", "--file", "{tower}", "--check", "compose", "--samples", "40",
     "--seed", "1"],
    ["skeleton-tower", "--file", "{tower}", "--check", "separation", "--x", X,
     "--y", Y],
]


def _nodes(node, path=()):
    """Every JSON path in ``node``, the root () included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


def _mutated_file(data, draw):
    path = draw(st.sampled_from(list(_nodes(data))))
    if not path:
        return draw(st.sampled_from(NODES))
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(NODES))
    return data


class _Hung(BaseException):
    pass


def _hung(signum, frame):
    raise _Hung("the request did not return within 10 s")


@contextlib.contextmanager
def _written(argv, files):
    """``argv`` with each "{name}" standing for the path of ``files[name]``
    written as JSON to a temporary directory that lasts the context."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name + ".json") for name in files}
        for name, content in files.items():
            with open(paths[name], "w") as fh:
                json.dump(content, fh)
        yield [a.format(**paths) if a.startswith("{") else a for a in argv]


def _exit_code(argv, files):
    """dispatch's exit code for ``argv`` with its files written (``_written``);
    argparse's usage exit counts."""
    with _written(argv, files) as argv:
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(10)
        try:
            return dispatch(argv)[0]
        except SystemExit as exc:
            return exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _files_of(argv):
    return {a[1:-1]: FILES[a[1:-1]] for a in argv if a.startswith("{")}


def test_every_argument_mutation_ends_in_a_documented_exit_code():
    for argv in REQUESTS:
        for i in range(2, len(argv)):
            flag = argv[i - 1]
            if not flag.startswith("--") or argv[i].startswith("--") or \
                    flag in UNBOUNDED or (argv[0], flag) in UNBOUNDED:
                continue
            for value in ARGS:
                mutated = argv[:i] + [value] + argv[i + 1:]
                assert _exit_code(mutated, _files_of(argv)) in (0, 2, 3, 4), mutated


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_one_file_mutation_ends_in_a_documented_exit_code(data):
    argv = data.draw(st.sampled_from([a for a in REQUESTS if _files_of(a)]))
    files = _files_of(argv)
    name = data.draw(st.sampled_from(sorted(files)))
    files[name] = _mutated_file(files[name], data.draw)
    assert _exit_code(argv, files) in (0, 2, 3, 4), (argv, files[name])


def _streamed(payload):
    """A report as ``main`` once wrote it: json.dump, which streams through
    the pure-Python encoder, then a newline."""
    out = io.StringIO()
    json.dump(payload, out, sort_keys=True, default=str)
    out.write("\n")
    return out.getvalue()


def test_main_writes_the_bytes_of_the_streamed_report(monkeypatch, capsys):
    payloads = []

    def recorded(argv):
        code, payload = dispatch(argv)
        payloads.append(payload)
        return code, payload

    monkeypatch.setattr(cli, "dispatch", recorded)
    for argv in REQUESTS:
        with _written(argv, _files_of(argv)) as argv:
            cli.main(argv)
        assert capsys.readouterr().out == _streamed(payloads[-1]), argv
    # a payload only default=str can encode
    odd = {"result": {"x": Fraction(1, 3), "y": [Decimal("0.1"), 1.5, None]},
           "wall_time_ms": 0.25}
    monkeypatch.setattr(cli, "dispatch", lambda argv: (0, odd))
    assert cli.main([]) == 0
    assert capsys.readouterr().out == _streamed(odd)
    assert '"x": "1/3"' in _streamed(odd)
