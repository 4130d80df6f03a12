"""Every function of ``src/nonarch`` that no entry point enters is on a
reviewed list: ``tools/reach.py`` traces the seed-1 corpus, the acceptance
suite and the demos in a fresh interpreter and prints the functions none
of them entered.  A new name there is code that nothing reaches; a name
gone from there is one the list no longer needs."""

import pathlib
import subprocess
import sys

REACH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reach.py"

SEMANTIC_DUNDER = "semantic dunder"
BERKOVICH = "Berkovich object"

# name as reach.py prints it -> why no entry point needs to enter it
ALLOWED = {
    "__init__.__dir__": f"{SEMANTIC_DUNDER}: dir(nonarch) lists the names "
                        "resolved on first use",
    "berkovich.BallPoint.__init__": BERKOVICH,
    "berkovich.BallPoint.p": BERKOVICH,
    "berkovich.BallPoint.__eq__": f"{BERKOVICH}: ball equality",
    "berkovich.BallPoint.__hash__": f"{BERKOVICH}: hash consistent with ball equality",
    "berkovich.BallPoint.__repr__": SEMANTIC_DUNDER,
    "berkovich.same_point": BERKOVICH,
    "berkovich.classify_type": BERKOVICH,
    "berkovich._recenter": f"{BERKOVICH}: seminorm's exact recentering",
    "berkovich.seminorm": BERKOVICH,
    "berkovich.join": BERKOVICH,
    "berkovich.ladder_point": BERKOVICH,
    "berkovich.Segment.__init__": BERKOVICH,
    "berkovich.Segment.contains": BERKOVICH,
    "padic._Record.__setattr__": f"{SEMANTIC_DUNDER}: immutability guard",
    "padic._Record.__delattr__": f"{SEMANTIC_DUNDER}: immutability guard",
    "padic._Record.__hash__": f"{SEMANTIC_DUNDER}: field-wise hash of a record",
    "padic._Record.__repr__": SEMANTIC_DUNDER,
    "padic._Record.__reduce__": f"{SEMANTIC_DUNDER}: copying and pickling",
    "padic.PadicNumber.__hash__": f"{SEMANTIC_DUNDER}: hash ignoring prec",
    "padic.PadicNumber.__rsub__": f"{SEMANTIC_DUNDER}: rational - PadicNumber",
    "padic.PadicNumber.__rtruediv__": f"{SEMANTIC_DUNDER}: rational / PadicNumber",
    "padic.PadicNumber.__repr__": SEMANTIC_DUNDER,
    "padic._interleave": "live branch: the unit digits of a ramified value in a "
                         "report, which no corpus report holds",
    "padic.parse_extended": f"{BERKOVICH}: BallPoint and Segment read a "
                            "log-radius or its text through it",
    "series.BoundedSeries.scalar_mul": "live branch: RamifiedGerm normalizes a "
                                       "germ whose constant term is not 1",
    "skeleton.canonical_point": "public API: snaps a caller's point; retract and "
                                "the tower walk snap through skeleton._point",
}


def test_only_the_allowed_functions_are_unreached():
    done = subprocess.run([sys.executable, str(REACH)], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    *rows, total = done.stdout.splitlines()
    unreached = {row.split()[1] for row in rows}
    assert total.startswith(f"{len(rows)} functions, ")
    assert sorted(unreached - set(ALLOWED)) == [], "new unreached code"
    assert sorted(set(ALLOWED) - unreached) == [], "an allowlist entry is now reached"
