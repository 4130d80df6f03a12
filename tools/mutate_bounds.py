"""Mutation test of the certified bounds: does some test fail when a bound
claims more than it proves?

Each mutant in ``MUTANTS`` raises one certified lower bound by a small step
(a tail offset + 1, a slope + 1/8, J + 1 -> J + 2, M + 1 -> M + 2) or drops
one clause of a certificate.  For each, the repository is copied to a
temporary directory, the one exact text is replaced in the copy, and
``python -m pytest -x -q tests`` runs there against the copy's ``src``,
all but the test that checks this table.  A failing run is KILLED; a
passing one SURVIVED, which asks for a test that kills it or a written
argument that the mutated bound still holds.  One line per mutant, then a
count::

    python3 tools/mutate_bounds.py            # every mutant, about 20 min
    python3 tools/mutate_bounds.py NAME ...   # the named mutants only

Stdlib only.  The exit code is 0 when every mutant run was KILLED, else 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CURRENTS = "src/nonarch/currents.py"
SERIES = "src/nonarch/series.py"
TIMEOUT_S = 1800
# the tier-1 check of this table, which every mutant fails by construction
TABLE_TEST = ("tests/test_bench_tools.py::"
              "test_each_bound_mutant_names_a_text_that_occurs_once_in_its_file")

# (name, file, exact text, replacement); each text occurs once in its file
MUTANTS = (
    ("binomial-tail-offset+1", CURRENTS,
     "TailBound(u.exact_valuation, Fraction(0))",
     "TailBound(u.exact_valuation, Fraction(1))"),
    ("delta-at-one-J+2", CURRENTS,
     "Fraction(n) * (J + 1) * _tate_valuation(q))",
     "Fraction(n) * (J + 2) * _tate_valuation(q))"),
    ("poly-eval-J+2", CURRENTS,
     "va + Fraction(n) * (J + 1) * vq",
     "va + Fraction(n) * (J + 2) * vq"),
    ("delta-eval-tail-J+2", CURRENTS,
     "min((J + 1) * vq - 2 * vz, (J + 1) * vq)",
     "min((J + 2) * vq - 2 * vz, (J + 1) * vq)"),
    ("delta-eval-drop-separation-clause", CURRENTS,
     "if not ((J + 1) * vq > vz and -(J + 1) * vq < vz):",
     "if not ((J + 1) * vq > vz):"),
    ("theta-tail-pos-M+2", CURRENTS,
     "beta_pos = (l * (M + 1) - jmax) * vq",
     "beta_pos = (l * (M + 2) - jmax) * vq"),
    ("theta-tail-neg-M+2", CURRENTS,
     "beta_neg = (l * (M + 1) + jmin) * vq",
     "beta_neg = (l * (M + 2) + jmin) * vq"),
    ("theta-drop-zero-bound-refusal", CURRENTS,
     "if rel_err <= 0:",
     "if rel_err < 0:"),
    ("ladder-drop-positive-x-clause", CURRENTS,
     "settled.append(0 < x == tn * e0 + w0 - offset)",
     "settled.append(x == tn * e0 + w0 - offset)"),
    ("ladder-drop-min-at-e0-clause", CURRENTS,
     "settled.append(0 < x == tn * e0 + w0 - offset)",
     "settled.append(0 < x)"),
    ("ladder-one-settled-row-fewer", CURRENTS,
     "if not all(settled[-min(3, nmax - 1) - 1:]):",
     "if not all(settled[-min(3, nmax - 1):]):"),
    ("mul-tail-offset+1", SERIES,
     "tail = TailBound(a, f.minorant_at(a) + g.minorant_at(a))",
     "tail = TailBound(a, f.minorant_at(a) + g.minorant_at(a) + 1)"),
    ("scalar-mul-tail-offset+1", SERIES,
     "self.tail.beta + vc)",
     "self.tail.beta + vc + 1)"),
    ("rescale-tail-slope+1/8", SERIES,
     "TailBound(self.tail.alpha + vc,",
     "TailBound(self.tail.alpha + vc + Fraction(1, 8),"),
    ("root-tail-slope+1/8", SERIES,
     "return TailBound(a, one_over)",
     "return TailBound(a + Fraction(1, 8), one_over)"),
    ("root-tail-input-slope+1/8", SERIES,
     "return TailBound(alpha_u, bmax - M + one_over)",
     "return TailBound(alpha_u + Fraction(1, 8), bmax - M + one_over)"),
    ("convergence-drop-undercut-check", SERIES,
     "if j >= 1 and v < f.tail.at(j):",
     "if False:"),
)


def _ignore(directory, names):
    return [n for n in names
            if n in (".git", ".hypothesis", ".pytest_cache", "__pycache__")]


def run(name: str, path: str, text: str, replacement: str) -> str:
    """KILLED or SURVIVED for one mutant, from a test run on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / path
        source = target.read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit(f"{name}: the text must occur once in {path}")
        target.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--deselect", TABLE_TEST, "tests"], cwd=copy, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "KILLED (timeout)"
        if done.returncode == 0:
            return "SURVIVED"
        failed = [ln for ln in done.stdout.splitlines() if ln.startswith("FAILED")]
        return "KILLED" + (f" by {failed[0].split()[1]}" if failed else "")


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in chosen}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survived = 0
    for name, path, text, replacement in chosen:
        start = time.monotonic()
        verdict = run(name, path, text, replacement)
        survived += verdict == "SURVIVED"
        print(f"{name:36} {verdict} ({time.monotonic() - start:.0f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
