"""Mutation test of the certified bounds: does some test fail when a bound
claims more than it proves?

Each mutant in ``MUTANTS`` raises one certified lower bound by a small step
(a tail offset + 1, a slope + 1/8, J + 1 -> J + 2, M + 1 -> M + 2), drops
one clause of a certificate, or miscounts the integer lengths of a
skeleton tower.  For each, the repository is copied to a temporary
directory and the one exact text is replaced in the copy.  Then
``python -m pytest -x -q`` runs there against the copy's ``src``: first
the mutant's killer, the test that last failed on it, and only if that
passes every test in ``tests`` but the test that checks this table.  A
failing run is KILLED; a passing one SURVIVED, which asks for a test that
kills it or a written argument that the mutated bound still holds.  One
line per mutant, then a count::

    python3 tools/mutate_bounds.py            # every mutant
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
SKELETON = "src/nonarch/skeleton.py"
TIMEOUT_S = 1800
# the tier-1 check of this table, which every mutant fails by construction
TABLE_TEST = ("tests/test_bench_tools.py::"
              "test_each_bound_mutant_names_a_text_that_occurs_once_in_its_file")

# (name, file, exact text, replacement, killer); each text occurs once in its
# file, and the killer is a pytest node id
MUTANTS = (
    ("binomial-tail-offset+1", CURRENTS,
     "TailBound(u.exact_valuation, Fraction(0))",
     "TailBound(u.exact_valuation, Fraction(1))",
     "tests/test_padic.py::test_binomial_factor_tail_bounds_the_longer_expansion"),
    ("delta-at-one-J+2", CURRENTS,
     "Fraction(n) * (J + 1) * _tate_valuation(q))",
     "Fraction(n) * (J + 2) * _tate_valuation(q))",
     "tests/test_acceptance.py::test_04_moebius_lambert_identity"),
    ("poly-eval-J+2", CURRENTS,
     "va + Fraction(n) * (J + 1) * vq",
     "va + Fraction(n) * (J + 2) * vq",
     "tests/test_acceptance.py::test_05_polynomial_probe"),
    ("delta-eval-tail-J+2", CURRENTS,
     "min((J + 1) * vq - 2 * vz, (J + 1) * vq)",
     "min((J + 2) * vq - 2 * vz, (J + 1) * vq)",
     "tests/test_factored_form.py::test_truncated_delta_skips_zero_cusps[z2-3]"),
    ("delta-eval-drop-separation-clause", CURRENTS,
     "if not ((J + 1) * vq > vz and -(J + 1) * vq < vz):",
     "if not ((J + 1) * vq > vz):",
     "tests/test_factored_form.py::"
     "test_truncated_delta_refuses_a_z_not_separated_from_the_dropped_grid_points[z0]"),
    ("theta-tail-pos-M+2", CURRENTS,
     "beta_pos = (l * (M + 1) - jmax) * vq",
     "beta_pos = (l * (M + 2) - jmax) * vq",
     "tests/test_acceptance.py::test_07_theta_automorphy"),
    ("theta-tail-neg-M+2", CURRENTS,
     "beta_neg = (l * (M + 1) + jmin) * vq",
     "beta_neg = (l * (M + 2) + jmin) * vq",
     "tests/test_acceptance.py::test_07_theta_automorphy"),
    ("theta-drop-zero-bound-refusal", CURRENTS,
     "if rel_err <= 0:",
     "if rel_err < 0:",
     "tests/test_cli.py::test_theta_request_whose_bound_fails_only_at_q_l_z_exits_4"),
    ("ladder-drop-positive-x-clause", CURRENTS,
     "settled.append(0 < x == tn * e0 + w0 - offset)",
     "settled.append(x == tn * e0 + w0 - offset)",
     "tests/test_cli.py::test_ladder_ord_refusals[spine0-argv0-4-error0]"),
    ("ladder-drop-min-at-e0-clause", CURRENTS,
     "settled.append(0 < x == tn * e0 + w0 - offset)",
     "settled.append(0 < x)",
     "tests/test_currents.py::"
     "test_ladder_rows_near_a_zero_of_delta_are_not_settled_until_they_step_by_e0"),
    ("ladder-one-settled-row-fewer", CURRENTS,
     "if not all(settled[-min(3, nmax - 1) - 1:]):",
     "if not all(settled[-min(3, nmax - 1):]):",
     "tests/test_currents.py::test_ladder_ord_matches_the_level_walk"),
    ("mul-tail-offset+1", SERIES,
     "tail = TailBound(a, f.minorant_at(a) + g.minorant_at(a))",
     "tail = TailBound(a, f.minorant_at(a) + g.minorant_at(a) + 1)",
     "tests/test_currents.py::"
     "test_alpha_germ_points_lie_on_or_above_a_tail_line_with_offset_at_most_0"),
    ("scalar-mul-tail-offset+1", SERIES,
     "self.tail.beta + vc)",
     "self.tail.beta + vc + 1)",
     "tests/test_padic.py::test_tails_of_ring_operations_bound_the_longer_expansion"),
    ("rescale-tail-slope+1/8", SERIES,
     "TailBound(self.tail.alpha + vc,",
     "TailBound(self.tail.alpha + vc + Fraction(1, 8),",
     "tests/test_padic.py::test_tails_of_ring_operations_bound_the_longer_expansion"),
    ("root-tail-slope+1/8", SERIES,
     "return TailBound(a, one_over)",
     "return TailBound(a + Fraction(1, 8), one_over)",
     "tests/test_acceptance.py::test_02_splitting_radius"),
    ("root-tail-input-slope+1/8", SERIES,
     "return TailBound(alpha_u, bmax - M + one_over)",
     "return TailBound(alpha_u + Fraction(1, 8), bmax - M + one_over)",
     "tests/test_padic.py::test_root_tail_matches_the_all_pairs_oracle"),
    ("convergence-drop-undercut-check", SERIES,
     "if j >= 1 and v < f.tail.at(j):",
     "if False:",
     "tests/test_padic.py::test_convergence_flag_on_inconsistent_series"),
    ("tower-common-denominator-max", SKELETON,
     "denominator = lcm(*{row[4] for row in rows})",
     "denominator = max({row[4] for row in rows}, default=1)",
     "tests/test_skeleton.py::"
     "test_compose_check_reports_what_the_fraction_reference_reports"),
    ("compose-unscaled-coarser-table", SKELETON,
     "two_step = (c3, s12 * s23, pre23 * k + pre12)",
     "two_step = (c3, s12 * s23, pre23 + pre12)",
     "tests/test_skeleton.py::test_compose_check_subdivision_tower"),
    ("read-length-unreduced", SKELETON,
     "return pair[0] // g, pair[1] // g",
     "return pair",
     "tests/test_skeleton.py::test_a_length_is_read_as_parse_fraction_reads_it"),
)


def _ignore(directory, names):
    return [n for n in names
            if n in (".git", ".hypothesis", ".pytest_cache", "__pycache__")]


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def run(name: str, path: str, text: str, replacement: str, killer: str) -> str:
    """KILLED or SURVIVED for one mutant, from test runs on a mutated copy:
    its killer, then, if that passes, the rest of the tests."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / path
        source = target.read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit(f"{name}: the text must occur once in {path}")
        target.write_text(source.replace(text, replacement), encoding="utf-8")
        try:
            done = _pytest(copy, killer)
            if done.returncode in (4, 5):  # usage error, or no test collected
                raise SystemExit(f"{name}: pytest cannot run {killer}")
            if done.returncode == 0:
                done = _pytest(copy, "--deselect", TABLE_TEST, "--deselect", killer, "tests")
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
    for mutant in chosen:
        start = time.monotonic()
        verdict = run(*mutant)
        survived += verdict == "SURVIVED"
        print(f"{mutant[0]:36} {verdict} ({time.monotonic() - start:.0f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
