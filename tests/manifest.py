"""The output manifest: one sha256 of the exit code and stdout per ``wfano`` argv.

``cli_manifest.json`` maps each argv, joined by spaces, to the sha256 of
``json.dumps([exit code, stdout])`` of ``cli.main(argv)`` run in-process.
It covers, in both ``--format`` values:

- ``check``, ``basket`` and ``verdict`` for the 130 families of the catalog
  at the default search bounds;
- ``check``, ``basket`` and ``verdict`` on the septuples of
  ``NON_QUASISMOOTH``, whose failing strata have sizes 1, 2 and 3 or more,
  and on those of ``STAGES``, one per late stage of ``membership.rejection``;
- ``classify`` with each option list of ``CLASSIFY``;
- ``autgroup --septuple S`` and ``monomials --weights a1,...,a5 --degree d``
  for the 130 families;
- ``normalize`` and ``autgroup`` with ``--family F --seed s`` for the
  ``SYMMETRY_FAMILIES`` at ``SYMMETRY_SEEDS``, the draws of the benchmark's
  ``reduce`` workload, its eleven degenerate ones included.

``tests/test_manifest.py`` compares every entry of ``argvs`` in Tier-1 and
those of ``slow_argvs`` (the markdown of the symmetry draws, about 0.9 s)
under ``-m slow``.  After a change that is meant to alter an output,
regenerate the file from the repo root with

    PYTHONPATH=src python tests/manifest.py

which rewrites it and prints the argv of every entry that changed, was
added or was dropped; name those argvs in CHANGES.md.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wfano import cli
from wfano.catalog import SearchBounds, classify

PATH = Path(__file__).with_name("cli_manifest.json")

#: two non-quasismooth, non-cone septuples (first and last of a walk over
#: weights <= 8 and index 1..3) for each set of failing-stratum sizes
NON_QUASISMOOTH = (
    (1, 1, 1, 1, 3, 5, 2), (7, 7, 7, 7, 8, 35, 1),  # sizes {1}
    (1, 1, 2, 3, 3, 8, 2), (5, 5, 6, 8, 8, 30, 2),  # {2}
    (1, 1, 2, 2, 2, 7, 1), (6, 6, 6, 8, 8, 32, 2),  # {3}
    (1, 1, 1, 3, 3, 8, 1), (7, 7, 7, 8, 8, 35, 2),  # {1, 2}
    (1, 1, 2, 2, 4, 7, 3), (4, 5, 5, 6, 8, 25, 3),  # {1, 3}
    (1, 2, 2, 3, 6, 13, 1), (4, 7, 7, 7, 8, 32, 1),  # {2, 3}
    (1, 1, 2, 4, 4, 11, 1), (7, 7, 8, 8, 8, 35, 3),  # {1, 2, 3}
    (1, 2, 2, 2, 2, 7, 2), (4, 5, 6, 8, 8, 29, 2),  # {2, 3, 4}
    (1, 2, 2, 2, 6, 11, 2), (7, 8, 8, 8, 8, 36, 3),  # {1, 2, 3, 4}
    (2, 2, 2, 2, 2, 9, 1), (8, 8, 8, 8, 8, 37, 3),  # {1, 2, 3, 4, 5}
)

#: (a1, ..., a5, d) failing first, in the chain's naming order without the
#: terminality test, well-formedness, hypersurface well-formedness with the
#: ambient space well-formed, and quasismoothness; then a quasismooth family
#: that is not terminal
STAGES = ((1, 2, 2, 2, 2, 3), (1, 1, 2, 2, 2, 3), (1, 1, 2, 3, 3, 5), (1, 1, 1, 1, 3, 4))

#: the search at the default box, past it, at the CLI cap, and one index
CLASSIFY = (
    ("--max-weight", "40", "--max-degree", "120"),
    ("--max-weight", "50", "--max-degree", "150"),
    ("--max-weight", "200", "--max-degree", "1000"),
    ("--index", "1"),
)

#: the seven symmetry-route families, drawn at the seeds of the ``reduce`` workload
SYMMETRY_FAMILIES = (19, 28, 39, 49, 59, 66, 84)
SYMMETRY_SEEDS = range(40)


def _septuple(s) -> str:
    return ",".join(map(str, s))


def _symmetry_draws(fmt: str) -> list[list[str]]:
    return [
        [c, "--family", str(family), "--seed", str(seed), "--format", fmt]
        for c in ("normalize", "autgroup") for family in SYMMETRY_FAMILIES for seed in SYMMETRY_SEEDS
    ]


def argvs(families) -> list[list[str]]:
    """The manifest's Tier-1 argvs for the given catalog septuples."""
    cases = [(c, s) for s in (*families, *NON_QUASISMOOTH, *STAGES) for c in ("check", "basket", "verdict")]
    per_family = [
        options
        for s in families
        for options in (
            ("autgroup", "--septuple", _septuple(s)),
            ("monomials", "--weights", _septuple(s[:5]), "--degree", str(s[5])),
        )
    ]
    return (
        [[c, "--septuple", _septuple(s), "--format", f] for c, s in cases for f in ("json", "markdown")]
        + [["classify", *options, "--format", f] for options in CLASSIFY for f in ("json", "markdown")]
        + [[*options, "--format", f] for options in per_family for f in ("json", "markdown")]
        + _symmetry_draws("json")
    )


def slow_argvs() -> list[list[str]]:
    """The manifest's argvs that only the ``slow`` test compares."""
    return _symmetry_draws("markdown")


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue()]).encode()).hexdigest()


def compute(argv_list) -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in argv_list}


if __name__ == "__main__":
    old = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    new = compute(argvs([r.septuple for r in classify(SearchBounds())]) + slow_argvs())
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)
    PATH.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
