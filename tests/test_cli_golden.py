"""Golden outputs of the normalization, certificate, stabilizer and verdict paths.

``cli_golden.json`` holds, per command and case, the sha256 of
``json.dumps([exit code, stdout, stderr])`` of a ``wfano`` command run
in-process through ``cli.main``:

- ``normalize`` and ``autgroup`` with ``--family F --seed s``, keyed
  ``F/s``: the seven symmetry-route families at seeds 0-9, the eleven
  known degenerate draws (ten lose a table monomial during reduction, 28/35
  has a point stabilizer of order 2), and 19/52 and 19/95, whose sampler
  redraws the roots of the shifted slice after a zero coefficient;
- ``stabilizer --points=P`` on 40 seeded point sets, keyed by the seed; some
  hold ``inf``, a repeated point or fewer than 3 points;
- ``verdict --septuple S`` for the 15 labelled septuples, keyed by ``S``.

``cubic_normal_form`` holds, keyed ``F/s``, the sha256 of the JSON of the
binary-cubic normal form of ``sample_family_member(F, s)`` (its sorted terms,
pair matrix and scale, or the error) for families 9, 17 and 27 at seeds 0-9.
``catalog`` holds the sha256 of ``catalog_json`` and of ``render_markdown``
of the catalog at the default search bounds.

A change that alters any of these outputs names the case.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from wfano.catalog import FAMILY_LABELS, catalog_json, render_markdown
from wfano.cli import main
from wfano.symalg import sample_family_member
from wfano.wspace import format_monomial

from normal_form import cubic_normal_form

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8"))

FAMILIES = (19, 28, 39, 49, 59, 66, 84)
DEGENERATE = ((19, 35), (28, 35), (49, 7), (59, 21), (59, 28), (59, 31), (59, 32), (59, 33), (66, 26), (66, 27), (84, 24))
REDRAWS = ((19, 52), (19, 95))
DRAWS = sorted({(f, s) for f in FAMILIES for s in range(10)} | set(DEGENERATE) | set(REDRAWS))
CASES = [(command, f, s) for command in ("normalize", "autgroup") for f, s in DRAWS]

POINT_POOL = ("inf", "-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2", "3")
POINT_SEEDS = range(40)
SEPTUPLES = [",".join(map(str, s)) for s in FAMILY_LABELS]
CUBIC_DRAWS = [(f, s) for f in (9, 17, 27) for s in range(10)]


def point_set(seed: int) -> str:
    """2-8 distinct points of POINT_POOL; every eighth set repeats its last."""
    rng = random.Random(seed)
    points = rng.sample(POINT_POOL, rng.randint(2, 8))
    if seed % 8 == 7:
        points.append(points[-1])
    return ",".join(points)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _run(capsys, argv: list[str]) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return _digest([code, captured.out, captured.err])


def test_golden_file_covers_the_draws():
    draws = sorted(f"{f}/{s}" for f, s in DRAWS)
    assert {command: sorted(GOLDEN[command]) for command in GOLDEN} == {
        "normalize": draws,
        "autgroup": draws,
        "stabilizer": sorted(str(s) for s in POINT_SEEDS),
        "verdict": sorted(SEPTUPLES),
        "cubic_normal_form": sorted(f"{f}/{s}" for f, s in CUBIC_DRAWS),
        "catalog": ["catalog_json", "render_markdown"],
    }


@pytest.mark.parametrize("command,family,seed", CASES, ids=[f"{c}-{f}-{s}" for c, f, s in CASES])
def test_golden_output(capsys, command, family, seed):
    digest = _run(capsys, [command, "--family", str(family), "--seed", str(seed)])
    assert digest == GOLDEN[command][f"{family}/{seed}"]


@pytest.mark.parametrize("seed", POINT_SEEDS)
def test_golden_stabilizer(capsys, seed):
    assert _run(capsys, ["stabilizer", "--points=" + point_set(seed)]) == GOLDEN["stabilizer"][str(seed)]


@pytest.mark.parametrize("septuple", SEPTUPLES)
def test_golden_verdict(capsys, septuple):
    assert _run(capsys, ["verdict", "--septuple", septuple]) == GOLDEN["verdict"][septuple]


def cubic_record(family: int, seed: int) -> list:
    try:
        form = cubic_normal_form(sample_family_member(family, seed=seed))
    except ValueError as exc:
        return ["error", type(exc).__name__, str(exc)]
    return [
        [[format_monomial(m), str(c)] for m, c in sorted(form.polynomial.terms.items())],
        [[str(x) for x in row] for row in form.pair_matrix],
        str(form.scale),
    ]


@pytest.mark.parametrize("family,seed", CUBIC_DRAWS, ids=[f"{f}-{s}" for f, s in CUBIC_DRAWS])
def test_golden_cubic_normal_form(family, seed):
    assert _digest(cubic_record(family, seed)) == GOLDEN["cubic_normal_form"][f"{family}/{seed}"]


@pytest.mark.parametrize("render", [catalog_json, render_markdown], ids=lambda f: f.__name__)
def test_golden_catalog(default_catalog, render):
    records, _ = default_catalog
    digest = hashlib.sha256(render(records).encode()).hexdigest()
    assert digest == GOLDEN["catalog"][render.__name__]
