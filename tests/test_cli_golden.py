"""Golden outputs of the normalization and certificate commands.

``cli_golden.json`` holds, per command and draw ``family/seed``, the sha256 of
``json.dumps([exit code, stdout, stderr])`` of ``wfano <command> --family F
--seed s``, run in-process through ``cli.main``.  The draws are the seven
symmetry-route families at seeds 0-9 plus the eleven known degenerate draws
(ten lose a table monomial during reduction, 28/35 has a point stabilizer of
order 2), so a change that alters any of these outputs names the draw.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wfano.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8"))

FAMILIES = (19, 28, 39, 49, 59, 66, 84)
DEGENERATE = ((19, 35), (28, 35), (49, 7), (59, 21), (59, 28), (59, 31), (59, 32), (59, 33), (66, 26), (66, 27), (84, 24))
DRAWS = sorted({(f, s) for f in FAMILIES for s in range(10)} | set(DEGENERATE))
CASES = [(command, f, s) for command in ("normalize", "autgroup") for f, s in DRAWS]


def test_golden_file_covers_the_draws():
    assert {command: sorted(GOLDEN[command]) for command in GOLDEN} == {
        command: sorted(f"{f}/{s}" for f, s in DRAWS) for command in ("normalize", "autgroup")
    }


@pytest.mark.parametrize("command,family,seed", CASES, ids=[f"{c}-{f}-{s}" for c, f, s in CASES])
def test_golden_output(capsys, command, family, seed):
    code = main([command, "--family", str(family), "--seed", str(seed)])
    captured = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, captured.out, captured.err]).encode()).hexdigest()
    assert digest == GOLDEN[command][f"{family}/{seed}"]
