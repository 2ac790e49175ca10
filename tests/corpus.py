"""The same-output corpus: CLI commands on seeded models, one sha256 each.

    PYTHONPATH=src python tests/corpus.py            # check every command
    PYTHONPATH=src python tests/corpus.py --write    # rewrite the digests

Each digest covers one command's stdout, stderr and exit code, so a change
that moves no verdict, witness or printed byte keeps every line of
corpus.sha256.  A change that must alter output rewrites the digests and
names each command whose line changed.

The models come from the generators of conftest.py: the four fixtures,
every 8th draw random_bounded_pta(Random(100000 + k)) for k < 800, 40
random_lu_pta draws, and the two-increment machine compiled in both
variants.  Each model is fed to the CLI on stdin and gets classify,
explore --dump, check --prop EC|ED|IP, and, for each of one or two target
sets, check --prop EF|EFU|EG and synth-int.  Budgeted commands on the
random draws run with --max-states 300; the rest keep the default budget.
Last come instantiate --dump-regions commands, one per model but the
bounded draws, with each parameter at the middle of its bounds.
Every command runs in this one process, in the order listed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from parataur import cli, mcm  # noqa: E402
from parataur.model import serialize  # noqa: E402

import conftest  # noqa: E402

PATH = os.path.join(HERE, "corpus.sha256")
DRAW_MAX_STATES = "300"
TWO_INC = "q0: inc C1 -> q1\nq1: inc C1 -> q2\nq2: halt\n"


def models() -> list[tuple[str, object, bool]]:
    """(name, model, drawn at random), in corpus order."""
    out = [(f.__name__, f(), False) for f in (
        conftest.loop_xy, conftest.xp_selfloop, conftest.open_unit,
        conftest.edge_xp)]
    machine = mcm.parse_machine(TWO_INC, name="two_inc")
    for variant in (mcm.CLOSED, mcm.STRICT):
        out.append((f"two_inc_{variant}",
                    mcm.compile_to_pta(machine, variant=variant), False))
    for k in range(0, 800, 8):
        out.append((f"bounded_{k:03d}",
                    conftest.random_bounded_pta(random.Random(100000 + k)), True))
    for k in range(40):
        out.append((f"lu_{k:02d}",
                    conftest.random_lu_pta(random.Random(200000 + k)), True))
    return out


def target_sets(pta) -> list[str]:
    names = [loc.name for loc in pta.locations]
    sets = [names[-1]]
    if len(names) > 2:
        sets.append(f"{names[1]},{names[-1]}")
    return sets


def midpoint(pta) -> str:
    """Each parameter at the middle of its bounds, or at 1/2 when the
    model has none, as a --values argument."""
    bounds = pta.bounds_map() or {}
    values = (Fraction(bounds[p].inf + bounds[p].sup, 2) if p in bounds
              else Fraction(1, 2) for p in pta.parameters)
    return ",".join(f"{p}={v}" for p, v in zip(pta.parameters, values))


def commands() -> list[tuple[str, str, list[str]]]:
    """(command id, model text, argv after the model), in corpus order."""
    out, last = [], []
    for name, pta, drawn in models():
        text = serialize(pta)
        budget = ["--max-states", DRAW_MAX_STATES] if drawn else []
        argvs = [["classify"], ["explore", "--dump"] + budget]
        argvs += [["check", "--prop", p] + budget for p in ("EC", "ED", "IP")]
        for targets in target_sets(pta):
            for p in ("EF", "EFU", "EG"):
                argvs.append(["check", "--prop", p, "--targets", targets]
                             + budget)
            argvs.append(["synth-int", "--targets", targets] + budget)
        for argv in argvs:
            out.append((" ".join([name] + argv), text, argv))
        if not name.startswith("bounded_"):
            argv = ["instantiate", "--dump-regions", f"--values={midpoint(pta)}"]
            last.append((" ".join([name] + argv), text, argv))
    return out + last


def digest(text: str, argv: list[str]) -> str:
    """Run one command on the model text and hash what it printed and its
    exit code."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv[:1] + ["-"] + argv[1:])
    finally:
        sys.stdin = stdin
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load() -> dict[str, str]:
    """The committed digests by command id."""
    with open(PATH, encoding="utf-8") as fh:
        pairs = (line.rstrip("\n").split(" ", 1) for line in fh)
        return {cid: sha for sha, cid in pairs}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 1
    got = {cid: digest(text, args) for cid, text, args in commands()}
    if argv:
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.writelines(f"{sha} {cid}\n" for cid, sha in got.items())
        print(f"wrote {len(got)} digests to {PATH}")
        return 0
    want = load()
    changed = [cid for cid in got if want.get(cid) != got[cid]]
    changed += [cid for cid in want if cid not in got]
    for cid in changed:
        print(f"changed: {cid}")
    print(f"{len(got) - len(changed)} of {len(got)} commands unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
