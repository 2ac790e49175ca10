"""Record which seeded bounded draws complete under the exploration budget.

    PYTHONHASHSEED=0 python3 perfbench/catalogue.py

rewrites perfbench/catalogue.json.  Draw k is
gen.random_bounded_pta(random.Random(DRAW_BASE + k)) for k < DRAWS.  For
each draw the file records whether symbolic.explore completes under
Budget(max_states=BUDGET) and how many states it stores.  Both are exact,
so a regeneration gives the same file.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402

DRAW_BASE = 100000
DRAWS = 800
BUDGET = 150
PATH = os.path.join(HERE, "catalogue.json")


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def draw(k: int):
    return gen.random_bounded_pta(random.Random(DRAW_BASE + k))


def main() -> int:
    from parataur import symbolic
    from parataur.symbolic import Budget

    rows = []
    for k in range(DRAWS):
        result = symbolic.explore(draw(k), Budget(max_states=BUDGET))
        rows.append([k, result.status, len(result.states)])
        print(k, rows[-1][1:], file=sys.stderr)
    head = {"draw_base": DRAW_BASE, "budget": BUDGET,
            "columns": ["k", "status", "states"]}
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ', "draws": [\n')
        fh.write(",\n".join(json.dumps(r) for r in rows))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
